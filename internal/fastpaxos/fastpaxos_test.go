package fastpaxos

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/node"
	"repro/internal/paxos"
	"repro/internal/remoting"
)

// router wires FastPaxos instances with synchronous in-memory delivery.
type router struct {
	mu    sync.Mutex
	nodes map[node.Addr]*FastPaxos
	drop  map[node.Addr]bool
}

func newRouter() *router {
	return &router{nodes: make(map[node.Addr]*FastPaxos), drop: make(map[node.Addr]bool)}
}

func (r *router) dispatch(to node.Addr, req *remoting.Request) {
	r.mu.Lock()
	f, ok := r.nodes[to]
	dropped := r.drop[to]
	r.mu.Unlock()
	if !ok || dropped {
		return
	}
	switch {
	case req.FastRound != nil:
		f.HandleFastRoundVote(req.FastRound)
	case req.P1a != nil:
		f.HandlePhase1a(req.P1a)
	case req.P1b != nil:
		f.HandlePhase1b(req.P1b)
	case req.P2a != nil:
		f.HandlePhase2a(req.P2a)
	case req.P2b != nil:
		f.HandlePhase2b(req.P2b)
	}
}

type nodeClient struct {
	r       *router
	members []node.Addr
}

func (c *nodeClient) SendBestEffort(to node.Addr, req *remoting.Request) { c.r.dispatch(to, req) }
func (c *nodeClient) Broadcast(req *remoting.Request) {
	for _, m := range c.members {
		c.r.dispatch(m, req)
	}
}

type cluster struct {
	router    *router
	addrs     []node.Addr
	instances map[node.Addr]*FastPaxos
	mu        sync.Mutex
	decisions map[node.Addr][]node.Endpoint
}

func newCluster(n int, configID uint64) *cluster {
	c := &cluster{
		router:    newRouter(),
		instances: make(map[node.Addr]*FastPaxos),
		decisions: make(map[node.Addr][]node.Endpoint),
	}
	for i := 0; i < n; i++ {
		c.addrs = append(c.addrs, node.Addr(fmt.Sprintf("n%03d:1", i)))
	}
	for i, addr := range c.addrs {
		addr := addr
		client := &nodeClient{r: c.router, members: c.addrs}
		f := New(Config{
			MyAddr:          addr,
			MyIndex:         i,
			MembershipSize:  n,
			ConfigurationID: configID,
			Client:          client,
			Broadcaster:     client,
			OnDecide: func(v []node.Endpoint) {
				c.mu.Lock()
				c.decisions[addr] = v
				c.mu.Unlock()
			},
		})
		c.router.nodes[addr] = f
		c.instances[addr] = f
	}
	return c
}

func (c *cluster) decisionCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.decisions)
}

func (c *cluster) uniqueDecisions() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool)
	for _, v := range c.decisions {
		out[paxos.Key(v)] = true
	}
	return out
}

func proposal(addrs ...string) []node.Endpoint {
	out := make([]node.Endpoint, len(addrs))
	for i, a := range addrs {
		out[i] = node.Endpoint{Addr: node.Addr(a), ID: node.ID{High: uint64(i + 1), Low: 3}}
	}
	return out
}

func TestFastQuorumSize(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 4}, {6, 5},
		{10, 8}, {100, 76}, {1000, 751},
	}
	for _, c := range cases {
		if got := FastQuorumSize(c.n); got != c.want {
			t.Errorf("FastQuorumSize(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFastPathDecidesWhenAllVotesIdentical(t *testing.T) {
	c := newCluster(10, 7)
	prop := proposal("dead-1:1", "dead-2:1")
	for _, f := range c.instances {
		f.Propose(prop)
	}
	if c.decisionCount() != 10 {
		t.Fatalf("decisions = %d, want 10", c.decisionCount())
	}
	uniq := c.uniqueDecisions()
	if len(uniq) != 1 || !uniq[paxos.Key(prop)] {
		t.Fatalf("unexpected decisions: %v", uniq)
	}
}

func TestFastPathDecidesWithExactlyQuorumVotes(t *testing.T) {
	const n = 8
	c := newCluster(n, 7)
	prop := proposal("dead:1")
	quorum := FastQuorumSize(n) // 7681 -> for n=8: 8-1=7... (8-1)/4=1, so 7
	for i := 0; i < quorum; i++ {
		c.instances[c.addrs[i]].Propose(prop)
	}
	if c.decisionCount() != n {
		t.Fatalf("decisions = %d, want all %d nodes to learn via the fast path", c.decisionCount(), n)
	}
}

func TestFastPathDoesNotDecideBelowQuorum(t *testing.T) {
	const n = 8
	c := newCluster(n, 7)
	prop := proposal("dead:1")
	quorum := FastQuorumSize(n)
	for i := 0; i < quorum-1; i++ {
		c.instances[c.addrs[i]].Propose(prop)
	}
	if c.decisionCount() != 0 {
		t.Fatalf("decided with %d < quorum %d votes", quorum-1, quorum)
	}
}

func TestConflictingVotesFallBackToClassicalPaxos(t *testing.T) {
	const n = 8
	c := newCluster(n, 7)
	vA, vB := proposal("a:1"), proposal("b:1")
	for i, addr := range c.addrs {
		if i < n/2 {
			c.instances[addr].Propose(vA)
		} else {
			c.instances[addr].Propose(vB)
		}
	}
	if c.decisionCount() != 0 {
		t.Fatalf("split votes must not reach a fast decision, got %d decisions", c.decisionCount())
	}
	// Fallback timers fire: one (or more) nodes start the recovery round.
	c.instances[c.addrs[0]].StartClassicalRound()
	if c.decisionCount() == 0 {
		t.Fatal("classical recovery did not produce a decision")
	}
	uniq := c.uniqueDecisions()
	if len(uniq) != 1 {
		t.Fatalf("conflicting decisions after recovery: %v", uniq)
	}
	if !uniq[paxos.Key(vA)] && !uniq[paxos.Key(vB)] {
		t.Fatalf("recovery decided a value nobody proposed: %v", uniq)
	}
}

// TestRecoveryRetryUsesAHigherRound: a coordinator whose first recovery round
// reached no majority must be able to try again. A repeated round 2 builds
// the rank the coordinator already holds and sends nothing (the parent
// commit's behaviour); every retry has to climb.
func TestRecoveryRetryUsesAHigherRound(t *testing.T) {
	const n = 8
	c := newCluster(n, 7)
	vA, vB := proposal("a:1"), proposal("b:1")
	for i, addr := range c.addrs {
		if i < n/2 {
			c.instances[addr].Propose(vA)
		} else {
			c.instances[addr].Propose(vB)
		}
	}
	coordinator := c.instances[c.addrs[0]]
	// The first round's P1a reaches too few acceptors for a P1b majority.
	for _, addr := range c.addrs[n/2:] {
		c.router.drop[addr] = true
	}
	coordinator.StartClassicalRound()
	if c.decisionCount() != 0 {
		t.Fatalf("decided with %d of %d acceptors reachable", n/2, n)
	}
	for _, addr := range c.addrs[n/2:] {
		c.router.drop[addr] = false
	}
	coordinator.StartClassicalRound()
	if c.decisionCount() != n {
		t.Fatalf("%d of %d members decided after the retry", c.decisionCount(), n)
	}
	if uniq := c.uniqueDecisions(); len(uniq) != 1 {
		t.Fatalf("conflicting decisions after the retry: %v", uniq)
	}
}

func TestDuplicateVotesFromSameSenderIgnored(t *testing.T) {
	const n = 8
	c := newCluster(n, 7)
	f := c.instances[c.addrs[0]]
	prop := proposal("dead:1")
	for i := 0; i < 20; i++ {
		f.HandleFastRoundVote(&remoting.FastRoundPhase2b{
			Sender:          "same:1",
			ConfigurationID: 7,
			Proposal:        prop,
		})
	}
	leading, total := f.VotesForLeadingProposal()
	if leading != 1 || total != 1 {
		t.Fatalf("duplicate votes counted: leading=%d total=%d", leading, total)
	}
}

func TestVotesFromWrongConfigurationIgnored(t *testing.T) {
	c := newCluster(4, 7)
	f := c.instances[c.addrs[0]]
	for i := 0; i < 4; i++ {
		f.HandleFastRoundVote(&remoting.FastRoundPhase2b{
			Sender:          node.Addr(fmt.Sprintf("x%d:1", i)),
			ConfigurationID: 8,
			Proposal:        proposal("dead:1"),
		})
	}
	if f.Decided() {
		t.Fatal("votes from another configuration must not decide")
	}
}

func TestProposeIsIdempotent(t *testing.T) {
	c := newCluster(4, 7)
	f := c.instances[c.addrs[0]]
	f.Propose(proposal("a:1"))
	if !f.HasProposed() {
		t.Fatal("HasProposed should be true after Propose")
	}
	// A second, different proposal from the same node must not be cast.
	f.Propose(proposal("b:1"))
	peer := c.instances[c.addrs[1]]
	leading, total := peer.VotesForLeadingProposal()
	if total != 1 || leading != 1 {
		t.Fatalf("peer saw %d votes (leading %d), want exactly the first vote", total, leading)
	}
}

func TestDecideCalledExactlyOnce(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	f := New(Config{
		MyAddr:          "a:1",
		MyIndex:         0,
		MembershipSize:  2,
		ConfigurationID: 1,
		Client:          &nodeClient{r: newRouter()},
		Broadcaster:     &nodeClient{r: newRouter()},
		OnDecide: func([]node.Endpoint) {
			mu.Lock()
			calls++
			mu.Unlock()
		},
	})
	prop := proposal("dead:1")
	f.HandleFastRoundVote(&remoting.FastRoundPhase2b{Sender: "a:1", ConfigurationID: 1, Proposal: prop})
	f.HandleFastRoundVote(&remoting.FastRoundPhase2b{Sender: "b:1", ConfigurationID: 1, Proposal: prop})
	f.HandleFastRoundVote(&remoting.FastRoundPhase2b{Sender: "c:1", ConfigurationID: 1, Proposal: prop})
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("OnDecide called %d times, want 1", calls)
	}
}

func TestAgreementPropertyUnderPartialVoting(t *testing.T) {
	// Property: whatever subset of nodes votes (all for one of two values),
	// and whichever nodes later run recovery, no two nodes decide different
	// values.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(8)
		c := newCluster(n, 1)
		vA, vB := proposal("vA:1"), proposal("vB:1")
		for _, addr := range c.addrs {
			switch r.Intn(3) {
			case 0:
				c.instances[addr].Propose(vA)
			case 1:
				c.instances[addr].Propose(vB)
			default:
				// does not vote
			}
		}
		// A random subset of nodes times out and runs recovery.
		for _, addr := range c.addrs {
			if r.Intn(2) == 0 {
				c.instances[addr].StartClassicalRound()
			}
		}
		return len(c.uniqueDecisions()) <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- counting by bitmap ---------------------------------------------------------

// voters builds an n-member bitmap with the given members' bits set.
func voters(n int, members ...int) []byte {
	b := make([]byte, (n+7)/8)
	for _, i := range members {
		b[i/8] |= 1 << (i % 8)
	}
	return b
}

// counter is a lone instance that records its decisions.
type counter struct {
	*FastPaxos
	decisions [][]node.Endpoint
}

func newCounter(n int, configID uint64) *counter {
	c := &counter{}
	c.FastPaxos = New(Config{
		MyAddr: "me:1", MembershipSize: n, ConfigurationID: configID,
		Client: &nodeClient{r: newRouter()}, Broadcaster: &nodeClient{r: newRouter()},
		OnDecide: func(v []node.Endpoint) { c.decisions = append(c.decisions, v) },
	})
	return c
}

// tallies renders Aggregates as proposal key -> voter bitmap.
func (c *counter) tallies() map[string]string {
	out := map[string]string{}
	for _, a := range c.Aggregates() {
		out[paxos.Key(a.Proposal)] = fmt.Sprintf("%08b", a.Voters)
	}
	return out
}

// regroup turns a set of voters of one proposal into aggregates that cover it:
// random groups, some sent twice, some folded into a bigger one.
func regroup(r *rand.Rand, n int, members []int) [][]byte {
	members = append([]int(nil), members...)
	r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	var out [][]byte
	for len(members) > 0 {
		k := 1 + r.Intn(min(6, len(members)))
		group := voters(n, members[:k]...)
		members = members[k:]
		out = append(out, group)
		if r.Intn(3) == 0 {
			out = append(out, group) // a duplicate
		}
		if r.Intn(3) == 0 { // a later aggregate that already contains an earlier one
			union := append([]byte(nil), group...)
			for i, b := range out[r.Intn(len(out))] {
				union[i] |= b
			}
			out = append(out, union)
		}
	}
	return out
}

func span(from, to int) []int {
	var out []int
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// TestMergeIsOrderAndGroupingIndependent: however a fixed set of votes is cut
// into aggregates, repeated and ordered, the instance ends with the same
// tallies, and completing the quorum decides exactly once.
func TestMergeIsOrderAndGroupingIndependent(t *testing.T) {
	const n, configID = 40, 7 // fast quorum 31
	vA, vB := proposal("a:1", "b:1"), proposal("c:1")
	want := map[string]string{
		paxos.Key(vA): fmt.Sprintf("%08b", voters(n, span(0, 25)...)),
		paxos.Key(vB): fmt.Sprintf("%08b", voters(n, span(25, 33)...)),
	}
	type aggregate struct {
		value []node.Endpoint
		bits  []byte
	}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		var batch []aggregate
		for _, bits := range regroup(r, n, span(0, 25)) {
			// The same proposal listed in another order is the same proposal.
			value := vA
			if r.Intn(2) == 0 {
				value = []node.Endpoint{vA[1], vA[0]}
			}
			batch = append(batch, aggregate{value, bits})
		}
		for _, bits := range regroup(r, n, span(25, 33)) {
			batch = append(batch, aggregate{vB, bits})
		}
		r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })

		c := newCounter(n, configID)
		learned := 0
		for _, a := range batch {
			if c.Merge(configID, a.value, a.bits) {
				learned++
			}
		}
		if got := c.tallies(); len(got) != 2 || got[paxos.Key(vA)] != want[paxos.Key(vA)] || got[paxos.Key(vB)] != want[paxos.Key(vB)] {
			t.Fatalf("seed %d: tallies %v, want %v", seed, got, want)
		}
		if leading, total := c.VotesForLeadingProposal(); leading != 25 || total != 33 {
			t.Fatalf("seed %d: leading=%d total=%d, want 25 of 33", seed, leading, total)
		}
		if learned == 0 || learned > 33 || len(c.decisions) != 0 {
			t.Fatalf("seed %d: %d merges taught something, %d decisions below the quorum", seed, learned, len(c.decisions))
		}
		for _, bits := range regroup(r, n, span(33, 40)) {
			c.Merge(configID, vA, bits)
		}
		if len(c.decisions) != 1 || paxos.Key(c.decisions[0]) != paxos.Key(vA) {
			t.Fatalf("seed %d: decisions %v, want exactly one, for %v", seed, c.decisions, vA)
		}
		if c.Merge(configID, vB, voters(n, 39)) {
			t.Fatalf("seed %d: a decided instance learned from an aggregate", seed)
		}
	}
}

// TestVoterSeenUnderTwoProposalsCountsOnce: a member has one vote; whatever
// else claims it later, it stays under the proposal it was first seen with.
func TestVoterSeenUnderTwoProposalsCountsOnce(t *testing.T) {
	const n, configID = 12, 7
	vA, vB := proposal("a:1"), proposal("b:1")
	c := newCounter(n, configID)
	if !c.Merge(configID, vA, voters(n, 3)) {
		t.Fatal("the first sight of voter 3 taught nothing")
	}
	if !c.Merge(configID, vB, voters(n, 3, 4)) {
		t.Fatal("voter 4 is new and must be learned")
	}
	if c.Merge(configID, vB, voters(n, 3)) {
		t.Fatal("voter 3 was counted a second time, under another proposal")
	}
	want := map[string]string{
		paxos.Key(vA): fmt.Sprintf("%08b", voters(n, 3)),
		paxos.Key(vB): fmt.Sprintf("%08b", voters(n, 4)),
	}
	if got := c.tallies(); len(got) != 2 || got[paxos.Key(vA)] != want[paxos.Key(vA)] || got[paxos.Key(vB)] != want[paxos.Key(vB)] {
		t.Fatalf("tallies %v, want %v", got, want)
	}
	if leading, total := c.VotesForLeadingProposal(); leading != 1 || total != 2 {
		t.Fatalf("leading=%d total=%d, want 1 of 2", leading, total)
	}
}

// TestMalformedAggregatesChangeNothing: the bitmap is network input. One that
// does not fit this configuration's membership exactly, or that names another
// configuration, is dropped whole — even if it would have decided.
func TestMalformedAggregatesChangeNothing(t *testing.T) {
	const n, configID = 12, 7 // two bytes, bits 12..15 must stay clear
	full := voters(n, span(0, n)...)
	cases := map[string]struct {
		configID uint64
		bits     []byte
	}{
		"stale configuration": {configID + 1, full},
		"no bitmap":           {configID, nil},
		"too short":           {configID, full[:1]},
		"too long":            {configID, append(append([]byte(nil), full...), 0)},
		"bit past N":          {configID, []byte{0xff, 0x1f}},
		"all ones":            {configID, []byte{0xff, 0xff}},
	}
	for name, tc := range cases {
		c := newCounter(n, configID)
		if c.Merge(tc.configID, proposal("dead:1"), tc.bits) {
			t.Errorf("%s: Merge reports it learned something", name)
		}
		if tc.bits != nil { // the vote-message entry point takes a bitmap down the same path
			c.HandleFastRoundVote(&remoting.FastRoundPhase2b{Sender: "x:1", ConfigurationID: tc.configID, Proposal: proposal("dead:1"), Voters: tc.bits})
		}
		if _, total := c.VotesForLeadingProposal(); total != 0 || len(c.decisions) != 0 {
			t.Errorf("%s: %d votes counted, %d decisions", name, total, len(c.decisions))
		}
	}
	c := newCounter(n, configID)
	if !c.Merge(configID, proposal("dead:1"), full) || len(c.decisions) != 1 {
		t.Fatal("the well-formed full bitmap must decide")
	}
}

// TestBareAndBitmapPathsAgree feeds the same votes to one instance as bare
// votes and to another as one-bit aggregates: same decision, at the same vote.
func TestBareAndBitmapPathsAgree(t *testing.T) {
	const n, configID = 23, 7
	vA, vB := proposal("a:1", "b:1"), proposal("c:1")
	bare, bitmap := newCounter(n, configID), newCounter(n, configID)
	for i := 0; i < n; i++ {
		value := vA
		if i%6 == 5 {
			value = vB // a minority votes for something else
		}
		bare.HandleFastRoundVote(&remoting.FastRoundPhase2b{Sender: node.Addr(fmt.Sprintf("n%02d:1", i)), ConfigurationID: configID, Proposal: value})
		bitmap.Merge(configID, value, voters(n, i))
		if len(bare.decisions) != len(bitmap.decisions) {
			t.Fatalf("after vote %d: %d decisions from bare votes, %d from bitmaps", i, len(bare.decisions), len(bitmap.decisions))
		}
		l1, t1 := bare.VotesForLeadingProposal()
		l2, t2 := bitmap.VotesForLeadingProposal()
		if l1 != l2 || t1 != t2 {
			t.Fatalf("after vote %d: bare votes count %d/%d, bitmaps %d/%d", i, l1, t1, l2, t2)
		}
	}
	if len(bare.decisions) != 1 || paxos.Key(bare.decisions[0]) != paxos.Key(vA) || paxos.Key(bitmap.decisions[0]) != paxos.Key(vA) {
		t.Fatalf("decisions %v and %v, want one each, for %v", bare.decisions, bitmap.decisions, vA)
	}
}

// TestVoteSinkReceivesOwnBit: with a sink, Propose broadcasts nothing and
// hands over this process' vote as a one-bit aggregate.
func TestVoteSinkReceivesOwnBit(t *testing.T) {
	const n, me = 19, 10
	var got []*remoting.FastRoundPhase2b
	f := New(Config{
		MyAddr: "me:1", MyIndex: me, MembershipSize: n, ConfigurationID: 7,
		Client: &nodeClient{r: newRouter()}, Broadcaster: &nodeClient{r: newRouter()},
		VoteSink: func(v *remoting.FastRoundPhase2b) { got = append(got, v) },
	})
	f.Propose(proposal("dead:1"))
	f.Propose(proposal("other:1"))
	if len(got) != 1 || fmt.Sprintf("%08b", got[0].Voters) != fmt.Sprintf("%08b", voters(n, me)) {
		t.Fatalf("sink got %v, want one vote with exactly bit %d", got, me)
	}
	if _, total := f.VotesForLeadingProposal(); total != 0 {
		t.Fatalf("%d votes counted before the sink merged anything", total)
	}
}
