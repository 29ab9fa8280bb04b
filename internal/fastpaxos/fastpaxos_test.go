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

func TestRandomFallbackJitterBounds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		j := RandomFallbackJitter(seed, 10)
		if j < 0 || j >= 10 {
			t.Fatalf("jitter %d out of range", j)
		}
	}
	if RandomFallbackJitter(1, 1) != 0 || RandomFallbackJitter(1, 0) != 0 {
		t.Fatal("jitter for n<=1 should be 0")
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
