package core

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/fastpaxos"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/view"
)

// --- counting votes along the rings, driven by hand ---------------------------

// newVoteRig starts n members on the hand-driven rig with K = 3, so that a
// membership relays votes from 13 members on (oneHopLimit = 4K = 12).
//
// engine-entry: the rig applies events on the test goroutine; no loop runs.
func newVoteRig(t *testing.T, n int) (*engineRig, []node.Endpoint) {
	r := newEngineRig(t)
	r.settings.K, r.settings.H, r.settings.L = 3, 3, 1
	members := make([]node.Endpoint, n)
	for i := range members {
		members[i] = endpoint(i)
	}
	for _, m := range members {
		r.start(m, members)
	}
	return r, members
}

// votePushes empties the rig's inboxes and returns who was sent which vote
// batch; anything else in flight fails the test.
func (r *engineRig) votePushes() map[node.Addr][]*remoting.FastRoundVoteBatch {
	r.t.Helper()
	out := map[node.Addr][]*remoting.FastRoundVoteBatch{}
	for to, reqs := range r.inbox {
		for _, req := range reqs {
			if req.VoteBatch == nil || req.Alerts != nil {
				r.t.Fatalf("%s was sent a %s, want vote batches only", to, req.Kind())
			}
			out[to] = append(out[to], req.VoteBatch)
		}
	}
	clear(r.inbox)
	return out
}

// wantOnePushTo checks that exactly the listed members were sent one vote
// batch each, and returns it (every target of one push gets the same batch).
func wantOnePushTo(t *testing.T, pushes map[node.Addr][]*remoting.FastRoundVoteBatch, targets []node.Addr) *remoting.FastRoundVoteBatch {
	t.Helper()
	var got []node.Addr
	var batch *remoting.FastRoundVoteBatch
	for to, batches := range pushes {
		if len(batches) != 1 {
			t.Fatalf("%s was sent %d vote batches, want 1", to, len(batches))
		}
		got = append(got, to)
		batch = batches[0]
	}
	want := append([]node.Addr(nil), targets...)
	if !slices.Equal(node.SortAddrs(got), node.SortAddrs(want)) {
		t.Fatalf("vote batch sent to %v, want exactly %v", got, want)
	}
	return batch
}

func voterCount(bitmap []byte) int {
	n := 0
	for _, b := range bitmap {
		n += bits.OnesCount8(b)
	}
	return n
}

// bitmapOf sets the bits of the first count members of an n-member bitmap,
// skipping the listed index.
func bitmapOf(n, count, skip int) []byte {
	b := make([]byte, (n+7)/8)
	for i := 0; count > 0; i++ {
		if i != skip {
			b[i/8] |= 1 << (i % 8)
			count--
		}
	}
	return b
}

// TestOwnVoteIsPushedToRingSubjectsOnce: above the one-hop limit a member's
// vote leaves on the next flush, as a bitmap with its own bit, for exactly its
// ring subjects; a subject it taught pushes on to its own subjects; and an
// aggregate that teaches nothing causes no push at all.
//
// engine-entry: the rig applies events on the test goroutine; no loop runs.
func TestOwnVoteIsPushedToRingSubjectsOnce(t *testing.T) {
	r, members := newVoteRig(t, 16)
	voter := r.engines[members[5].Addr]
	cut := []node.Endpoint{endpoint(99)}

	voter.propose(cut)
	if pushes := r.votePushes(); len(pushes) != 0 {
		t.Fatalf("a vote left before the flush tick: %v", pushes)
	}
	r.flush(voter.c.me.Addr)
	subjects, _ := voter.view.UniqueSubjectsOf(voter.c.me.Addr)
	if len(subjects) == 0 || len(subjects) > 3 {
		t.Fatalf("%d ring subjects with K=3", len(subjects))
	}
	batch := wantOnePushTo(t, r.votePushes(), subjects)
	ownBit := make([]byte, 2)
	ownBit[voter.myIndex/8] |= 1 << (voter.myIndex % 8)
	if len(batch.Votes) != 1 || batch.Votes[0].ConfigurationID != voter.view.ConfigurationID() || !slices.Equal(batch.Votes[0].Voters, ownBit) {
		t.Fatalf("pushed %+v, want one aggregate with exactly bit %d", batch.Votes, voter.myIndex)
	}
	r.flush(voter.c.me.Addr)
	if pushes := r.votePushes(); len(pushes) != 0 {
		t.Fatalf("a second flush pushed again with nothing learned: %v", pushes)
	}

	// A subject learns the vote and relays it; hearing it again is silent.
	relay := r.engines[subjects[0]]
	push := &remoting.Request{VoteBatch: batch}
	relay.dispatchRequest(push, true)
	r.flush(relay.c.me.Addr)
	onward, _ := relay.view.UniqueSubjectsOf(relay.c.me.Addr)
	if got := wantOnePushTo(t, r.votePushes(), onward); voterCount(got.Votes[0].Voters) != 1 {
		t.Fatalf("the relay pushed %d voters on, want the one it learned", voterCount(got.Votes[0].Voters))
	}
	relay.dispatchRequest(push, true)
	r.flush(relay.c.me.Addr)
	if pushes := r.votePushes(); len(pushes) != 0 {
		t.Fatalf("an aggregate that taught nothing caused a push: %v", pushes)
	}
}

// TestDecidingAggregateIsRelayedBeforeInstall: the member that completes a
// quorum installs the next configuration and forgets the instance, so it
// first pushes the deciding aggregate to the subjects it has in the
// configuration it is leaving — or the relay chain would end with it. What
// follows in the same batch is not counted for anything.
//
// engine-entry: the rig applies events on the test goroutine; no loop runs.
func TestDecidingAggregateIsRelayedBeforeInstall(t *testing.T) {
	const n = 16
	r, members := newVoteRig(t, n)
	e := r.engines[members[2].Addr]
	oldConfig := e.view.ConfigurationID()
	oldSubjects, _ := e.view.UniqueSubjectsOf(e.c.me.Addr)
	joiner := endpoint(99)
	newConfig := view.NewWithMembers(3, append(append([]node.Endpoint(nil), members...), joiner)).ConfigurationID()
	quorum := fastpaxos.FastQuorumSize(n)

	e.dispatchRequest(&remoting.Request{VoteBatch: &remoting.FastRoundVoteBatch{Sender: members[0].Addr, Votes: []remoting.FastRoundPhase2b{
		{Sender: members[0].Addr, ConfigurationID: oldConfig, Proposal: []node.Endpoint{joiner}, Voters: bitmapOf(n, quorum, e.myIndex)},
		{Sender: members[0].Addr, ConfigurationID: oldConfig, Proposal: []node.Endpoint{endpoint(98)}, Voters: bitmapOf(n, n-1, e.myIndex)},
		{Sender: members[0].Addr, ConfigurationID: newConfig, Proposal: []node.Endpoint{endpoint(97)}, Voters: bitmapOf(n+1, 3, -1)},
	}}}, true)

	if got := e.view.ConfigurationID(); got != newConfig || e.view.Size() != n+1 {
		t.Fatalf("installed %x with %d members, want %x with %d", got, e.view.Size(), newConfig, n+1)
	}
	batch := wantOnePushTo(t, r.votePushes(), oldSubjects)
	if len(batch.Votes) != 1 || batch.Votes[0].ConfigurationID != oldConfig || voterCount(batch.Votes[0].Voters) != quorum {
		t.Fatalf("the decision push carried %+v, want the one deciding aggregate of %d voters", batch.Votes, quorum)
	}
	if _, total := e.consensus.VotesForLeadingProposal(); total != 0 || e.votesDirty {
		t.Fatalf("the rest of the deciding batch was counted in the new configuration: %d votes, dirty=%v", total, e.votesDirty)
	}
	r.flush(e.c.me.Addr)
	if pushes := r.votePushes(); len(pushes) != 0 {
		t.Fatalf("the new configuration's first flush pushed %v", pushes)
	}
}

// TestSmallMembershipVotesInOneHop: at or below the one-hop limit a vote goes
// to every other member and nobody relays what it receives — the message
// count of unicast-to-all, less the copy to oneself.
//
// engine-entry: the rig applies events on the test goroutine; no loop runs.
func TestSmallMembershipVotesInOneHop(t *testing.T) {
	r, members := newVoteRig(t, 12)
	voter := r.engines[members[5].Addr]
	voter.propose([]node.Endpoint{endpoint(99)})
	r.flush(voter.c.me.Addr)
	var others []node.Addr
	for _, m := range members {
		if m.Addr != voter.c.me.Addr {
			others = append(others, m.Addr)
		}
	}
	batch := wantOnePushTo(t, r.votePushes(), others)

	peer := r.engines[members[6].Addr]
	peer.dispatchRequest(&remoting.Request{VoteBatch: batch}, true)
	if _, total := peer.consensus.VotesForLeadingProposal(); total != 1 {
		t.Fatalf("the peer counted %d votes, want 1", total)
	}
	r.flush(peer.c.me.Addr)
	if pushes := r.votePushes(); len(pushes) != 0 {
		t.Fatalf("a one-hop member relayed what it received: %v", pushes)
	}
}

// TestVoteThatDecidesStillLeaves: a member counts its own vote at once, so
// the vote that completes its quorum decides before any flush tick. It must
// reach the others all the same — with N = 4 they cannot decide without it.
//
// engine-entry: the rig applies events on the test goroutine; no loop runs.
func TestVoteThatDecidesStillLeaves(t *testing.T) {
	r, members := newVoteRig(t, 4)
	cut := []node.Endpoint{endpoint(99)}
	early := []node.Addr{members[0].Addr, members[1].Addr, members[2].Addr}
	last := members[3].Addr
	for _, m := range early {
		r.engines[m].propose(cut)
	}
	r.flush(early...)
	r.deliver(last)
	if got := r.engines[last].view.Size(); got != 4 {
		t.Fatalf("decided on 3 of 4 votes (size %d)", got)
	}
	r.engines[last].propose(cut)
	if got := r.engines[last].view.Size(); got != 5 {
		t.Fatalf("the fourth vote did not decide at once (size %d)", got)
	}
	r.deliver(early...)
	for _, m := range early {
		if got := r.engines[m].view.Size(); got != 5 {
			t.Fatalf("%s has %d members: the deciding vote never reached it", m, got)
		}
	}
}
