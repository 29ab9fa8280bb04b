package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
)

// p1aRanks empties the rig's inboxes and returns the ranks of the recovery
// rounds one member saw started (a P1a goes to every member alike).
func (r *engineRig) p1aRanks(at node.Addr) []remoting.Rank {
	var ranks []remoting.Rank
	for _, req := range r.inbox[at] {
		if req.P1a != nil {
			ranks = append(ranks, req.P1a.Rank)
		}
	}
	clear(r.inbox)
	return ranks
}

// TestRecoveryDeadlineIsEngineOwned drives the consensus recovery deadline by
// hand: it is armed when this process votes, fires on the first reinforcement
// tick at or after base + jitter, fires again every base while the instance
// stays undecided — each time with a higher rank, or the retry would send
// nothing — and is gone once the instance decides.
//
// engine-entry: the rig applies events on the test goroutine; no loop runs.
func TestRecoveryDeadlineIsEngineOwned(t *testing.T) {
	r := newEngineRig(t)
	members := []node.Endpoint{endpoint(0), endpoint(1), endpoint(2), endpoint(3)}
	var all []node.Addr
	for _, m := range members {
		r.start(m, members)
		all = append(all, m.Addr)
	}
	const myIndex = 2
	e := r.engines[addr(myIndex)]
	base := r.settings.ConsensusFallbackBase
	delay := base + myIndex*base/8
	cut := []node.Endpoint{endpoint(9)}

	// tick moves the clock and runs one reinforcement tick.
	tick := func(advance time.Duration) []remoting.Rank {
		r.clk.Advance(advance)
		e.reinforce()
		return r.p1aRanks(addr(0))
	}
	if got := tick(10 * base); len(got) != 0 {
		t.Fatalf("recovery round %v started before this process voted", got)
	}

	e.propose(cut)
	if got := tick(delay - time.Millisecond); len(got) != 0 {
		t.Fatalf("recovery round %v started before base + jitter", got)
	}
	for round := uint64(2); round <= 4; round++ {
		got := tick(time.Millisecond)
		want := remoting.Rank{Round: round, NodeIndex: myIndex + 2}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("the deadline started rounds %v, want one of rank %v", got, want)
		}
		if got := tick(base - time.Millisecond); len(got) != 0 {
			t.Fatalf("recovery round %v restarted before another base passed", got)
		}
	}

	// The fast round decides after all: everyone votes for the same cut.
	for _, m := range all {
		r.engines[m].propose(cut)
	}
	r.flush(all...)
	r.deliver(all...)
	if got := e.view.Size(); got != len(members)+1 {
		t.Fatalf("%d members after the decision, want %d", got, len(members)+1)
	}
	if !e.fallbackAt.IsZero() {
		t.Fatal("the decision left the recovery deadline armed")
	}
	if got := tick(10 * base); len(got) != 0 {
		t.Fatalf("recovery round %v started for a decided instance", got)
	}
}

// TestJoinPhasesQueueFIFOBehindBatches: there is one way into the engine. A
// pre-join and a phase-2 request that arrive behind a backlog of batches are
// served in arrival order, after the backlog, and the notice that the
// phase-2 caller gave up — queued behind them — still drops the parked waiter.
//
// engine-entry: the test drains the queue on its own goroutine; no loop runs.
func TestJoinPhasesQueueFIFOBehindBatches(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0)
	e := r.start(seed, []node.Endpoint{seed})
	c := e.c
	c.started.Store(true)
	close(c.startedCh)
	configID := e.view.ConfigurationID()
	joiner := endpoint(1)

	const backlog = 16
	for i := 0; i < backlog; i++ {
		if _, err := c.HandleRequest(context.Background(), "peer:1", alertBatch(configID, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	queued := func(n int) {
		t.Helper()
		if !waitUntil(t, 5*time.Second, func() bool { return len(c.events) == n }) {
			t.Fatalf("%d events queued, want %d", len(c.events), n)
		}
	}
	preJoined := make(chan *remoting.Response, 1)
	go func() {
		resp, _ := c.HandleRequest(context.Background(), joiner.Addr, preJoinRequest(joiner.Addr, joiner.ID))
		preJoined <- resp
	}()
	queued(backlog + 1)
	ctx, giveUp := context.WithCancel(context.Background())
	joined := make(chan *remoting.Response, 1)
	go func() {
		resp, _ := c.HandleRequest(ctx, joiner.Addr, &remoting.Request{Join: &remoting.JoinRequest{
			Sender: joiner.Addr, JoinerID: joiner.ID, ConfigurationID: configID,
		}})
		joined <- resp
	}()
	queued(backlog + 2)
	giveUp()
	queued(backlog + 3)
	if resp := <-joined; resp.Join.Status != remoting.JoinViewChangeInProgress {
		t.Fatalf("abandoned phase-2 request answered %s", resp.Join.Status)
	}

	for i := 0; i < backlog; i++ {
		if ev := <-c.events; ev.req == nil {
			t.Fatalf("event %d jumped the backlog of batches: %+v", i, ev)
		} else {
			e.dispatch(ev)
		}
	}
	select {
	case resp := <-preJoined:
		t.Fatalf("pre-join answered %s before its turn", resp.PreJoin.Status)
	default:
	}
	ev := <-c.events
	if ev.preJoin == nil {
		t.Fatalf("want the pre-join next, got %+v", ev)
	}
	e.dispatch(ev)
	if resp := <-preJoined; resp.PreJoin.Status != remoting.JoinSafeToJoin || resp.PreJoin.ConfigurationID != configID {
		t.Fatalf("pre-join answered %s/%x", resp.PreJoin.Status, resp.PreJoin.ConfigurationID)
	}
	ev = <-c.events
	if ev.join == nil {
		t.Fatalf("want the phase-2 request next, got %+v", ev)
	}
	e.dispatch(ev)
	if len(e.joinWaiters) != 1 {
		t.Fatalf("%d joiners parked after the phase-2 request, want 1", len(e.joinWaiters))
	}
	ev = <-c.events
	if ev.joinGone == nil {
		t.Fatalf("want the give-up notice last, got %+v", ev)
	}
	e.dispatch(ev)
	if len(e.joinWaiters) != 0 {
		t.Fatal("a request whose caller gave up stayed parked")
	}
}
