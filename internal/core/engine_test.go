package core

import (
	"context"
	"slices"
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

// turn is one trip around the engine loop without the loop: the flush tick,
// if the clock has made it due, then the arming rule. It reports whether the
// tick ran.
//
// engine-entry: the rig applies events on the test goroutine; no loop runs.
func (r *engineRig) turn(e *engine) bool {
	flushed := false
	select {
	case <-e.flush.C():
		e.flushTick()
		flushed = true
	default:
	}
	e.armFlush()
	return flushed
}

// decayTicks is how many quiet flush ticks take a window to its floor, by the
// controller's own rule — the number the always-armed loop needed as well.
func decayTicks(w windowController) int {
	ticks := 0
	for ; w.window > w.floor; ticks++ {
		w.retune(0, eventQueueSize, 0)
	}
	return ticks
}

// TestFlushTimerIsArmedOnDemand drives the arming rule by hand. A quiet
// engine holds no flush waiter on the clock; an alert arms it and leaves
// exactly one floor window later; unpushed votes and rumors arm it too; a
// burst of arrivals keeps it armed and grows the window, which then decays to
// the floor in as many ticks as the controller alone needs, and stops. The
// regression this guards is re-arming unconditionally.
//
// engine-entry: the rig applies events on the test goroutine; no loop runs.
func TestFlushTimerIsArmedOnDemand(t *testing.T) {
	r := newEngineRig(t)
	members := []node.Endpoint{endpoint(0), endpoint(1), endpoint(2), endpoint(3)}
	e := r.start(members[0], members)
	floor, ceiling := r.settings.BatchingWindowMin, r.settings.BatchingWindowMax
	armed := func(want bool, when string) {
		t.Helper()
		n := 0
		if want {
			n = 1
		}
		if got := r.clk.PendingWaiters(); got != n || e.flushArmed != want {
			t.Fatalf("%s: %d clock waiters, flushArmed=%v; want %d, %v", when, got, e.flushArmed, n, want)
		}
	}
	// settle runs quiet ticks until the timer stops and returns how many ran.
	settle := func() int {
		t.Helper()
		ticks := 0
		for e.flushArmed {
			r.clk.Advance(e.winCtl.window)
			if !r.turn(e) {
				t.Fatalf("no flush tick one window (%v) after arming", e.winCtl.window)
			}
			if ticks++; ticks > 64 {
				t.Fatal("the flush timer never stopped on a quiet engine")
			}
		}
		return ticks
	}

	// Born armed, at a quarter of the ceiling; quiet ticks halve the window
	// to the floor and then the timer stops.
	armed(true, "at birth")
	if want, got := decayTicks(e.winCtl), settle(); got != want {
		t.Fatalf("the first window decayed to the floor in %d ticks, the controller needs %d", got, want)
	}
	if e.winCtl.window != floor {
		t.Fatalf("window settled at %v, want the floor %v", e.winCtl.window, floor)
	}
	armed(false, "after the decay")
	r.clk.Advance(time.Minute)
	if r.turn(e) {
		t.Fatal("a flush tick ran on an engine that had gone quiet")
	}
	armed(false, "after a quiet minute")
	clear(r.inbox)

	// The first alert arms the timer; its batch leaves one floor window later,
	// not a nanosecond before.
	e.handleSubjectFailed(e.subjects[0])
	r.turn(e)
	armed(true, "with an alert pending")
	r.clk.Advance(floor - time.Nanosecond)
	if r.turn(e) || len(r.inbox) != 0 {
		t.Fatal("the batch left before a floor window had passed")
	}
	r.clk.Advance(time.Nanosecond)
	if !r.turn(e) {
		t.Fatal("no flush tick one floor window after the alert")
	}
	for _, m := range members {
		if got := r.inbox[m.Addr]; len(got) != 1 || got[0].Alerts == nil || len(got[0].Alerts.Alerts) != 1 {
			t.Fatalf("%s received %d requests one floor window after the alert, want the one batch", m.Addr, len(got))
		}
	}
	armed(false, "after the batch left")
	clear(r.inbox)

	// Votes not pushed yet arm it, and the tick that pushes them stops it.
	e.votesDirty = true
	r.turn(e)
	armed(true, "with dirty votes")
	if got := settle(); got != 1 || e.votesDirty {
		t.Fatalf("dirty votes took %d ticks to push (still dirty: %v), want 1", got, e.votesDirty)
	}
	// A rumor keeps it armed for as long as it has gossip rounds left.
	e.addRumor(alertBatch(e.view.ConfigurationID(), 1))
	r.turn(e)
	armed(true, "with a rumor")
	if got := settle(); got != gossipRounds-1 || len(e.rumors) != 0 {
		t.Fatalf("a rumor kept the timer armed for %d ticks, want its %d remaining rounds", got, gossipRounds-1)
	}
	armed(false, "after the rumor's last round")

	// A burst: arrivals alone arm the timer (the controller must see them),
	// every busy window doubles the next, and the ceiling holds.
	burst := func() {
		for i := 0; i < 2*growArrivals; i++ {
			e.dispatchRequest(alertBatch(e.view.ConfigurationID(), uint64(i)), true)
		}
	}
	for want := 2 * floor; ; want = min(2*want, ceiling) {
		burst()
		r.turn(e)
		armed(true, "during a burst")
		r.clk.Advance(e.winCtl.window)
		if !r.turn(e) || e.winCtl.window != want {
			t.Fatalf("a busy window was followed by one of %v, want %v", e.winCtl.window, want)
		}
		if want == ceiling {
			break
		}
	}
	armed(true, "above the floor after the burst")
	if want, got := decayTicks(e.winCtl), settle(); got != want || e.winCtl.window != floor {
		t.Fatalf("after the burst the window reached %v in %d ticks; the controller reaches the floor in %d", e.winCtl.window, got, want)
	}
	armed(false, "after the burst decayed")
}

// TestConfigurationSlicesAreShared: everything a configuration hands out is
// one sorted membership built once by install — the snapshot, the view-change
// notification, the answer to an admitted joiner and the answer to a joiner
// that is a member already share a backing array — and IsMember and Metadata,
// which used to read a per-install map, answer from that slice.
//
// engine-entry: the rig applies events on the test goroutine; no loop runs.
func TestConfigurationSlicesAreShared(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0).WithMetadata(map[string]string{"role": "seed"})
	s := r.start(seed, []node.Endpoint{seed})
	c := s.c
	joiner := endpoint(1).WithMetadata(map[string]string{"role": "joiner"})
	park := func(j node.Endpoint) *joinEvent {
		ev := &joinEvent{
			msg:   &remoting.JoinRequest{Sender: j.Addr, JoinerID: j.ID, ConfigurationID: s.view.ConfigurationID(), Metadata: j.Metadata},
			reply: make(chan *remoting.JoinResponse, 1),
		}
		s.handleJoinPhase2(ev)
		return ev
	}
	parked := park(joiner)
	r.flush(seed.Addr)
	r.deliver(seed.Addr) // a lone seed's vote is a quorum: the cut is decided here

	admitted := answer(t, parked)
	late := answer(t, park(joiner)) // a retry that finds the joiner a member already
	if len(c.notifier.queue) != 1 {
		t.Fatalf("%d view changes queued for subscribers, want 1", len(c.notifier.queue))
	}
	vc := c.notifier.queue[0]
	snap := c.snap.Load()
	for name, members := range map[string][]node.Endpoint{
		"the snapshot":                   snap.members,
		"ViewChange.Members":             vc.Members,
		"the admitted joiner's response": admitted.Members,
		"the late request's response":    late.Members,
	} {
		if len(members) != 2 || &members[0] != &s.members[0] {
			t.Errorf("%s does not share the engine's membership slice", name)
		}
	}
	if &c.Members()[0] == &s.members[0] {
		t.Error("Cluster.Members() handed out the shared slice; the public accessor must copy")
	}
	if got := c.unicast.Members(); !slices.Equal(got, s.addrs) {
		t.Errorf("broadcast recipients %v, want %v", got, s.addrs)
	}

	if !c.IsMember() {
		t.Error("the seed does not see itself as a member")
	}
	for _, ep := range []node.Endpoint{seed, joiner} {
		if md, ok := c.Metadata(ep.Addr); !ok || md["role"] != ep.Metadata["role"] {
			t.Errorf("Metadata(%s) = %v, %v", ep.Addr, md, ok)
		}
	}
	if md, ok := c.Metadata("stranger:1"); ok || md != nil {
		t.Errorf("Metadata of a stranger = %v, %v", md, ok)
	}

	// The joiner's own handle removes the seed: the seed's handle then says so.
	s.applyDecision([]node.Endpoint{seed})
	if c.IsMember() {
		t.Error("IsMember() still true after this process was removed")
	}
	if _, ok := c.Metadata(seed.Addr); ok {
		t.Error("Metadata still answers for a removed member")
	}
	if md, ok := c.Metadata(joiner.Addr); !ok || md["role"] != "joiner" {
		t.Errorf("Metadata(%s) = %v, %v after an unrelated removal", joiner.Addr, md, ok)
	}
	if len(snap.members) != 2 || snap.members[0].Addr != seed.Addr {
		t.Error("installing the next configuration wrote to the previous one's slice")
	}
}
