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
// engine-entry: the rig applies events on the test goroutine; no driver runs.
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
	cut := cutAlerts(e.view.ConfigurationID(), r.settings.K, endpoint(9))

	// tick moves the clock and runs one reinforcement tick.
	tick := func(advance time.Duration) []remoting.Rank {
		r.clk.Advance(advance)
		r.step(e.me.Addr, reinforceEvent)
		return r.p1aRanks(addr(0))
	}
	if got := tick(10 * base); len(got) != 0 {
		t.Fatalf("recovery round %v started before this process voted", got)
	}

	r.step(e.me.Addr, event{req: cut})
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
		r.step(m, event{req: cut})
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
// engine-entry: the test drains the queue on its own goroutine; no driver runs.
func TestJoinPhasesQueueFIFOBehindBatches(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0)
	c, e := r.handle(seed, []node.Endpoint{seed})
	dispatch := func(ev event) { c.perform(e.step(ev, r.clk.Now())) }
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
			dispatch(ev)
		}
	}
	select {
	case resp := <-preJoined:
		t.Fatalf("pre-join answered %s before its turn", resp.PreJoin.Status)
	default:
	}
	ev := <-c.events
	if ev.ctl == nil || ev.ctl.preJoin == nil {
		t.Fatalf("want the pre-join next, got %+v", ev)
	}
	dispatch(ev)
	if resp := <-preJoined; resp.PreJoin.Status != remoting.JoinSafeToJoin || resp.PreJoin.ConfigurationID != configID {
		t.Fatalf("pre-join answered %s/%x", resp.PreJoin.Status, resp.PreJoin.ConfigurationID)
	}
	ev = <-c.events
	if ev.ctl == nil || ev.ctl.join == nil {
		t.Fatalf("want the phase-2 request next, got %+v", ev)
	}
	dispatch(ev)
	if len(e.joinWaiters) != 1 {
		t.Fatalf("%d joiners parked after the phase-2 request, want 1", len(e.joinWaiters))
	}
	ev = <-c.events
	if ev.ctl == nil || ev.ctl.joinGone == nil {
		t.Fatalf("want the give-up notice last, got %+v", ev)
	}
	dispatch(ev)
	if len(e.joinWaiters) != 0 {
		t.Fatal("a request whose caller gave up stayed parked")
	}
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

// flushTimer plays the driver's flush timer for one engine by hand: a step's
// flushIn arms it, and fire moves the rig's clock to the tick's due time and
// runs the tick. An engine never arms a timer that is running, with one
// exception: an install that shortens the window may bring a tick due later
// in.
type flushTimer struct {
	t   *testing.T
	r   *engineRig
	e   *engine
	due time.Time // zero while the timer is stopped
}

func (f *flushTimer) arm(out outputs) outputs {
	f.t.Helper()
	if out.flushIn > 0 {
		at := f.r.clk.Now().Add(out.flushIn)
		if !f.due.IsZero() && (out.publish == nil || !at.Before(f.due)) {
			f.t.Fatalf("flushIn %v while a tick was already %v away", out.flushIn, f.due.Sub(f.r.clk.Now()))
		}
		f.due = at
	}
	return out
}

// step applies one event to the engine and arms the timer as it asks.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func (f *flushTimer) step(ev event) outputs {
	f.t.Helper()
	return f.arm(f.r.step(f.e.me.Addr, ev))
}

// fire runs the tick at its due time.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func (f *flushTimer) fire() outputs {
	f.t.Helper()
	if f.due.IsZero() {
		f.t.Fatal("tick on a stopped timer")
	}
	f.r.clk.Advance(f.due.Sub(f.r.clk.Now()))
	f.due = time.Time{}
	return f.arm(f.r.file(f.e.tick(f.r.clk.Now(), 0)))
}

// armed checks that the tick is want away, or that the timer is stopped if
// want is zero, and that the engine agrees.
func (f *flushTimer) armed(want time.Duration, when string) {
	f.t.Helper()
	var in time.Duration
	if !f.due.IsZero() {
		in = f.due.Sub(f.r.clk.Now())
	}
	if in != want || !f.e.flushDue.Equal(f.due) {
		f.t.Fatalf("%s: the tick is %v away, the engine expects it at %v; want %v", when, in, f.e.flushDue, want)
	}
}

// settle runs quiet ticks until the timer stops and returns how many ran.
func (f *flushTimer) settle() int {
	f.t.Helper()
	ticks := 0
	for !f.due.IsZero() {
		if in, want := f.due.Sub(f.r.clk.Now()), f.e.winCtl.window; in != want {
			f.t.Fatalf("the tick is %v away, the controller's window is %v", in, want)
		}
		f.fire()
		if ticks++; ticks > 64 {
			f.t.Fatal("the flush timer never stopped on a quiet engine")
		}
	}
	return ticks
}

// growToCeiling bursts arrivals at the engine: arrivals alone arm the timer
// (the controller must see them), every busy window doubles the next, and the
// ceiling holds.
func (f *flushTimer) growToCeiling() {
	f.t.Helper()
	ceiling := f.r.settings.windowCeiling()
	for want := min(2*f.e.winCtl.window, ceiling); ; want = min(2*want, ceiling) {
		before := f.e.winCtl.window
		for i := 0; i < 2*growArrivals; i++ {
			f.step(event{req: alertBatch(f.e.view.ConfigurationID(), uint64(i))})
		}
		f.armed(before, "during a burst")
		if f.fire(); f.e.winCtl.window != want {
			f.t.Fatalf("a busy window was followed by one of %v, want %v", f.e.winCtl.window, want)
		}
		f.armed(want, "above the floor after a busy window")
		if want == ceiling {
			return
		}
	}
}

// TestFlushTimerIsArmedOnDemand plays the driver's flush timer by hand. A
// quiet engine asks for no tick; an alert asks for one exactly one floor
// window later and leaves on it, not before; unpushed votes ask for one too;
// a burst of arrivals keeps the timer armed and grows the window, which then
// decays to the floor in as many ticks as the controller alone needs, and
// stops. The regression this guards is re-arming unconditionally.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func TestFlushTimerIsArmedOnDemand(t *testing.T) {
	r := newEngineRig(t)
	members := []node.Endpoint{endpoint(0), endpoint(1), endpoint(2), endpoint(3)}
	e, first := r.start(members[0], members)
	f := &flushTimer{t: t, r: r, e: e}
	floor, ceiling := r.settings.windowFloor(), r.settings.windowCeiling()

	// Born armed, at a quarter of the ceiling; quiet ticks halve the window
	// to the floor and then the timer stops.
	f.arm(first)
	f.armed(ceiling/4, "at birth")
	if want, got := decayTicks(e.winCtl), f.settle(); got != want {
		t.Fatalf("the first window decayed to the floor in %d ticks, the controller needs %d", got, want)
	}
	if e.winCtl.window != floor {
		t.Fatalf("window settled at %v, want the floor %v", e.winCtl.window, floor)
	}
	f.armed(0, "after the decay")
	r.clk.Advance(time.Minute)
	if out := f.step(reinforceEvent); len(out.sends) != 0 {
		t.Fatalf("a quiet engine's reinforcement tick sent %v", out.sends)
	}
	f.armed(0, "after a quiet minute")

	// The first alert — a subject's leave, which its observers report at
	// once — arms the timer for one floor window; its batch leaves on that
	// tick, not on the step that raised it.
	if out := f.step(event{req: &remoting.Request{Leave: &remoting.LeaveMessage{Sender: e.subjects[0]}}}); len(out.sends) != 0 {
		t.Fatalf("the batch left before its flush tick: %v", out.sends)
	}
	f.armed(floor, "with an alert pending")
	out := f.fire()
	if len(out.sends) != 1 || !slices.Equal(out.sends[0].to, e.addrs) ||
		out.sends[0].req.Alerts == nil || len(out.sends[0].req.Alerts.Alerts) != 1 {
		t.Fatalf("the flush tick sent %+v, want the one batch for every member", out.sends)
	}
	f.armed(0, "after the batch left")
	clear(r.inbox)

	// A vote not pushed yet arms it, and the tick that pushes it stops it.
	f.step(event{req: cutAlerts(e.view.ConfigurationID(), r.settings.K, endpoint(9))})
	if !e.votesDirty {
		t.Fatal("the cut did not make this member vote")
	}
	f.armed(floor, "with dirty votes")
	if out := f.fire(); len(out.sends) != 1 || out.sends[0].req.VoteBatch == nil || e.votesDirty {
		t.Fatalf("the tick after a vote sent %+v (still dirty: %v), want the one push", out.sends, e.votesDirty)
	}
	f.armed(0, "after the votes left")

	f.growToCeiling()
	if want, got := decayTicks(e.winCtl), f.settle(); got != want || e.winCtl.window != floor {
		t.Fatalf("after the burst the window reached %v in %d ticks; the controller reaches the floor in %d", e.winCtl.window, got, want)
	}
	f.armed(0, "after the burst decayed")
}

// TestInstallRestartsTheFlushWindow: the flush window belongs to the
// configuration. A lone seed whose window a burst grew to the ceiling decides
// a one-member cut on its own vote; with no parked joiner sent back to phase
// 1, the new configuration starts at the floor — the running tick is brought
// in to one floor window, the timer then stops, and the next JOIN alert leaves
// exactly one floor window after it was raised. An install that redirects a
// parked joiner keeps the window a join storm grew, and a newborn engine still
// starts at a quarter of the ceiling.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func TestInstallRestartsTheFlushWindow(t *testing.T) {
	s := DefaultSettings()
	floor, ceiling := s.windowFloor(), s.windowCeiling()
	// grown starts a lone seed and grows its window to the ceiling.
	grown := func(t *testing.T) (*engineRig, *flushTimer) {
		r := newEngineRig(t)
		seed := endpoint(0)
		e, first := r.start(seed, []node.Endpoint{seed})
		f := &flushTimer{t: t, r: r, e: e}
		f.arm(first)
		f.growToCeiling()
		return r, f
	}
	// decide makes the seed vote for admitting endpoint(9), a quorum on its own.
	decide := func(f *flushTimer) outputs {
		f.t.Helper()
		out := f.step(event{req: cutAlerts(f.e.view.ConfigurationID(), f.r.settings.K, endpoint(9))})
		if out.publish == nil || f.e.view.Size() != 2 {
			f.t.Fatalf("the seed's vote decided nothing: %d members", f.e.view.Size())
		}
		return out
	}
	// park hands the seed a phase-2 request from joiner in its configuration.
	park := func(f *flushTimer, joiner node.Endpoint) *joinEvent {
		ev := &joinEvent{
			msg:   &remoting.JoinRequest{Sender: joiner.Addr, JoinerID: joiner.ID, ConfigurationID: f.e.view.ConfigurationID()},
			reply: make(chan *remoting.Response, 1),
		}
		f.step(event{ctl: &control{join: ev}})
		return ev
	}

	t.Run("install without a redirect", func(t *testing.T) {
		r, f := grown(t)
		decide(f)
		if got := f.e.winCtl.window; got != floor {
			t.Fatalf("the new configuration's window is %v, want the floor %v", got, floor)
		}
		if got := f.e.metrics.BatchWindow.Value(); time.Duration(got) != floor {
			t.Fatalf("the BatchWindow gauge reads %v, want the floor %v", time.Duration(got), floor)
		}
		f.armed(floor, "after the install")
		if out := f.fire(); len(out.sends) != 0 {
			t.Fatalf("the first tick of a quiet configuration sent %+v", out.sends)
		}
		f.armed(0, "after the install's tick")

		joiner := endpoint(10)
		raised := r.clk.Now()
		park(f, joiner)
		if len(f.e.pendingAlerts) != 1 {
			t.Fatalf("%d alerts pending after a phase-2 request, want the JOIN alert", len(f.e.pendingAlerts))
		}
		f.armed(floor, "with a JOIN alert pending")
		out := f.fire()
		if len(out.sends) != 1 || out.sends[0].req.Alerts == nil || out.sends[0].req.Alerts.Alerts[0].EdgeDst != joiner.Addr {
			t.Fatalf("the flush tick sent %+v, want the JOIN alert", out.sends)
		}
		if waited := r.clk.Now().Sub(raised); waited != floor {
			t.Fatalf("the JOIN alert left %v after it was raised, want one floor window, %v", waited, floor)
		}
	})

	t.Run("install that redirects a parked joiner", func(t *testing.T) {
		r, f := grown(t)
		before := f.due.Sub(r.clk.Now())
		straggler := park(f, endpoint(11))
		if out := decide(f); out.flushIn != 0 {
			t.Fatalf("the install re-armed the flush timer with %v", out.flushIn)
		}
		if resp := answer(t, straggler); resp.Status != remoting.JoinConfigChanged {
			t.Fatalf("the parked joiner got %s, want CONFIG_CHANGED", resp.Status)
		}
		if got := f.e.winCtl.window; got != ceiling {
			t.Fatalf("the window is %v after an install that redirected a joiner, want the ceiling %v", got, ceiling)
		}
		f.armed(before, "after the install")
	})

	t.Run("newborn engine", func(t *testing.T) {
		r := newEngineRig(t)
		members := []node.Endpoint{endpoint(0), endpoint(1), endpoint(2)}
		e, first := r.start(members[1], members)
		f := &flushTimer{t: t, r: r, e: e}
		f.arm(first)
		if e.winCtl.window != ceiling/4 {
			t.Fatalf("a newborn engine's window is %v, want a quarter of the ceiling, %v", e.winCtl.window, ceiling/4)
		}
		f.armed(ceiling/4, "at birth")
	})
}

// TestConfigurationSlicesAreShared: everything a configuration hands out is
// one sorted membership built once by install — the snapshot, the view-change
// notification, the answer to an admitted joiner, the answer to a joiner that
// is a member already and the targets of a broadcast share a backing array —
// and IsMember and Metadata, which used to read a per-install map, answer
// from that slice.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func TestConfigurationSlicesAreShared(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0).WithMetadata(map[string]string{"role": "seed"})
	c, s := r.handle(seed, []node.Endpoint{seed})
	joiner := endpoint(1).WithMetadata(map[string]string{"role": "joiner"})
	parked := r.park(seed.Addr, joiner, s.view.ConfigurationID())
	r.flush(seed.Addr)
	// A lone seed's vote is a quorum: the cut is decided on this step.
	decided := r.step(seed.Addr, event{req: r.inbox[seed.Addr][0]})
	c.perform(outputs{publish: decided.publish})

	admitted := answer(t, parked)
	late := answer(t, r.park(seed.Addr, joiner, s.view.ConfigurationID())) // a retry that finds the joiner a member already
	if decided.publish == nil || decided.change == nil {
		t.Fatal("the deciding step published no view change")
	}
	snap := c.snap.Load()
	for name, members := range map[string][]node.Endpoint{
		"the snapshot":                   snap.members,
		"ViewChange.Members":             decided.change.Members,
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
	if out := r.step(seed.Addr, leaveEvent); len(out.sends) != 1 || len(out.sends[0].to) != 2 || &out.sends[0].to[0] != &s.addrs[0] {
		t.Errorf("broadcast recipients %+v, want the engine's address slice %v", out.sends, s.addrs)
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
	removed := r.step(seed.Addr, event{req: &remoting.Request{VoteBatch: &remoting.FastRoundVoteBatch{Sender: joiner.Addr, Votes: []remoting.FastRoundPhase2b{
		{Sender: joiner.Addr, ConfigurationID: s.view.ConfigurationID(), Proposal: []node.Endpoint{seed}, Voters: []byte{0b11}},
	}}}})
	c.perform(outputs{publish: removed.publish})
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
