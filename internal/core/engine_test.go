package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/view"
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
// hand, waking the engine at every deadline it holds: it is armed when this
// process votes, fires at exactly base + jitter, again at exactly every base
// while the instance stays undecided — each time with a higher rank, or the
// retry would send nothing — and is gone once the instance decides.
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

	// tick moves the clock on, waking the engine at every deadline on the way.
	tick := func(advance time.Duration) []remoting.Rank {
		r.wakeUntil(e, r.clk.Now().Add(advance))
		return r.p1aRanks(addr(0))
	}
	if got := tick(10 * base); len(got) != 0 {
		t.Fatalf("recovery round %v started before this process voted", got)
	}

	r.step(e.me.Addr, event{req: cut})
	if got := tick(delay - time.Nanosecond); len(got) != 0 {
		t.Fatalf("recovery round %v started before base + jitter", got)
	}
	for round := uint64(2); round <= 4; round++ {
		got := tick(time.Nanosecond)
		want := remoting.Rank{Round: round, NodeIndex: myIndex + 2}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("the deadline started rounds %v, want one of rank %v", got, want)
		}
		if got := tick(base - time.Nanosecond); len(got) != 0 {
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

// polls returns the ensemble nodes the outputs poll, in order.
func polls(outs ...outputs) []node.Addr {
	var to []node.Addr
	for _, out := range outs {
		for _, s := range out.sends {
			if s.req.GetView != nil {
				to = append(to, s.to...)
			}
		}
	}
	return to
}

// TestPollIsEngineOwned: a member of a cluster an ensemble manages polls it at
// exactly every poll interval from its install, and at no other time, with a
// one-way GetView the engine sends itself. It keeps polling the node that
// answered its last poll, moves to the next node after a poll that got no
// answer, and learns only from the node it polls: an answer from any other is
// ignored.
func TestPollIsEngineOwned(t *testing.T) {
	r := newEngineRig(t)
	r.ensemble = []node.Addr{"ensemble-0:1", "ensemble-1:1", "ensemble-2:1"}
	members := []node.Endpoint{endpoint(0), endpoint(1), endpoint(2), endpoint(3)}
	e, first := r.start(members[1], members)
	start, interval := r.clk.Now(), r.settings.pollInterval()
	if got := polls(first); len(got) != 0 {
		t.Fatalf("the member polled %v at its install", got)
	}
	// pollAt runs the member to the n-th poll after the install and returns
	// whom it polled there.
	pollAt := func(n time.Duration) node.Addr {
		t.Helper()
		if got := polls(r.wakeUntil(e, start.Add(n*interval-time.Nanosecond))...); len(got) != 0 {
			t.Fatalf("polled %v before the poll due %v after the install", got, n*interval)
		}
		got := polls(r.wakeUntil(e, start.Add(n*interval))...)
		if len(got) != 1 {
			t.Fatalf("%d polls at %v after the install, want one", len(got), n*interval)
		}
		return got[0]
	}
	answer := func(from node.Addr, members []node.Endpoint) {
		v := &remoting.GetViewResponse{Sender: from, ConfigurationID: view.NewWithMembers(r.settings.K, members).ConfigurationID(), Members: members}
		r.step(e.me.Addr, event{ctl: &control{learned: v}})
	}
	unchanged := func(from node.Addr) {
		r.step(e.me.Addr, event{ctl: &control{learned: &remoting.GetViewResponse{Sender: from, ConfigurationID: e.view.ConfigurationID(), Unchanged: true}}})
	}

	if got := pollAt(1); got != r.ensemble[0] {
		t.Fatalf("the first poll went to %s, want %s", got, r.ensemble[0])
	}
	unchanged(r.ensemble[0])
	if got := pollAt(2); got != r.ensemble[0] {
		t.Fatalf("after an answer the poll went to %s, want %s again", got, r.ensemble[0])
	}
	// No answer to that poll: the next goes to the next node, and an answer
	// from the node it no longer polls teaches it nothing.
	if got := pollAt(3); got != r.ensemble[1] {
		t.Fatalf("after an unanswered poll the poll went to %s, want %s", got, r.ensemble[1])
	}
	answer(r.ensemble[0], members[:3])
	if e.view.Size() != len(members) {
		t.Fatalf("the member learned a configuration of %d from a node it did not poll", e.view.Size())
	}
	answer(r.ensemble[1], members[:3])
	if e.view.Size() != 3 {
		t.Fatalf("the member holds %d members after the polled node's answer, want 3", e.view.Size())
	}
	// The install restarts the poll interval, with the node that answered.
	start = r.clk.Now()
	if got := pollAt(1); got != r.ensemble[1] {
		t.Fatalf("after the install the poll went to %s, want %s", got, r.ensemble[1])
	}
}

// TestJoinPhasesQueueFIFOBehindBatches: there is one way into the engine. A
// pre-join and a phase-2 request that arrive behind a backlog of batches are
// served in arrival order, after the backlog. The phase-2 request is only
// enqueued — its handler returns at once — and the engine answers it with a
// send.
func TestJoinPhasesQueueFIFOBehindBatches(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0)
	c, e := r.handle(seed, []node.Endpoint{seed})
	dispatch := func(ev event) outputs {
		out := e.step(ev, r.clk.Now())
		c.perform(out)
		return out
	}
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
	resp, err := c.HandleRequest(context.Background(), joiner.Addr, joinRequest(joiner, configID).req)
	if err != nil || resp == nil || !resp.Ack {
		t.Fatalf("the phase-2 request was answered %+v, %v; want an acknowledgement", resp, err)
	}
	queued(backlog + 2)

	for i := 0; i < backlog; i++ {
		if ev := <-c.events; ev.req == nil || ev.req.Alerts == nil {
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
	if ev.req == nil || ev.req.Join == nil {
		t.Fatalf("want the phase-2 request next, got %+v", ev)
	}
	dispatch(ev)
	if len(e.joinWaiters) != 1 {
		t.Fatalf("%d joiners parked after the phase-2 request, want 1", len(e.joinWaiters))
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

// driverTimer plays the driver's one timer for one engine by hand: fire moves
// the rig's clock to the flush deadline and wakes the engine there, running
// whatever else is due by then as well. Every step and wake is checked against
// the flush deadline last seen: the engine never moves a pending flush, with
// one exception — an install that shortens the window may bring a later flush
// in — and its next wake is never after its flush.
type driverTimer struct {
	t     *testing.T
	r     *engineRig
	e     *engine
	flush time.Time // the flush deadline last seen; zero while none is armed
}

// check holds one step's or wake's outputs to that rule; fired says the
// pending flush ran.
func (d *driverTimer) check(out outputs, fired bool) outputs {
	d.t.Helper()
	due := d.e.flushDue
	if !fired && !d.flush.IsZero() && !due.Equal(d.flush) && (out.publish == nil || !due.Before(d.flush)) {
		d.t.Fatalf("the flush due in %v moved to %v", d.flush.Sub(d.r.clk.Now()), due.Sub(d.r.clk.Now()))
	}
	if !due.IsZero() && out.wakeAt.After(due) {
		d.t.Fatalf("the next wake is %v after the flush", out.wakeAt.Sub(due))
	}
	d.flush = due
	return out
}

// step applies one event to the engine.
func (d *driverTimer) step(ev event) outputs {
	d.t.Helper()
	return d.check(d.r.step(d.e.me.Addr, ev), false)
}

// fire wakes the engine at its flush deadline.
func (d *driverTimer) fire() outputs {
	d.t.Helper()
	if d.flush.IsZero() {
		d.t.Fatal("a flush with none armed")
	}
	d.r.clk.Advance(d.flush.Sub(d.r.clk.Now()))
	return d.check(d.r.file(d.e.wake(d.r.clk.Now(), 0)), true)
}

// armed checks that the flush is want away, or that none is armed if want is
// zero.
func (d *driverTimer) armed(want time.Duration, when string) {
	d.t.Helper()
	var in time.Duration
	if !d.flush.IsZero() {
		in = d.flush.Sub(d.r.clk.Now())
	}
	if in != want || !d.e.flushDue.Equal(d.flush) {
		d.t.Fatalf("%s: the flush is %v away, the engine expects it at %v; want %v", when, in, d.e.flushDue, want)
	}
}

// settle runs quiet flushes until none is armed and returns how many ran.
func (d *driverTimer) settle() int {
	d.t.Helper()
	flushes := 0
	for !d.flush.IsZero() {
		if in, want := d.flush.Sub(d.r.clk.Now()), d.e.winCtl.window; in != want {
			d.t.Fatalf("the flush is %v away, the controller's window is %v", in, want)
		}
		d.fire()
		if flushes++; flushes > 64 {
			d.t.Fatal("a quiet engine never stopped flushing")
		}
	}
	return flushes
}

// growToCeiling bursts arrivals at the engine: arrivals alone arm a flush
// (the controller must see them), every busy window doubles the next, and the
// ceiling holds.
func (d *driverTimer) growToCeiling() {
	d.t.Helper()
	ceiling := d.r.settings.windowCeiling()
	for want := min(2*d.e.winCtl.window, ceiling); ; want = min(2*want, ceiling) {
		before := d.e.winCtl.window
		for i := 0; i < 2*growArrivals; i++ {
			d.step(event{req: alertBatch(d.e.view.ConfigurationID(), uint64(i))})
		}
		d.armed(before, "during a burst")
		if d.fire(); d.e.winCtl.window != want {
			d.t.Fatalf("a busy window was followed by one of %v, want %v", d.e.winCtl.window, want)
		}
		d.armed(want, "above the floor after a busy window")
		if want == ceiling {
			return
		}
	}
}

// TestFlushTimerIsArmedOnDemand plays the driver's timer by hand. A quiet
// engine holds no flush: it wakes for its probe rounds and at no other time,
// and a wake with nothing due changes nothing. An alert arms a flush exactly
// one floor window later and leaves on it, not before; unpushed votes arm one
// too; a burst of arrivals keeps flushes armed and grows the window, which
// then decays to the floor in as many flushes as the controller alone needs,
// and the flushes stop. The regression this guards is re-arming
// unconditionally.
func TestFlushTimerIsArmedOnDemand(t *testing.T) {
	r := newEngineRig(t)
	members := []node.Endpoint{endpoint(0), endpoint(1), endpoint(2), endpoint(3)}
	e, first := r.start(members[0], members)
	d := &driverTimer{t: t, r: r, e: e}
	floor, ceiling := r.settings.windowFloor(), r.settings.windowCeiling()

	// Born with a flush armed, at a quarter of the ceiling; quiet flushes
	// halve the window to the floor and then stop.
	d.check(first, false)
	d.armed(ceiling/4, "at birth")
	if want, got := decayTicks(e.winCtl), d.settle(); got != want {
		t.Fatalf("the first window decayed to the floor in %d flushes, the controller needs %d", got, want)
	}
	if e.winCtl.window != floor {
		t.Fatalf("window settled at %v, want the floor %v", e.winCtl.window, floor)
	}
	d.armed(0, "after the decay")
	if next := e.wakeAt(); !next.Equal(e.probeDue) {
		t.Fatalf("a quiet engine wakes %v from now, its probe round is due in %v", next.Sub(r.clk.Now()), e.probeDue.Sub(r.clk.Now()))
	}
	nothingDue := func(when string) {
		t.Helper()
		before := e.wakeAt()
		if out := d.check(r.file(e.wake(r.clk.Now(), 0)), false); len(out.sends) != 0 || len(out.probe) != 0 || !out.wakeAt.Equal(before) {
			t.Fatalf("%s: a wake with nothing due sent %v, probed %v and moved the next wake by %v", when, out.sends, out.probe, out.wakeAt.Sub(before))
		}
	}
	nothingDue("on a quiet engine")
	wakes := r.wakeUntil(e, r.clk.Now().Add(time.Minute))
	if want := int(time.Minute / r.settings.ProbeInterval); len(wakes) != want {
		t.Fatalf("a quiet engine woke %d times in a minute, want once per probe round, %d", len(wakes), want)
	}
	for _, out := range wakes {
		if len(out.sends) != 0 || len(out.probe) == 0 {
			t.Fatalf("a quiet engine's wake sent %v and probed %v, want a probe round alone", out.sends, out.probe)
		}
	}
	d.armed(0, "after a quiet minute")

	// The first alert — a subject's leave, which its observers report at
	// once — arms a flush one floor window later; its batch leaves on that
	// flush, not on the step that raised it.
	if out := d.step(event{req: &remoting.Request{Leave: &remoting.LeaveMessage{Sender: e.subjects[0]}}}); len(out.sends) != 0 {
		t.Fatalf("the batch left before its flush: %v", out.sends)
	}
	d.armed(floor, "with an alert pending")
	nothingDue("with a flush pending")
	out := d.fire()
	if len(out.sends) != 1 || !slices.Equal(out.sends[0].to, e.addrs) ||
		out.sends[0].req.Alerts == nil || len(out.sends[0].req.Alerts.Alerts) != 1 {
		t.Fatalf("the flush sent %+v, want the one batch for every member", out.sends)
	}
	d.armed(0, "after the batch left")
	clear(r.inbox)

	// A vote not pushed yet arms a flush, and the flush that pushes it is the
	// last.
	d.step(event{req: cutAlerts(e.view.ConfigurationID(), r.settings.K, endpoint(9))})
	if !e.votesDirty {
		t.Fatal("the cut did not make this member vote")
	}
	d.armed(floor, "with dirty votes")
	if out := d.fire(); len(out.sends) != 1 || out.sends[0].req.VoteBatch == nil || e.votesDirty {
		t.Fatalf("the flush after a vote sent %+v (still dirty: %v), want the one push", out.sends, e.votesDirty)
	}
	d.armed(0, "after the votes left")

	d.growToCeiling()
	if want, got := decayTicks(e.winCtl), d.settle(); got != want || e.winCtl.window != floor {
		t.Fatalf("after the burst the window reached %v in %d flushes; the controller reaches the floor in %d", e.winCtl.window, got, want)
	}
	d.armed(0, "after the burst decayed")
}

// TestInstallRestartsTheFlushWindow: the flush window belongs to the
// configuration. A lone seed whose window a burst grew to the ceiling decides
// a one-member cut on its own vote; with no parked joiner sent back to phase
// 1, the new configuration starts at the floor — the pending flush is brought
// in to one floor window, the flushes then stop, and the next JOIN alert
// leaves exactly one floor window after it was raised. An install that
// redirects a parked joiner keeps the window a join storm grew, and a newborn
// engine still starts at a quarter of the ceiling.
func TestInstallRestartsTheFlushWindow(t *testing.T) {
	s := DefaultSettings()
	floor, ceiling := s.windowFloor(), s.windowCeiling()
	// grown starts a lone seed and grows its window to the ceiling.
	grown := func(t *testing.T) (*engineRig, *driverTimer) {
		r := newEngineRig(t)
		seed := endpoint(0)
		e, first := r.start(seed, []node.Endpoint{seed})
		d := &driverTimer{t: t, r: r, e: e}
		d.check(first, false)
		d.growToCeiling()
		return r, d
	}
	// decide makes the seed vote for admitting endpoint(9), a quorum on its own.
	decide := func(d *driverTimer) outputs {
		d.t.Helper()
		out := d.step(event{req: cutAlerts(d.e.view.ConfigurationID(), d.r.settings.K, endpoint(9))})
		if out.publish == nil || d.e.view.Size() != 2 {
			d.t.Fatalf("the seed's vote decided nothing: %d members", d.e.view.Size())
		}
		return out
	}
	// park hands the seed a phase-2 request from joiner in its configuration.
	park := func(d *driverTimer, joiner node.Endpoint) node.Endpoint {
		d.step(joinRequest(joiner, d.e.view.ConfigurationID()))
		return joiner
	}

	t.Run("install without a redirect", func(t *testing.T) {
		r, d := grown(t)
		decide(d)
		if got := d.e.winCtl.window; got != floor {
			t.Fatalf("the new configuration's window is %v, want the floor %v", got, floor)
		}
		if got := d.e.metrics.BatchWindow.Value(); time.Duration(got) != floor {
			t.Fatalf("the BatchWindow gauge reads %v, want the floor %v", time.Duration(got), floor)
		}
		d.armed(floor, "after the install")
		if out := d.fire(); len(out.sends) != 0 {
			t.Fatalf("the first flush of a quiet configuration sent %+v", out.sends)
		}
		d.armed(0, "after the install's flush")

		joiner := endpoint(10)
		raised := r.clk.Now()
		park(d, joiner)
		if len(d.e.pendingAlerts) != 1 {
			t.Fatalf("%d alerts pending after a phase-2 request, want the JOIN alert", len(d.e.pendingAlerts))
		}
		d.armed(floor, "with a JOIN alert pending")
		out := d.fire()
		if len(out.sends) != 1 || out.sends[0].req.Alerts == nil || out.sends[0].req.Alerts.Alerts[0].EdgeDst != joiner.Addr {
			t.Fatalf("the flush sent %+v, want the JOIN alert", out.sends)
		}
		if waited := r.clk.Now().Sub(raised); waited != floor {
			t.Fatalf("the JOIN alert left %v after it was raised, want one floor window, %v", waited, floor)
		}
	})

	t.Run("install that redirects a parked joiner", func(t *testing.T) {
		r, d := grown(t)
		before := d.flush.Sub(r.clk.Now())
		straggler := park(d, endpoint(11))
		decide(d)
		if resp := r.answer(straggler); resp.Status != remoting.JoinConfigChanged {
			t.Fatalf("the parked joiner got %s, want CONFIG_CHANGED", resp.Status)
		}
		if got := d.e.winCtl.window; got != ceiling {
			t.Fatalf("the window is %v after an install that redirected a joiner, want the ceiling %v", got, ceiling)
		}
		d.armed(before, "after the install")
	})

	// The batches of the configuration being left must not size the new
	// one's window: a flush that comes due at the very instant of an install
	// — the driver took the deciding event off its queue before the timer
	// that fired with it — runs in the new configuration, at the floor.
	t.Run("flush due at the instant of an install", func(t *testing.T) {
		r, d := grown(t)
		for i := 0; i < 2*growArrivals; i++ {
			d.step(event{req: alertBatch(d.e.view.ConfigurationID(), uint64(i))})
		}
		r.clk.Advance(d.flush.Sub(r.clk.Now()))
		decide(d)
		d.fire()
		if got := d.e.winCtl.window; got != floor {
			t.Fatalf("the flush due at the install left the window at %v, want the floor %v", got, floor)
		}
	})

	t.Run("newborn engine", func(t *testing.T) {
		r := newEngineRig(t)
		members := []node.Endpoint{endpoint(0), endpoint(1), endpoint(2)}
		e, first := r.start(members[1], members)
		d := &driverTimer{t: t, r: r, e: e}
		d.check(first, false)
		if e.winCtl.window != ceiling/4 {
			t.Fatalf("a newborn engine's window is %v, want a quarter of the ceiling, %v", e.winCtl.window, ceiling/4)
		}
		d.armed(ceiling/4, "at birth")
	})
}

// TestConfigurationSlicesAreShared: everything a configuration hands out is
// one sorted membership built once by install — the snapshot, the view-change
// notification, the answer to an admitted joiner, the answer to a joiner that
// is a member already and the targets of a broadcast share a backing array —
// and IsMember and Metadata, which used to read a per-install map, answer
// from that slice.
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

	admitted := r.answer(parked)
	late := r.answer(r.park(seed.Addr, joiner, s.view.ConfigurationID())) // a retry that finds the joiner a member already
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
