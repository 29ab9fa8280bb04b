package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/view"
)

// --- engine rig ----------------------------------------------------------------

// engineRig drives engines by hand on the test goroutine: no driver runs, so
// every interleaving below is exactly the one written down. The rig performs
// an engine's outputs the way the driver would, minus the world: sends land
// in per-member inboxes and move only when the test says so — a joiner's
// phase-2 answers in the joiner's — a phase-1 reply goes to the channel that
// waits for it, and the time is whatever the manual clock says.
type engineRig struct {
	t        *testing.T
	clk      *simclock.Manual
	settings Settings
	engines  map[node.Addr]*engine
	inbox    map[node.Addr][]*remoting.Request
	// ensemble is the electorate of the engines start builds; nil: their
	// membership.
	ensemble []node.Addr
}

func newEngineRig(t *testing.T) *engineRig {
	s := DefaultSettings()
	clk := simclock.NewManual(time.Unix(0, 0))
	s.Clock = clk
	return &engineRig{t: t, clk: clk, settings: s, engines: map[node.Addr]*engine{}, inbox: map[node.Addr][]*remoting.Request{}}
}

// start builds a member's engine and returns it with its first outputs.
func (r *engineRig) start(me node.Endpoint, members []node.Endpoint) (*engine, outputs) {
	e, first := newEngine(me, &r.settings, &EngineMetrics{}, members, r.ensemble, r.clk.Now())
	r.engines[me.Addr] = e
	return e, first
}

// handle builds a member as start does, inside a Cluster handle that has no
// driver: the test takes events off its queue and performs outputs on it.
func (r *engineRig) handle(me node.Endpoint, members []node.Endpoint) (*Cluster, *engine) {
	c, err := newCluster(me.Addr, r.settings, &scriptedNet{})
	if err != nil {
		r.t.Fatal(err)
	}
	c.me = me
	e, first := newEngine(me, &c.settings, &c.emetrics, members, nil, r.clk.Now())
	c.perform(first)
	c.started.Store(true)
	r.engines[me.Addr] = e
	return c, e
}

// file puts one step's sends into the recipients' inboxes and its phase-1
// reply into the channel that waits for it, and hands the outputs back.
func (r *engineRig) file(out outputs) outputs {
	for _, s := range out.sends {
		for _, to := range s.to {
			r.inbox[to] = append(r.inbox[to], s.req)
		}
	}
	if out.reply.to != nil {
		out.reply.to <- out.reply.resp
	}
	return out
}

// step applies one event to a member at the rig's time and files the outputs.
func (r *engineRig) step(m node.Addr, ev event) outputs {
	return r.file(r.engines[m].step(ev, r.clk.Now()))
}

// preJoin hands one phase-1 request to a seed's engine and returns its answer.
func (r *engineRig) preJoin(seed node.Addr, joiner node.Endpoint) *remoting.PreJoinResponse {
	ev := &preJoinEvent{
		msg:   &remoting.PreJoinRequest{Sender: joiner.Addr, JoinerID: joiner.ID},
		reply: make(chan *remoting.Response, 1),
	}
	r.step(seed, event{ctl: &control{preJoin: ev}})
	return (<-ev.reply).PreJoin
}

// park hands one phase-2 request to an observer's engine and returns the
// joiner, whose answers its inbox collects.
func (r *engineRig) park(observer node.Addr, joiner node.Endpoint, configID uint64) node.Endpoint {
	r.step(observer, joinRequest(joiner, configID))
	return joiner
}

// joinRequest is joiner's phase-2 request naming the given configuration.
func joinRequest(joiner node.Endpoint, configID uint64) event {
	return event{req: &remoting.Request{Join: &remoting.JoinRequest{Sender: joiner.Addr, JoinerID: joiner.ID, ConfigurationID: configID, Metadata: joiner.Metadata}}}
}

// flush runs every listed member's flush at the rig's time, as a wake at its
// flush deadline would, whether or not its window has ended: its pending batch
// and vote push go into the inboxes.
func (r *engineRig) flush(members ...node.Addr) {
	for _, m := range members {
		e := r.engines[m]
		e.now = r.clk.Now()
		e.flush(0)
		r.file(e.finish())
	}
}

// wakeUntil plays the driver's one timer against a stepped engine up to the
// given time: the rig's clock moves to each deadline the engine holds on the
// way and the engine wakes there, with nothing queued. It files the outputs of
// every wake, returns them in order, and leaves the clock at until.
func (r *engineRig) wakeUntil(e *engine, until time.Time) []outputs {
	var outs []outputs
	for at := e.wakeAt(); !at.IsZero() && !at.After(until); at = e.wakeAt() {
		r.clk.Advance(max(0, at.Sub(r.clk.Now())))
		outs = append(outs, r.file(e.wake(r.clk.Now(), 0)))
	}
	r.clk.Advance(max(0, until.Sub(r.clk.Now())))
	return outs
}

// deliver applies everything queued for the listed members.
func (r *engineRig) deliver(members ...node.Addr) {
	for _, m := range members {
		reqs := r.inbox[m]
		r.inbox[m] = nil
		if r.engines[m] != nil {
			for _, req := range reqs {
				r.step(m, event{req: req})
			}
		}
	}
}

// idle reports that the member's cut detector tracks no subject between the
// watermarks and that nothing is waiting in its outbox.
func (r *engineRig) idle(m node.Addr) bool {
	e := r.engines[m]
	return e.cd.UpdatesInProgress() == 0 && len(e.pendingAlerts) == 0
}

// cutAlerts is a batch that reports a joiner on every one of the k rings at
// once: the member it is applied to proposes the cut {joiner}.
func cutAlerts(configID uint64, k int, joiner node.Endpoint) *remoting.Request {
	rings := make([]int, k)
	for i := range rings {
		rings[i] = i
	}
	return &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: "peer:1", Alerts: []remoting.AlertMessage{{
		EdgeSrc: "peer:1", EdgeDst: joiner.Addr, Status: remoting.EdgeUp, ConfigurationID: configID,
		RingNumbers: rings, JoinerID: joiner.ID, Metadata: joiner.Metadata,
	}}}}
}

// answers takes the phase-2 answers sent to joiner out of its inbox.
func (r *engineRig) answers(joiner node.Endpoint) []*remoting.JoinResponse {
	var got []*remoting.JoinResponse
	kept := r.inbox[joiner.Addr][:0]
	for _, req := range r.inbox[joiner.Addr] {
		if req.Answer != nil && req.Answer.Join != nil {
			got = append(got, req.Answer.Join)
		} else {
			kept = append(kept, req)
		}
	}
	r.inbox[joiner.Addr] = kept
	return got
}

// answer takes the one phase-2 answer sent to joiner out of its inbox.
func (r *engineRig) answer(joiner node.Endpoint) *remoting.JoinResponse {
	r.t.Helper()
	got := r.answers(joiner)
	if len(got) != 1 {
		r.t.Fatalf("%d answers to %s's phase-2 request, want one", len(got), joiner.Addr)
	}
	return got[0]
}

func endpoint(i int) node.Endpoint {
	return node.Endpoint{Addr: addr(i), ID: node.ID{High: 7, Low: uint64(i)}}
}

// TestRacedPastJoinerIsRedirected grows a seed from 1 to 4 members while a
// fourth joiner is parked on it, then to 5. The joiner the first view change
// races past must be answered at once with the new configuration, must leave
// no JOIN tally behind on any member — a tally that only some rings feed sits
// between L and H and blocks every proposal — and must be admitted by the
// next view change, all without a tick of protocol time (at the parent commit
// it waited out JoinPhase2Timeout).
func TestRacedPastJoinerIsRedirected(t *testing.T) {
	r := newEngineRig(t)
	began := r.clk.Now()
	seed := endpoint(0)
	s, _ := r.start(seed, []node.Endpoint{seed})
	c0 := s.view.ConfigurationID()

	first := []node.Endpoint{endpoint(1), endpoint(2), endpoint(3)}
	for _, j := range first {
		r.park(seed.Addr, j, c0)
	}
	r.flush(seed.Addr) // JOIN alerts
	// The straggler parks after the cut's alerts left and before they come
	// back: a lone seed's vote is a quorum, so the cut is decided the moment
	// the alerts are applied, with the straggler's own alert still unsent.
	late := endpoint(4)
	straggler := r.park(seed.Addr, late, c0)
	r.deliver(seed.Addr)

	if got := s.view.Size(); got != 4 {
		t.Fatalf("seed has %d members after the first wave, want 4", got)
	}
	c1 := s.view.ConfigurationID()
	for _, j := range first {
		if resp := r.answer(j); resp.Status != remoting.JoinSafeToJoin || len(resp.Members) != 4 {
			t.Fatalf("%s: got %s with %d members, want SAFE_TO_JOIN with 4", j.Addr, resp.Status, len(resp.Members))
		}
	}
	if resp := r.answer(straggler); resp.Status != remoting.JoinConfigChanged || resp.ConfigurationID != c1 {
		t.Fatalf("raced-past joiner got %s/%x, want CONFIG_CHANGED/%x", resp.Status, resp.ConfigurationID, c1)
	}
	if !r.idle(seed.Addr) {
		t.Fatal("the view change left a JOIN alert or tally for the joiner it raced past")
	}

	// The first wave starts; the straggler re-runs phase 1 and phase 2 in c1.
	members := s.view.Members()
	all := []node.Addr{seed.Addr}
	for _, j := range first {
		r.start(j, members)
		all = append(all, j.Addr)
	}
	seen := map[node.Addr]bool{}
	for _, o := range s.view.ExpectedObserversOf(late.Addr) {
		if !seen[o] {
			seen[o] = true
			r.park(o, late, c1)
		}
	}
	r.flush(all...) // JOIN alerts
	r.deliver(all...)
	r.flush(all...) // votes, one hop: four members
	r.deliver(all...)

	for _, m := range all {
		if got := r.engines[m].view.Size(); got != 5 {
			t.Fatalf("%s has %d members after the second wave, want 5", m, got)
		}
		if !r.idle(m) {
			t.Fatalf("%s still tracks a subject between the watermarks", m)
		}
	}
	answers := r.answers(late)
	if len(answers) != len(seen) {
		t.Fatalf("%d answers from the redirected joiner's %d observers", len(answers), len(seen))
	}
	for _, resp := range answers {
		if resp.Status != remoting.JoinSafeToJoin || len(resp.Members) != 5 {
			t.Fatalf("redirected joiner got %s with %d members, want SAFE_TO_JOIN with 5", resp.Status, len(resp.Members))
		}
	}
	if !r.clk.Now().Equal(began) {
		t.Fatalf("protocol time advanced by %v", r.clk.Now().Sub(began))
	}
}

// tickSeed wakes a lone seed one window after its last flush, when its next
// flush is due, with queued events waiting in its inbound queue, and reports
// whether the flush held the storm: sent nothing, and kept both the window and
// the next flush one window away.
func (r *engineRig) tickSeed(s *engine, queued int) (held bool) {
	window := s.winCtl.window
	r.clk.Advance(window)
	if !s.flushDue.Equal(r.clk.Now()) {
		r.t.Fatalf("the seed's flush is due %v from now, want now", s.flushDue.Sub(r.clk.Now()))
	}
	out := r.file(s.wake(r.clk.Now(), queued))
	if next := s.flushDue.Sub(r.clk.Now()); len(out.sends) == 0 && (s.winCtl.window != window || next != window) {
		r.t.Fatalf("a held flush moved the window %v → %v (next flush in %v)", window, s.winCtl.window, next)
	}
	return len(out.sends) == 0
}

// allAdmitted fails unless every parked joiner was answered SAFE_TO_JOIN by
// the seed's first view change, with a membership of the seed plus all of them.
func (r *engineRig) allAdmitted(s *engine, parked []node.Endpoint) {
	r.t.Helper()
	if s.viewChanges != 1 || s.view.Size() != 1+len(parked) {
		r.t.Fatalf("seed has %d members after %d view changes, want %d after one", s.view.Size(), s.viewChanges, 1+len(parked))
	}
	for _, j := range parked {
		if resp := r.answer(j); resp.Status != remoting.JoinSafeToJoin || len(resp.Members) != 1+len(parked) {
			r.t.Fatalf("%s got %s with %d members, want SAFE_TO_JOIN with %d", j.Addr, resp.Status, len(resp.Members), 1+len(parked))
		}
	}
}

// TestLoneSeedGathersTheStorm: a lone seed's vote alone decides its first cut,
// and a joiner that cut leaves out runs both phases again and is voted in by
// relayed votes. So a storm of 4K + 5 that parks over three windows is held —
// the first two ticks because joiners answered in phase 1 have not parked, the
// third because 4K have — and the first quiet window admits all of it in one
// view change.
func TestLoneSeedGathersTheStorm(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0)
	s, _ := r.start(seed, []node.Endpoint{seed})
	c0 := s.view.ConfigurationID()
	n := 4*r.settings.K + 5
	for i := 1; i <= n; i++ {
		if resp := r.preJoin(seed.Addr, endpoint(i)); resp.Status != remoting.JoinSafeToJoin {
			t.Fatalf("phase 1 of %s got %s", endpoint(i).Addr, resp.Status)
		}
	}
	var parked []node.Endpoint
	for wave := 0; wave < 3; wave++ {
		for i := wave*n/3 + 1; i <= (wave+1)*n/3; i++ {
			parked = append(parked, r.park(seed.Addr, endpoint(i), c0))
		}
		if !r.tickSeed(s, 0) {
			t.Fatalf("the seed flushed after wave %d of 3", wave+1)
		}
	}
	if r.tickSeed(s, 0) {
		t.Fatal("the seed held its JOIN alerts through a quiet window")
	}
	r.deliver(seed.Addr)
	r.allAdmitted(s, parked)
	if !r.idle(seed.Addr) {
		t.Fatal("the view change left a JOIN alert or tally behind")
	}
}

// TestLoneSeedCutsAParkedSmallStormAtOnce: a storm of at most 4K whose every
// phase-1 joiner has parked — the shape of a 32-member cluster forming — is
// cut on the seed's first tick that finds its inbound queue empty, as fast as
// without the gathering rule; a tick that finds events queued has not seen
// the window's arrivals yet.
func TestLoneSeedCutsAParkedSmallStormAtOnce(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0)
	s, _ := r.start(seed, []node.Endpoint{seed})
	c0 := s.view.ConfigurationID()
	var parked []node.Endpoint
	for i := 1; i <= 31; i++ {
		r.preJoin(seed.Addr, endpoint(i))
		parked = append(parked, r.park(seed.Addr, endpoint(i), c0))
	}
	if !r.tickSeed(s, 1) {
		t.Fatal("the seed cut the storm with events still queued")
	}
	if r.tickSeed(s, 0) {
		t.Fatal("the seed held a small storm that had all parked")
	}
	r.deliver(seed.Addr)
	r.allAdmitted(s, parked)
}

// TestLoneSeedCutsATrickleInTime: one joiner parks per window while the next
// is answered in phase 1, so every tick sees a joiner arrive and another on its
// way. The seed holds, on a window that does not move, until the first parked
// joiner has waited half a JoinPhase2Timeout, and cuts on that tick.
func TestLoneSeedCutsATrickleInTime(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0)
	s, _ := r.start(seed, []node.Endpoint{seed})
	c0 := s.view.ConfigurationID()
	half := r.settings.JoinPhase2Timeout / 2
	began := r.clk.Now()
	var parked []node.Endpoint
	r.preJoin(seed.Addr, endpoint(1))
	for i := 1; ; i++ {
		parked = append(parked, r.park(seed.Addr, endpoint(i), c0))
		r.preJoin(seed.Addr, endpoint(i+1))
		held := r.tickSeed(s, 0)
		waited := r.clk.Now().Sub(began)
		if held && waited >= half {
			t.Fatalf("the seed still held after the first joiner waited %v", waited)
		}
		if !held {
			if waited < half {
				t.Fatalf("the seed cut a trickle after %v, before half a JoinPhase2Timeout (%v)", waited, half)
			}
			break
		}
	}
	r.deliver(seed.Addr)
	r.allAdmitted(s, parked)
}

// TestRetriedJoinFilesOneAlert pins the per-configuration bookkeeping: a
// retry replaces the request it gave up on without answering it — a parked
// one without a second JOIN alert, an early one in the one slot its joiner
// incarnation holds. The view change then answers the parked joiner once,
// and holds the early request again while the configuration it names is
// still to come.
func TestRetriedJoinFilesOneAlert(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0)
	s, _ := r.start(seed, []node.Endpoint{seed})
	c0 := s.view.ConfigurationID()
	j, early := endpoint(1), endpoint(2)

	for try := uint64(0); try < 2; try++ {
		r.park(seed.Addr, j, c0)
		r.park(seed.Addr, early, 0xe0+try) // a configuration nobody installed
	}
	if len(s.pendingAlerts) != 1 {
		t.Fatalf("%d JOIN alerts pending after a retry, want 1", len(s.pendingAlerts))
	}
	if got := len(r.answers(j)) + len(r.answers(early)); got != 0 {
		t.Fatalf("%d answers to requests a retry replaced, want none", got)
	}
	held := s.earlyJoins[joinerKey{addr: early.Addr, id: early.ID}]
	if len(s.earlyJoins) != 1 || held == nil || held.ConfigurationID != 0xe1 {
		t.Fatalf("%d early requests held (the joiner's names %+v), want the retry's alone", len(s.earlyJoins), held)
	}
	r.flush(seed.Addr) // the JOIN alert
	r.deliver(seed.Addr)
	if resp := r.answer(j); resp.Status != remoting.JoinSafeToJoin {
		t.Fatalf("joiner got %s, want SAFE_TO_JOIN", resp.Status)
	}
	if got := r.answers(early); len(got) != 0 || len(s.earlyJoins) != 1 {
		t.Fatalf("the install answered the early request %d times and holds %d, want none and one", len(got), len(s.earlyJoins))
	}
}

// TestViewChangeSendsFollowTheInputs: the joiners a view change settles sit in
// maps — the parked ones, and the early requests that name the configuration
// it installs — and its sends must not follow the maps' order. Two fresh lone
// seeds, each with four joiners parked and three early requests held, decide
// the same cut, which admits two of the parked joiners and the three early
// ones: both must return the same sends, in the same order — the admitted,
// then the redirected parked joiners, then each early joiner's answer.
func TestViewChangeSendsFollowTheInputs(t *testing.T) {
	decide := func() []send {
		r := newEngineRig(t)
		seed := endpoint(0)
		s, _ := r.start(seed, []node.Endpoint{seed})
		c0 := s.view.ConfigurationID()
		members := []node.Endpoint{seed, endpoint(1), endpoint(2), endpoint(5), endpoint(6), endpoint(7)}
		next := view.NewWithMembers(r.settings.K, members).ConfigurationID()
		for i := 1; i <= 4; i++ {
			r.park(seed.Addr, endpoint(i), c0)
		}
		for i := 5; i <= 7; i++ {
			r.park(seed.Addr, endpoint(i), next)
		}
		batch := &remoting.BatchedAlertMessage{Sender: "peer:1"}
		for _, j := range members[1:] {
			batch.Alerts = append(batch.Alerts, cutAlerts(c0, r.settings.K, j).Alerts.Alerts...)
		}
		out := r.step(seed.Addr, event{req: &remoting.Request{Alerts: batch}})
		if s.view.ConfigurationID() != next || len(out.sends) != 5 {
			t.Fatalf("the cut installed %x and returned %d sends, want %x and 5", s.view.ConfigurationID(), len(out.sends), next)
		}
		return out.sends
	}
	first, second := decide(), decide()
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Fatalf("send %d: one seed sent %s to %v, the other %s to %v", i, first[i].req.Kind(), first[i].to, second[i].req.Kind(), second[i].to)
		}
	}
}

// --- early requests --------------------------------------------------------------

// TestEarlyJoinRequestsAreHeldNotBounced sends a joiner's phase-2 requests
// too early on purpose: to the seed, naming a configuration the seed has not
// installed yet, and to a member that is registered with the transport but
// still joining, whose queue holds the request until its engine runs. Both
// must be served once the members catch up — the joiner is admitted from
// exactly these two requests.
func TestEarlyJoinRequestsAreHeldNotBounced(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 3})
	defer net.Close()
	s := testSettings()
	s.JoinPhase2Timeout = 10 * time.Second
	seed, err := StartCluster(addr(0), s, net)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()
	// The second member exists for the transport, but has not joined yet.
	second, err := register(addr(1), nil, s, net)
	if err != nil {
		t.Fatal(err)
	}
	// The configuration {seed, second}, which nobody has installed so far.
	next := view.NewWithMembers(s.K, []node.Endpoint{seed.me, second.me}).ConfigurationID()

	joiner := endpoint(2)
	answers := make(chan *remoting.JoinResponse, 4)
	if err := net.Register(joiner.Addr, transport.HandlerFunc(func(_ context.Context, _ node.Addr, req *remoting.Request) (*remoting.Response, error) {
		if req.Answer != nil && req.Answer.Join != nil {
			answers <- req.Answer.Join
		}
		return remoting.AckResponse(), nil
	})); err != nil {
		t.Fatal(err)
	}
	req := &remoting.Request{Join: &remoting.JoinRequest{Sender: joiner.Addr, JoinerID: joiner.ID, ConfigurationID: next}}
	for _, observer := range []*Cluster{seed, second} {
		net.Client(joiner.Addr).SendBestEffort(observer.me.Addr, req)
	}
	select {
	case resp := <-answers:
		t.Fatalf("an early request was answered with %s instead of being held", resp.Status)
	case <-time.After(100 * time.Millisecond):
	}

	members, err := second.join([]node.Addr{seed.me.Addr})
	if err != nil {
		t.Fatal(err)
	}
	second.initialize(members)
	defer second.Stop()

	for i := 0; i < 2; i++ {
		select {
		case resp := <-answers:
			if resp.Status != remoting.JoinSafeToJoin || len(resp.Members) != 3 {
				t.Fatalf("held request got %s with %d members, want SAFE_TO_JOIN with 3", resp.Status, len(resp.Members))
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a held request was never served")
		}
	}
	if n := second.Stats().JoinsTimedOut; n != 0 {
		t.Fatalf("%d of the second member's phase-2 rounds timed out", n)
	}
}

// --- joiner side -----------------------------------------------------------------

// scriptedNet answers a joiner from a script: the seed's phase-1 answers, and
// each observer's answer to a phase-2 request, which it hands straight to the
// joiner's handler, as the observer's one-way send would.
type scriptedNet struct {
	preJoin func() *remoting.PreJoinResponse
	// join is an observer's answer to a phase-2 request; nil, no answer.
	join   func(observer node.Addr) *remoting.JoinResponse
	joiner transport.Handler

	preJoins atomic.Int64
}

func (n *scriptedNet) Register(_ node.Addr, h transport.Handler) error { n.joiner = h; return nil }
func (n *scriptedNet) Deregister(node.Addr)                            {}
func (n *scriptedNet) Client(node.Addr) transport.Client               { return n }
func (n *scriptedNet) SendBestEffort(to node.Addr, req *remoting.Request) {
	if req.Join == nil {
		return
	}
	if resp := n.join(to); resp != nil {
		resp.Sender = to
		n.joiner.HandleRequest(context.Background(), to, &remoting.Request{Answer: &remoting.Response{Join: resp}})
	}
}
func (n *scriptedNet) Send(context.Context, node.Addr, *remoting.Request) (*remoting.Response, error) {
	n.preJoins.Add(1)
	return &remoting.Response{PreJoin: n.preJoin()}, nil
}

// phase2 starts a joiner through addr(0) at now and files the seed's answer
// naming observers in configuration 1; it returns the joiner and its
// phase-2 outputs.
func phase2(t *testing.T, observers []node.Addr, now time.Time) (*joiner, joinOutputs) {
	t.Helper()
	s := DefaultSettings()
	j := newJoiner(endpoint(1), []node.Addr{addr(0)}, &s, &EngineMetrics{}, now)
	j.start(now)
	out := j.preJoined(addr(0), &remoting.Response{PreJoin: &remoting.PreJoinResponse{
		Status: remoting.JoinSafeToJoin, ConfigurationID: 1, Observers: observers,
	}}, nil, now)
	if len(out.to) != len(distinctOf(observers)) || out.req.Join == nil || !out.wakeAt.Equal(now.Add(s.JoinPhase2Timeout)) {
		t.Fatalf("phase 2 sends to %v until %v, want the %d distinct observers for one JoinPhase2Timeout", out.to, out.wakeAt, len(distinctOf(observers)))
	}
	return j, out
}

// redirectFrom is an observer's redirect to the given configuration.
func redirectFrom(o node.Addr, configID uint64) *remoting.JoinResponse {
	return &remoting.JoinResponse{Sender: o, Status: remoting.JoinConfigChanged, ConfigurationID: configID}
}

// waiting fails unless out asks the joiner to wait for its round's deadline.
func waiting(t *testing.T, j *joiner, out joinOutputs) {
	t.Helper()
	if out.to != nil || out.members != nil || out.err != nil || out.wakeAt.IsZero() || !out.wakeAt.Equal(j.wakeAt) {
		t.Fatalf("got %+v, want to wait for the round's deadline", out)
	}
}

// TestJoinAbandonsOnceHIsUnreachable steps the joiner through its ring
// arithmetic: with K=10 and H=9 one bounced ring still leaves H reachable, two
// do not — whether they belong to two observers or to one that holds two
// rings. An attempt abandoned on a redirect is free: phase 1 again, at once.
func TestJoinAbandonsOnceHIsUnreachable(t *testing.T) {
	distinct := make([]node.Addr, 10)
	for i := range distinct {
		distinct[i] = addr(100 + i)
	}
	twoRings := append([]node.Addr{distinct[0]}, distinct[:9]...) // distinct[0] holds rings 0 and 1
	cases := []struct {
		name      string
		observers []node.Addr
		bouncing  []node.Addr
		abandon   bool
	}{
		{"one ring lost", distinct, distinct[:1], false},
		{"two rings lost", distinct, distinct[:2], true},
		{"one observer with two rings lost", twoRings, distinct[:1], true},
	}
	now := time.Unix(0, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j, out := phase2(t, tc.observers, now)
			for _, o := range tc.bouncing {
				out = j.joined(redirectFrom(o, 2), now)
			}
			if tc.abandon {
				if len(out.to) != 1 || out.req.PreJoin == nil || !out.wakeAt.IsZero() || j.attempt != 0 {
					t.Fatalf("got %+v after %d attempts, want phase 1 again at once, free of charge", out, j.attempt)
				}
				return
			}
			waiting(t, j, out)
			admitted := &remoting.JoinResponse{Sender: distinct[5], Status: remoting.JoinSafeToJoin, Members: []node.Endpoint{endpoint(0), endpoint(1)}}
			if out = j.joined(admitted, now); out.err != nil || len(out.members) != 2 {
				t.Fatalf("got %+v; want the admitting answer", out)
			}
		})
	}
}

// TestJoinerFilesOnlyAnswersItAwaits: phase-2 answers carry no round, so the
// joiner files the first answer of each observer its round still awaits, a
// redirect only if it names a configuration other than the round's own, and
// an admission from anyone; and a deadline that finds observers still
// awaited fails the attempt and counts one timed-out join.
func TestJoinerFilesOnlyAnswersItAwaits(t *testing.T) {
	observers := make([]node.Addr, 10)
	for i := range observers {
		observers[i] = addr(100 + i)
	}
	now := time.Unix(0, 0)
	t.Run("a stale redirect naming the round's configuration is ignored", func(t *testing.T) {
		j, _ := phase2(t, observers, now)
		for _, o := range observers[:3] {
			waiting(t, j, j.joined(redirectFrom(o, 1), now))
		}
		if len(j.rings) != len(observers) || j.live != len(observers) {
			t.Fatalf("%d observers awaited and %d rings live after stale redirects, want all", len(j.rings), j.live)
		}
	})
	t.Run("an observer's duplicate answer counts once", func(t *testing.T) {
		j, _ := phase2(t, observers, now)
		for range 3 {
			waiting(t, j, j.joined(redirectFrom(observers[0], 2), now))
		}
		waiting(t, j, j.joined(redirectFrom("stranger:1", 2), now))
		if len(j.rings) != len(observers)-1 || j.live != len(observers)-1 {
			t.Fatalf("%d observers awaited and %d rings live, want one ring lost", len(j.rings), j.live)
		}
	})
	t.Run("an admission of this incarnation ends the join, whoever sent it", func(t *testing.T) {
		j, _ := phase2(t, observers, now)
		other := endpoint(1)
		other.ID.Low++ // an earlier incarnation at this address
		waiting(t, j, j.joined(&remoting.JoinResponse{Sender: observers[0], Status: remoting.JoinSafeToJoin, Members: []node.Endpoint{endpoint(0), other}}, now))
		out := j.joined(&remoting.JoinResponse{Sender: "earlier-round:1", Status: remoting.JoinSafeToJoin, Members: []node.Endpoint{endpoint(0), endpoint(1)}}, now)
		if len(out.members) != 2 || out.err != nil {
			t.Fatalf("got %+v, want the admission", out)
		}
	})
	t.Run("a deadline with observers still awaited fails the attempt", func(t *testing.T) {
		j, out := phase2(t, observers, now)
		deadline := out.wakeAt
		waiting(t, j, j.wake(deadline.Add(-time.Nanosecond)))
		out = j.wake(deadline)
		if out.to != nil || out.err != nil || j.attempt != 1 || !out.wakeAt.Equal(deadline.Add(j.retryDelay)) {
			t.Fatalf("got %+v after %d failed attempts, want a retry delay after one", out, j.attempt)
		}
		if got := j.metrics.JoinsTimedOut.Value(); got != 1 {
			t.Fatalf("JoinsTimedOut = %d, want 1", got)
		}
		if out = j.wake(out.wakeAt); len(out.to) != 1 || out.req.PreJoin == nil {
			t.Fatalf("got %+v once the retry delay was over, want phase 1", out)
		}
		if got := j.metrics.JoinsTimedOut.Value(); got != 1 {
			t.Fatalf("JoinsTimedOut = %d after the retry, want 1", got)
		}
	})
}

func distinctOf(addrs []node.Addr) map[node.Addr]bool {
	set := map[node.Addr]bool{}
	for _, a := range addrs {
		set[a] = true
	}
	return set
}

// TestRedirectsAreFreeButBounded keeps a joiner in an endless chain of
// configuration changes: every phase 1 names a new configuration and every
// observer redirects. Redirects cost no attempt and no retry delay, but the
// time the attempts could have taken still bounds the join.
func TestRedirectsAreFreeButBounded(t *testing.T) {
	clk := simclock.NewManual(time.Unix(0, 0))
	s := DefaultSettings()
	s.Clock = clk
	s.JoinAttempts = 2
	budget := time.Duration(s.JoinAttempts) * (2*s.JoinPhase2Timeout + s.JoinRetryDelay)
	step := s.JoinPhase2Timeout / 4

	var configID uint64
	net := &scriptedNet{}
	net.preJoin = func() *remoting.PreJoinResponse {
		clk.Advance(step) // the only thing that passes time: no retry delay is slept
		configID++
		return &remoting.PreJoinResponse{Status: remoting.JoinSafeToJoin, ConfigurationID: configID, Observers: []node.Addr{addr(100)}}
	}
	net.join = func(node.Addr) *remoting.JoinResponse {
		return &remoting.JoinResponse{Status: remoting.JoinConfigChanged, ConfigurationID: configID + 1}
	}
	c, err := register(addr(1), nil, s, net)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.join([]node.Addr{addr(0)})
	if !errors.Is(err, ErrJoinFailed) {
		t.Fatalf("got %v, want ErrJoinFailed", err)
	}
	if got, want := net.preJoins.Load(), int64((budget+step-1)/step); got != want {
		t.Fatalf("%d phase-1 rounds, want %d: redirects must not be charged as attempts, and must stop at the deadline", got, want)
	}
}

// TestStaleSeedCostsAnAttempt: a seed that keeps naming the configuration its
// members already redirected the joiner out of is behind them; retrying at
// once would spin on it, so it is charged like any seed that is not ready.
func TestStaleSeedCostsAnAttempt(t *testing.T) {
	clk := simclock.NewManual(time.Unix(0, 0))
	s := DefaultSettings()
	s.Clock = clk
	s.JoinAttempts = 1
	net := &scriptedNet{
		preJoin: func() *remoting.PreJoinResponse {
			return &remoting.PreJoinResponse{Status: remoting.JoinSafeToJoin, ConfigurationID: 1, Observers: []node.Addr{addr(100)}}
		},
		join: func(node.Addr) *remoting.JoinResponse {
			return &remoting.JoinResponse{Status: remoting.JoinConfigChanged, ConfigurationID: 2}
		},
	}
	c, err := register(addr(1), nil, s, net)
	if err != nil {
		t.Fatal(err)
	}
	// One free redirect, then the stale answer uses up the only attempt — and
	// the last failure returns without sleeping JoinRetryDelay, which on this
	// clock would never end.
	if _, err := c.join([]node.Addr{addr(0)}); !errors.Is(err, ErrJoinFailed) {
		t.Fatalf("got %v, want ErrJoinFailed", err)
	}
	if got := net.preJoins.Load(); got != 2 {
		t.Fatalf("%d phase-1 rounds, want 2", got)
	}
}
