package core

import (
	"context"
	"errors"
	"sync"
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
// in per-member inboxes and move only when the test says so, replies go to the
// channel that waits for them, and the time is whatever the manual clock says.
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
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func (r *engineRig) start(me node.Endpoint, members []node.Endpoint) (*engine, outputs) {
	e, first := newEngine(me, &r.settings, &EngineMetrics{}, members, r.ensemble, r.clk.Now())
	r.engines[me.Addr] = e
	return e, first
}

// handle builds a member as start does, inside a Cluster handle that has no
// driver: the test takes events off its queue and performs outputs on it.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func (r *engineRig) handle(me node.Endpoint, members []node.Endpoint) (*Cluster, *engine) {
	c, err := newCluster(me.Addr, r.settings, &scriptedNet{})
	if err != nil {
		r.t.Fatal(err)
	}
	c.me = me
	e, first := newEngine(me, &c.settings, &c.emetrics, members, nil, r.clk.Now())
	c.perform(first)
	c.started.Store(true)
	close(c.startedCh)
	r.engines[me.Addr] = e
	return c, e
}

// file puts one step's sends into the recipients' inboxes and its replies
// into the channels that wait for them, and hands the outputs back.
func (r *engineRig) file(out outputs) outputs {
	for _, s := range out.sends {
		for _, to := range s.to {
			r.inbox[to] = append(r.inbox[to], s.req)
		}
	}
	for _, rep := range out.replies {
		rep.to <- rep.resp
	}
	return out
}

// step applies one event to a member at the rig's time and files the outputs.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
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

// park hands one phase-2 request to an observer's engine.
func (r *engineRig) park(observer node.Addr, joiner node.Endpoint, configID uint64) *joinEvent {
	ev := &joinEvent{
		msg:   &remoting.JoinRequest{Sender: joiner.Addr, JoinerID: joiner.ID, ConfigurationID: configID, Metadata: joiner.Metadata},
		reply: make(chan *remoting.Response, 1),
	}
	r.step(observer, event{ctl: &control{join: ev}})
	return ev
}

// flush runs one flush tick on every listed member: its pending batch and
// vote push go into the inboxes.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func (r *engineRig) flush(members ...node.Addr) {
	for _, m := range members {
		r.file(r.engines[m].tick(r.clk.Now(), 0))
	}
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
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
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

func answer(t *testing.T, ev *joinEvent) *remoting.JoinResponse {
	t.Helper()
	select {
	case resp := <-ev.reply:
		return resp.Join
	default:
		t.Fatalf("no answer to %s's phase-2 request", ev.msg.Sender)
		return nil
	}
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
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func TestRacedPastJoinerIsRedirected(t *testing.T) {
	r := newEngineRig(t)
	began := r.clk.Now()
	seed := endpoint(0)
	s, _ := r.start(seed, []node.Endpoint{seed})
	c0 := s.view.ConfigurationID()

	first := []node.Endpoint{endpoint(1), endpoint(2), endpoint(3)}
	var admitted []*joinEvent
	for _, j := range first {
		admitted = append(admitted, r.park(seed.Addr, j, c0))
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
	for _, ev := range admitted {
		if resp := answer(t, ev); resp.Status != remoting.JoinSafeToJoin || len(resp.Members) != 4 {
			t.Fatalf("%s: got %s with %d members, want SAFE_TO_JOIN with 4", ev.msg.Sender, resp.Status, len(resp.Members))
		}
	}
	if resp := answer(t, straggler); resp.Status != remoting.JoinConfigChanged || resp.ConfigurationID != c1 {
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
	var waiting []*joinEvent
	seen := map[node.Addr]bool{}
	for _, o := range s.view.ExpectedObserversOf(late.Addr) {
		if !seen[o] {
			seen[o] = true
			waiting = append(waiting, r.park(o, late, c1))
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
	for _, ev := range waiting {
		if resp := answer(t, ev); resp.Status != remoting.JoinSafeToJoin || len(resp.Members) != 5 {
			t.Fatalf("redirected joiner got %s with %d members, want SAFE_TO_JOIN with 5", resp.Status, len(resp.Members))
		}
	}
	if !r.clk.Now().Equal(began) {
		t.Fatalf("protocol time advanced by %v", r.clk.Now().Sub(began))
	}
}

// tickSeed fires a lone seed's flush timer one window after the last firing,
// with queued events waiting in its inbound queue, and reports whether the
// tick held the storm: sent nothing, and kept both the window and the timer
// running at it.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func (r *engineRig) tickSeed(s *engine, queued int) (held bool) {
	window := s.winCtl.window
	r.clk.Advance(window)
	out := r.file(s.tick(r.clk.Now(), queued))
	if len(out.sends) == 0 && (s.winCtl.window != window || out.flushIn != window) {
		r.t.Fatalf("a held tick moved the window %v → %v (timer %v)", window, s.winCtl.window, out.flushIn)
	}
	return len(out.sends) == 0
}

// allAdmitted fails unless every parked request was answered SAFE_TO_JOIN by
// the seed's first view change, with a membership of the seed plus all of them.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func allAdmitted(t *testing.T, s *engine, parked []*joinEvent) {
	t.Helper()
	if s.viewChanges != 1 || s.view.Size() != 1+len(parked) {
		t.Fatalf("seed has %d members after %d view changes, want %d after one", s.view.Size(), s.viewChanges, 1+len(parked))
	}
	for _, ev := range parked {
		if resp := answer(t, ev); resp.Status != remoting.JoinSafeToJoin || len(resp.Members) != 1+len(parked) {
			t.Fatalf("%s got %s with %d members, want SAFE_TO_JOIN with %d", ev.msg.Sender, resp.Status, len(resp.Members), 1+len(parked))
		}
	}
}

// TestLoneSeedGathersTheStorm: a lone seed's vote alone decides its first cut,
// and a joiner that cut leaves out runs both phases again and is voted in by
// relayed votes. So a storm of 4K + 5 that parks over three windows is held —
// the first two ticks because joiners answered in phase 1 have not parked, the
// third because 4K have — and the first quiet window admits all of it in one
// view change.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
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
	var parked []*joinEvent
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
	allAdmitted(t, s, parked)
	if !r.idle(seed.Addr) {
		t.Fatal("the view change left a JOIN alert or tally behind")
	}
}

// TestLoneSeedCutsAParkedSmallStormAtOnce: a storm of at most 4K whose every
// phase-1 joiner has parked — the shape of a 32-member cluster forming — is
// cut on the seed's first tick that finds its inbound queue empty, as fast as
// without the gathering rule; a tick that finds events queued has not seen
// the window's arrivals yet.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func TestLoneSeedCutsAParkedSmallStormAtOnce(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0)
	s, _ := r.start(seed, []node.Endpoint{seed})
	c0 := s.view.ConfigurationID()
	var parked []*joinEvent
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
	allAdmitted(t, s, parked)
}

// TestLoneSeedCutsATrickleInTime: one joiner parks per window while the next
// is answered in phase 1, so every tick sees a joiner arrive and another on its
// way. The seed holds, on a window that does not move, until the first parked
// joiner has waited half a JoinPhase2Timeout, and cuts on that tick.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func TestLoneSeedCutsATrickleInTime(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0)
	s, _ := r.start(seed, []node.Endpoint{seed})
	c0 := s.view.ConfigurationID()
	half := r.settings.JoinPhase2Timeout / 2
	began := r.clk.Now()
	var parked []*joinEvent
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
	allAdmitted(t, s, parked)
}

// TestRetriedJoinFilesOneAlert pins the per-configuration bookkeeping: a retry
// of the same joiner replaces its parked request (releasing the old handler)
// without a second JOIN alert, and a request its handler gave up on is not
// kept parked.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func TestRetriedJoinFilesOneAlert(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0)
	s, _ := r.start(seed, []node.Endpoint{seed})
	c0 := s.view.ConfigurationID()
	j := endpoint(1)

	firstTry := r.park(seed.Addr, j, c0)
	retry := r.park(seed.Addr, j, c0)
	if len(s.pendingAlerts) != 1 {
		t.Fatalf("%d JOIN alerts pending after a retry, want 1", len(s.pendingAlerts))
	}
	if resp := answer(t, firstTry); resp.Status != remoting.JoinConfigChanged {
		t.Fatalf("superseded request got %s, want CONFIG_CHANGED", resp.Status)
	}
	r.step(seed.Addr, event{ctl: &control{joinGone: retry}})
	if len(s.joinWaiters) != 0 {
		t.Fatal("a request whose handler gave up stayed parked")
	}
	third := r.park(seed.Addr, j, c0)
	if len(s.pendingAlerts) != 1 {
		t.Fatalf("%d JOIN alerts pending after re-parking, want 1", len(s.pendingAlerts))
	}
	r.flush(seed.Addr) // the JOIN alert
	r.deliver(seed.Addr)
	if resp := answer(t, third); resp.Status != remoting.JoinSafeToJoin {
		t.Fatalf("joiner got %s, want SAFE_TO_JOIN", resp.Status)
	}
}

// --- early requests --------------------------------------------------------------

// TestEarlyJoinRequestsAreHeldNotBounced sends a joiner's phase-2 requests
// too early on purpose: to the seed, naming a configuration the seed has not
// installed yet, and to a member that is registered with the transport but
// still joining. Both must be served once the members catch up — the joiner
// is admitted from exactly these two requests.
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
	second, err := newCluster(addr(1), s, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Register(second.me.Addr, second); err != nil {
		t.Fatal(err)
	}
	// The configuration {seed, second}, which nobody has installed so far.
	next := view.NewWithMembers(s.K, []node.Endpoint{seed.me, second.me}).ConfigurationID()

	joiner := endpoint(2)
	req := &remoting.Request{Join: &remoting.JoinRequest{Sender: joiner.Addr, JoinerID: joiner.ID, ConfigurationID: next}}
	answers := make(chan *remoting.Response, 2)
	for _, observer := range []*Cluster{seed, second} {
		observer := observer
		go func() {
			resp, _ := observer.HandleRequest(contextWithTimeout(t, 10*time.Second), joiner.Addr, req)
			answers <- resp
		}()
	}
	select {
	case resp := <-answers:
		t.Fatalf("an early request was answered with %s instead of being held", resp.Join.Status)
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
			if resp.Join.Status != remoting.JoinSafeToJoin || len(resp.Join.Members) != 3 {
				t.Fatalf("held request got %s with %d members, want SAFE_TO_JOIN with 3", resp.Join.Status, len(resp.Join.Members))
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a held request was never served")
		}
	}
	if n := seed.Stats().JoinsTimedOut + second.Stats().JoinsTimedOut; n != 0 {
		t.Fatalf("%d phase-2 requests timed out", n)
	}
}

// --- joiner side -----------------------------------------------------------------

// scriptedNet answers a joiner from a script: the seed's phase-1 answers and
// each observer's phase-2 behaviour.
type scriptedNet struct {
	preJoin func() *remoting.PreJoinResponse
	// join answers a phase-2 request, or blocks on ctx like a parked one.
	join func(ctx context.Context, observer node.Addr) (*remoting.JoinResponse, error)

	preJoins atomic.Int64
}

func (n *scriptedNet) Register(node.Addr, transport.Handler) error { return nil }
func (n *scriptedNet) Deregister(node.Addr)                        {}
func (n *scriptedNet) Client(node.Addr) transport.Client           { return n }
func (n *scriptedNet) SendBestEffort(node.Addr, *remoting.Request) {}
func (n *scriptedNet) Send(ctx context.Context, to node.Addr, req *remoting.Request) (*remoting.Response, error) {
	if req.PreJoin != nil {
		n.preJoins.Add(1)
		return &remoting.Response{PreJoin: n.preJoin()}, nil
	}
	resp, err := n.join(ctx, to)
	if err != nil {
		return nil, err
	}
	return &remoting.Response{Join: resp}, nil
}

// parked blocks like a phase-2 request waiting for a view change.
func parked(ctx context.Context) (*remoting.JoinResponse, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestJoinAbandonsOnceHIsUnreachable steps the joiner through its ring
// arithmetic: with K=10 and H=9 one bounced ring still leaves H reachable, two
// do not — whether they belong to two observers or to one that holds two
// rings. An attempt abandoned on a redirect is free: phase 1 again, at once.
// (TestAbandonedRoundCancelsItsParkedCalls has the driver cancel the calls
// still parked.)
func TestJoinAbandonsOnceHIsUnreachable(t *testing.T) {
	distinct := make([]node.Addr, 10)
	for i := range distinct {
		distinct[i] = addr(100 + i)
	}
	twoRings := append([]node.Addr{distinct[0]}, distinct[:9]...) // distinct[0] holds rings 0 and 1
	bounce := &remoting.Response{Join: &remoting.JoinResponse{Status: remoting.JoinConfigChanged, ConfigurationID: 2}}
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
	s := DefaultSettings()
	now := time.Unix(0, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := newJoiner(endpoint(1), []node.Addr{addr(0)}, &s, now)
			j.start(now)
			out := j.step(joinAnswer{from: addr(0), resp: &remoting.Response{PreJoin: &remoting.PreJoinResponse{
				Status: remoting.JoinSafeToJoin, ConfigurationID: 1, Observers: tc.observers,
			}}}, now)
			if len(out.to) != len(distinctOf(tc.observers)) || out.req.Join == nil {
				t.Fatalf("phase 2 calls %v, want the %d distinct observers", out.to, len(distinctOf(tc.observers)))
			}
			for _, o := range tc.bouncing {
				out = j.step(joinAnswer{from: o, resp: bounce}, now)
			}
			if tc.abandon {
				if len(out.to) != 1 || out.req.PreJoin == nil || out.retryIn != 0 || j.attempt != 0 {
					t.Fatalf("got %+v after %d attempts, want phase 1 again at once, free of charge", out, j.attempt)
				}
				return
			}
			if out.to != nil || out.retryIn != 0 || out.members != nil || out.err != nil {
				t.Fatalf("abandoned with H still reachable: %+v", out)
			}
			admitted := &remoting.Response{Join: &remoting.JoinResponse{Status: remoting.JoinSafeToJoin, Members: []node.Endpoint{endpoint(0)}}}
			if out = j.step(joinAnswer{from: distinct[5], resp: admitted}, now); out.err != nil || len(out.members) != 1 {
				t.Fatalf("got %+v; want the admitting answer", out)
			}
		})
	}
}

// TestAbandonedRoundCancelsItsParkedCalls: once two of ten rings bounced, the
// driver abandons the round and cancels the context of every request still
// parked, and the join ends on the next phase 1's answer.
func TestAbandonedRoundCancelsItsParkedCalls(t *testing.T) {
	observers := make([]node.Addr, 10)
	for i := range observers {
		observers[i] = addr(100 + i)
	}
	var cancelled sync.WaitGroup
	cancelled.Add(len(observers) - 2)
	net := &scriptedNet{join: func(ctx context.Context, observer node.Addr) (*remoting.JoinResponse, error) {
		if observer == observers[0] || observer == observers[1] {
			return &remoting.JoinResponse{Status: remoting.JoinConfigChanged, ConfigurationID: 2}, nil
		}
		defer cancelled.Done()
		return parked(ctx)
	}}
	net.preJoin = func() *remoting.PreJoinResponse {
		if net.preJoins.Load() > 1 {
			return &remoting.PreJoinResponse{Status: remoting.JoinHostAlreadyInRing}
		}
		return &remoting.PreJoinResponse{Status: remoting.JoinSafeToJoin, ConfigurationID: 1, Observers: observers}
	}
	c, err := newCluster(addr(1), DefaultSettings(), net)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.join([]node.Addr{addr(0)})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAddressInUse) {
			t.Fatalf("got %v, want the second phase 1's ErrAddressInUse", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the join waited for observers that cannot bring it to H")
	}
	released := make(chan struct{})
	go func() { cancelled.Wait(); close(released) }()
	select {
	case <-released: // every parked request saw its context end
	case <-time.After(5 * time.Second):
		t.Fatal("a parked request of the abandoned round was never cancelled")
	}
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
	net.join = func(context.Context, node.Addr) (*remoting.JoinResponse, error) {
		return &remoting.JoinResponse{Status: remoting.JoinConfigChanged, ConfigurationID: configID + 1}, nil
	}
	c, err := newCluster(addr(1), s, net)
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
		join: func(context.Context, node.Addr) (*remoting.JoinResponse, error) {
			return &remoting.JoinResponse{Status: remoting.JoinConfigChanged, ConfigurationID: 2}, nil
		},
	}
	c, err := newCluster(addr(1), s, net)
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
