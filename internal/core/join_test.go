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
	e, first := newEngine(me, &r.settings, &EngineMetrics{}, members)
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
	e, first := newEngine(me, &c.settings, &c.emetrics, members)
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

// TestLoneSeedAdmitsAtMost4K: the seed alone decides its first cut, and what
// it admits votes on everything after, so it takes 4K of a bigger storm (the
// first by address, like any cut) and redirects the rest.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func TestLoneSeedAdmitsAtMost4K(t *testing.T) {
	r := newEngineRig(t)
	seed := endpoint(0)
	s, _ := r.start(seed, []node.Endpoint{seed})
	c0 := s.view.ConfigurationID()
	limit := 4 * r.settings.K
	var parked []*joinEvent
	for i := 1; i <= limit+5; i++ {
		parked = append(parked, r.park(seed.Addr, endpoint(i), c0))
	}
	r.flush(seed.Addr) // JOIN alerts
	r.deliver(seed.Addr)
	if got := s.view.Size(); got != 1+limit {
		t.Fatalf("seed has %d members after a storm of %d, want %d", got, len(parked), 1+limit)
	}
	redirected := 0
	for _, ev := range parked {
		switch resp := answer(t, ev); {
		case resp.Status == remoting.JoinSafeToJoin && s.view.Contains(ev.msg.Sender):
		case resp.Status == remoting.JoinConfigChanged && !s.view.Contains(ev.msg.Sender):
			redirected++
		default:
			t.Fatalf("%s got %s, member=%v", ev.msg.Sender, resp.Status, s.view.Contains(ev.msg.Sender))
		}
	}
	if redirected != 5 {
		t.Fatalf("%d joiners redirected, want 5", redirected)
	}
	if !r.idle(seed.Addr) {
		t.Fatal("the capped view change left a JOIN alert or tally behind")
	}
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

	members, err := second.runJoinProtocol([]node.Addr{seed.me.Addr})
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

// TestJoinAbandonsOnceHIsUnreachable checks the joiner's ring arithmetic:
// with K=10 and H=9 one bounced ring still leaves H reachable, two do not —
// whether they belong to two observers or to one that holds two rings — and
// abandoning cancels the requests still parked.
func TestJoinAbandonsOnceHIsUnreachable(t *testing.T) {
	distinct := make([]node.Addr, 10)
	for i := range distinct {
		distinct[i] = addr(100 + i)
	}
	twoRings := append([]node.Addr{distinct[0]}, distinct[:9]...) // distinct[0] holds rings 0 and 1
	bounce := &remoting.JoinResponse{Status: remoting.JoinConfigChanged, ConfigurationID: 2}
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bounces := map[node.Addr]bool{}
			for _, o := range tc.bouncing {
				bounces[o] = true
			}
			release := make(chan struct{})
			var cancelled sync.WaitGroup
			cancelled.Add(len(distinctOf(tc.observers)) - len(tc.bouncing))
			net := &scriptedNet{join: func(ctx context.Context, observer node.Addr) (*remoting.JoinResponse, error) {
				if bounces[observer] {
					return bounce, nil
				}
				defer cancelled.Done()
				select {
				case <-release:
					return &remoting.JoinResponse{Status: remoting.JoinSafeToJoin, Members: []node.Endpoint{endpoint(0)}}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}}
			c, err := newCluster(addr(1), DefaultSettings(), net)
			if err != nil {
				t.Fatal(err)
			}
			type result struct {
				members []node.Endpoint
				err     error
			}
			done := make(chan result, 1)
			go func() {
				members, err := c.joinPhase2(1, tc.observers)
				done <- result{members, err}
			}()
			if tc.abandon {
				select {
				case res := <-done:
					if !errors.Is(res.err, errJoinRedirected) {
						t.Fatalf("got %v, want a redirect", res.err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("the attempt waited for observers that cannot bring it to H")
				}
				cancelled.Wait() // every parked request saw its context end
				return
			}
			select {
			case res := <-done:
				t.Fatalf("abandoned with H still reachable: %v", res.err)
			case <-time.After(100 * time.Millisecond):
			}
			close(release)
			if res := <-done; res.err != nil || len(res.members) != 1 {
				t.Fatalf("got %d members, %v; want the admitting answer", len(res.members), res.err)
			}
		})
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
	_, err = c.runJoinProtocol([]node.Addr{addr(0)})
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
	if _, err := c.runJoinProtocol([]node.Addr{addr(0)}); !errors.Is(err, ErrJoinFailed) {
		t.Fatalf("got %v, want ErrJoinFailed", err)
	}
	if got := net.preJoins.Load(); got != 2 {
		t.Fatalf("%d phase-1 rounds, want 2", got)
	}
}
