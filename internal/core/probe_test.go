package core

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/edgefd"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/transport"
	"repro/internal/view"
)

// --- the engine's probe rounds, stepped by hand -------------------------------------

// probeEngine starts member 0 of an n-member configuration on the rig's
// manual clock, with K = 3 and the given detector, and returns its first
// outputs.
func probeEngine(t *testing.T, n int, judges edgefd.Factory) (*engineRig, *engine, outputs) {
	r := newEngineRig(t)
	r.settings.K, r.settings.H, r.settings.L = 3, 3, 1
	r.settings.FailureDetector = judges
	members := make([]node.Endpoint, n)
	for i := range members {
		members[i] = endpoint(i)
	}
	e, first := r.start(members[0], members)
	return r, e, first
}

// outcome is the event that files what the i-th probe of a round found.
func outcome(gen uint64, i int, ok bool) event {
	return event{ctl: &control{probed: &probeResult{gen: gen, i: i, ok: ok}}}
}

// cutOf is a vote batch in which every member of e's configuration votes for
// the cut {endpoint(i)}: it decides on the step that applies it.
func cutOf(e *engine, i int) event {
	f := &stepFixture{config: e.view.ConfigurationID(), members: e.addrs, others: e.addrs}
	return votes(agg{proposal: i, from: 0, count: len(e.addrs)})(f)
}

// consecutive is a detector whose judges fail an edge on its n-th failed
// probe in a row: a ping-pong window of n probes, all of them failed.
func consecutive(n int) edgefd.Factory {
	return edgefd.NewPingPongFactory(edgefd.PingPongOptions{WindowSize: n, FailureThreshold: 1})
}

// wake wakes a member at the rig's time, with nothing queued, and files the
// outputs.
func (r *engineRig) wake(e *engine) outputs { return r.file(e.wake(r.clk.Now(), 0)) }

// alerted lists the subjects of the REMOVE alerts e has filed: the ones a
// flush sent, which reach e too, then the ones still pending.
func (r *engineRig) alerted(e *engine) []node.Addr {
	var subjects []node.Addr
	for _, req := range r.inbox[e.me.Addr] {
		if req.Alerts != nil && req.Alerts.Sender == e.me.Addr {
			for _, a := range req.Alerts.Alerts {
				subjects = append(subjects, a.EdgeDst)
			}
		}
	}
	for _, a := range e.pendingAlerts {
		subjects = append(subjects, a.EdgeDst)
	}
	return subjects
}

// TestFirstProbeIsOneIntervalAfterWatch wakes the engine by hand: every
// install arms the first round one interval later, a round arms the next one
// on the beat of its deadline however late it ran, and a wake before the
// round is due — for another deadline, or at the beat of the configuration
// left — probes nothing and leaves the round where it is.
func TestFirstProbeIsOneIntervalAfterWatch(t *testing.T) {
	r, e, first := probeEngine(t, 16, edgefd.NewPingPongFactory(edgefd.DefaultPingPongOptions()))
	me, interval := e.me.Addr, r.settings.ProbeInterval
	start := r.clk.Now()
	// at moves the clock to the given offset from the start and wakes the
	// engine there.
	at := func(offset time.Duration) outputs {
		r.clk.Advance(start.Add(offset).Sub(r.clk.Now()))
		return r.wake(e)
	}
	round := func(out outputs, subjects []node.Addr, next time.Duration, when string) {
		t.Helper()
		if in := e.probeDue.Sub(r.clk.Now()); !slices.Equal(out.probe, subjects) || in != next {
			t.Fatalf("%s: probed %v and armed %v, want %v and %v", when, out.probe, in, subjects, next)
		}
	}
	if in := e.probeDue.Sub(start); in != interval || len(first.probe) != 0 {
		t.Fatalf("the first configuration armed %v and probed %v, want one interval and nobody", in, first.probe)
	}
	round(at(interval-time.Millisecond), nil, time.Millisecond, "before the first round is due")
	out := at(interval)
	round(out, e.subjects, interval, "the first round")
	gen := out.probeGen
	round(at(23*interval/10), e.subjects, 7*interval/10, "a round that fired late")

	// 2.5 intervals in, a view change: its first round is a whole interval
	// later, and the timer armed for the old beat at 3 probes nothing.
	r.clk.Advance(start.Add(25 * interval / 10).Sub(r.clk.Now()))
	installed := r.step(me, cutOf(e, 99))
	if in := e.probeDue.Sub(r.clk.Now()); installed.publish == nil || in != interval {
		t.Fatalf("the view change armed %v, want one interval", in)
	}
	round(at(3*interval), nil, interval/2, "at the beat of the configuration left")
	out = at(35 * interval / 10)
	round(out, e.subjects, interval, "the new configuration's first round")
	if out.probeGen != gen+1 {
		t.Fatalf("the new configuration's round is of generation %d, the first configuration's was %d", out.probeGen, gen)
	}
}

// TestVerdictIsAnAlertOnTheTenthColdOrFourthWarmProbe: a subject that never
// answers is reported by the tenth round after the install — the window
// fills first, so a crash is reported ten probe intervals after the install —
// and one that stops answering after a full healthy window by its fourth
// failure, each in the step that files the deciding outcome.
func TestVerdictIsAnAlertOnTheTenthColdOrFourthWarmProbe(t *testing.T) {
	r, e, _ := probeEngine(t, 16, edgefd.NewPingPongFactory(edgefd.DefaultPingPongOptions()))
	me, interval := e.me.Addr, r.settings.ProbeInterval
	installed := r.clk.Now()
	cold, warm := e.subjects[0], e.subjects[len(e.subjects)-1]
	dead := map[node.Addr]bool{cold: true}
	round := func(n time.Duration, want ...node.Addr) {
		t.Helper()
		r.clk.Advance(interval)
		out := r.wake(e)
		for i, subject := range out.probe {
			r.step(me, outcome(out.probeGen, i, !dead[subject]))
		}
		if got := r.alerted(e); !slices.Equal(got, want) || !r.clk.Now().Equal(installed.Add(n*interval)) {
			t.Fatalf("after round %d at %v the alerts are %v, want %v", n, r.clk.Now().Sub(installed), got, want)
		}
	}
	for n := time.Duration(1); n <= 9; n++ {
		round(n)
	}
	round(10, cold)
	dead[warm] = true
	for n := time.Duration(11); n <= 13; n++ {
		round(n, cold)
	}
	round(14, cold, warm)
}

// TestOutcomeOfAnOlderGenerationChangesNothing: failures that a round of the
// configuration left finds are filed after a view change that shortened the
// member's subject list, one of them under an index past its end. They reach
// no judge and file no alert; the same failure in the new configuration's
// round is the verdict.
func TestOutcomeOfAnOlderGenerationChangesNothing(t *testing.T) {
	r, e, _ := probeEngine(t, 5, consecutive(1))
	me, interval := e.me.Addr, r.settings.ProbeInterval
	r.clk.Advance(interval)
	old := r.wake(e)
	if len(old.probe) != 2 {
		t.Fatalf("member 0 of 5 probes %v", old.probe)
	}
	r.step(me, cutOf(e, 4))
	if len(e.subjects) != 1 {
		t.Fatalf("member 0 of 4 probes %v", e.subjects)
	}
	for i := range old.probe {
		r.step(me, outcome(old.probeGen, i, false))
	}
	if got := r.alerted(e); len(got) != 0 {
		t.Fatalf("failures of the configuration left filed alerts on %v", got)
	}
	r.clk.Advance(interval)
	out := r.wake(e)
	r.step(me, outcome(out.probeGen, 0, false))
	if got := r.alerted(e); !slices.Equal(got, e.subjects) {
		t.Fatalf("the new configuration's failure filed alerts on %v, want %v", got, e.subjects)
	}
}

// TestLoneOrRemovedMemberArmsNoProbeTimer: a member with nobody to probe — a
// lone seed, or one its configuration no longer contains — arms no probe
// round, and a wake when a round would have been due probes nothing and arms
// nothing.
func TestLoneOrRemovedMemberArmsNoProbeTimer(t *testing.T) {
	quiet := func(e *engine, out outputs, who string) {
		t.Helper()
		if !e.probeDue.IsZero() || len(out.probe) != 0 {
			t.Fatalf("%s armed a round at %v and probed %v", who, e.probeDue, out.probe)
		}
	}
	r, e, first := probeEngine(t, 1, consecutive(1))
	quiet(e, first, "a lone seed")
	r.clk.Advance(r.settings.ProbeInterval)
	quiet(e, r.wake(e), "a lone seed's wake")

	r, e, _ = probeEngine(t, 3, consecutive(1))
	if e.probeDue.IsZero() {
		t.Fatal("member 0 of 3 armed no probe round")
	}
	removed := r.step(e.me.Addr, cutOf(e, 0))
	if removed.publish == nil || e.myIndex >= 0 {
		t.Fatal("the cut did not remove the member")
	}
	quiet(e, removed, "the removed member's install")
	r.clk.Advance(r.settings.ProbeInterval)
	quiet(e, r.wake(e), "the removed member's wake at its old round")
}

// --- the driver's probes, on a manual clock ------------------------------------------

// sentProbe is one probe as the transport saw it.
type sentProbe struct {
	to node.Addr
	at time.Time
}

// probeRig is one member with a live driver on a manual clock, and the
// transport it probes through: every probe is recorded on sent and then
// answered — healthy subjects with NodeOK, dead ones with an error, a blocked
// one when its context ends. Nobody else sends to the member, so every event
// its engine steps is a probe outcome or one of the rig's syncs.
type probeRig struct {
	t        *testing.T
	c        *Cluster
	clk      *simclock.Manual
	start    time.Time
	subjects []node.Addr
	sent     chan sentProbe
	syncs    int64

	mu            sync.Mutex
	dead, blocked map[node.Addr]bool
}

func newProbeRig(t *testing.T, judges edgefd.Factory) *probeRig {
	r := &probeRig{t: t, clk: simclock.NewManual(time.Unix(0, 0)), sent: make(chan sentProbe, 256),
		dead: map[node.Addr]bool{}, blocked: map[node.Addr]bool{}}
	r.start = r.clk.Now()
	s := DefaultSettings()
	s.K, s.H, s.L = 3, 3, 1
	s.Clock, s.FailureDetector = r.clk, judges
	members := make([]node.Endpoint, 17)
	for i := range members {
		members[i] = endpoint(i)
	}
	r.subjects, _ = view.NewWithMembers(s.K, members).UniqueSubjectsOf(members[0].Addr)
	if len(r.subjects) != 3 {
		t.Fatalf("member 0 of 17 has subjects %v, want three", r.subjects)
	}
	c, err := newCluster(members[0].Addr, s, r)
	if err != nil {
		t.Fatal(err)
	}
	c.me = members[0]
	c.initialize(members)
	r.c = c
	t.Cleanup(func() {
		// Leave no probe behind for the next test to count.
		c.Stop()
		r.clk.Advance(s.probeTimeout())
		r.settle(0)
	})
	return r
}

func (r *probeRig) Register(node.Addr, transport.Handler) error { return nil }
func (r *probeRig) Deregister(node.Addr)                        {}
func (r *probeRig) Client(node.Addr) transport.Client           { return r }
func (r *probeRig) SendBestEffort(node.Addr, *remoting.Request) {}

func (r *probeRig) Send(ctx context.Context, to node.Addr, _ *remoting.Request) (*remoting.Response, error) {
	r.mu.Lock()
	dead, blocked := r.dead[to], r.blocked[to]
	r.mu.Unlock()
	var done <-chan struct{}
	if blocked {
		done = ctx.Done() // armed before the test learns of the probe
	}
	r.sent <- sentProbe{to, r.clk.Now()}
	switch {
	case blocked:
		<-done
		return nil, ctx.Err()
	case dead:
		return nil, transport.ErrUnreachable
	}
	return &remoting.Response{Probe: &remoting.ProbeResponse{Status: remoting.NodeOK}}, nil
}

// mark puts a subject into r.dead or r.blocked.
func (r *probeRig) mark(m map[node.Addr]bool, a node.Addr) {
	r.mu.Lock()
	m[a] = true
	r.mu.Unlock()
}

// advance moves the clock to the given offset from the start, once the driver
// has gone around its loop: a pre-join is answered by the engine, so the
// timers the last step asked for are armed when it returns.
func (r *probeRig) advance(to time.Duration) {
	r.t.Helper()
	if _, err := r.c.HandleRequest(context.Background(), "joiner:1", preJoinRequest("joiner:1", node.NewID())); err != nil {
		r.t.Fatal(err)
	}
	r.syncs++
	r.clk.Advance(r.start.Add(to).Sub(r.clk.Now()))
}

// round waits for one round's probes: exactly one per subject, all sent at
// the given offset from the start.
func (r *probeRig) round(at time.Duration) {
	r.t.Helper()
	var got []node.Addr
	for range r.subjects {
		select {
		case p := <-r.sent:
			if p.at.Sub(r.start) != at {
				r.t.Fatalf("a probe of %s was sent at %v, want the round at %v", p.to, p.at.Sub(r.start), at)
			}
			got = append(got, p.to)
		case <-time.After(5 * time.Second):
			r.t.Fatalf("the round at %v probed %v of %v", at, got, r.subjects)
		}
	}
	if !slices.Equal(node.SortAddrs(got), node.SortAddrs(slices.Clone(r.subjects))) {
		r.t.Fatalf("the round at %v probed %v, want %v", at, got, r.subjects)
	}
}

// none fails if a probe was sent that no round accounted for.
func (r *probeRig) none(when string) {
	r.t.Helper()
	select {
	case p := <-r.sent:
		r.t.Fatalf("%s: a probe of %s was sent at %v", when, p.to, p.at.Sub(r.start))
	default:
	}
}

// filed waits until the engine has stepped exactly n probe outcomes.
func (r *probeRig) filed(n int64, when string) {
	r.t.Helper()
	stepped := func() int64 { return r.c.emetrics.EventsProcessed.Value() - r.syncs }
	if !waitUntil(r.t, 5*time.Second, func() bool { return stepped() == n }) {
		r.t.Fatalf("%s: the engine stepped %d outcomes, want %d", when, stepped(), n)
	}
}

// settle returns once at most inFlight probe goroutines are left.
func (r *probeRig) settle(inFlight int) {
	r.t.Helper()
	stacks := make([]byte, 1<<20)
	probes := func() int {
		return bytes.Count(stacks[:runtime.Stack(stacks, true)], []byte("core.(*Cluster).probe("))
	}
	for deadline := time.Now().Add(5 * time.Second); probes() > inFlight; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("%d probes in flight, want at most %d", probes(), inFlight)
		}
	}
}

// TestBlockedProbeDelaysNeitherItsRoundNorTheNext: one subject's Send blocks
// until its timeout, half an interval. The other probes of its round come
// back to the engine at once, the blocked one is filed when it times out,
// inside its round, and the next round leaves on time.
func TestBlockedProbeDelaysNeitherItsRoundNorTheNext(t *testing.T) {
	interval := DefaultSettings().ProbeInterval
	r := newProbeRig(t, consecutive(2))
	r.mark(r.blocked, r.subjects[1])
	r.mark(r.dead, r.subjects[2])

	r.advance(interval)
	r.round(interval)
	r.filed(2, "the first round, one probe blocked")
	r.advance(3 * interval / 2)
	r.filed(3, "the first round's timeout")
	r.advance(2 * interval)
	r.round(2 * interval)
	r.filed(5, "the second round, one probe blocked")
	r.settle(1)
	r.advance(5 * interval / 2)
	r.filed(6, "the second round's timeout")
	r.settle(0)
}

// TestStopReturnsWhileAProbeIsBlocked: Stop does not wait for a probe in
// flight, leaves no timer of the member's armed, and nothing is probed after
// it; the blocked probe ends at its timeout.
func TestStopReturnsWhileAProbeIsBlocked(t *testing.T) {
	interval := DefaultSettings().ProbeInterval
	r := newProbeRig(t, consecutive(1))
	r.mark(r.blocked, r.subjects[0])
	r.advance(interval)
	r.round(interval)
	r.filed(2, "the first round")

	stopped := make(chan struct{})
	go func() { r.c.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop waits for the blocked probe")
	}
	if got := r.clk.PendingWaiters(); got != 1 {
		t.Fatalf("%d clock waiters after Stop, want only the blocked probe's deadline", got)
	}
	r.clk.Advance(3 * interval)
	r.settle(0)
	r.none("after Stop")
}
