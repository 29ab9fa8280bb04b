package edgefd

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// Every test here runs on a manual clock. The detector tests step the
// scheduler by hand — tick, then each probe on the test's goroutine — so a
// verdict is asserted on the very probe that completes it; the tests of the
// monitor's timing let the clock's timer drive it and read what the transport
// saw, and when.

const (
	testInterval = time.Second
	testTimeout  = 500 * time.Millisecond
	testConfig   = uint64(7)
)

var testStart = time.Unix(0, 0)

// scriptedSubject answers probes according to a controllable health flag.
type scriptedSubject struct {
	mu      sync.Mutex
	healthy bool
	status  remoting.NodeStatus
	probes  int
}

func (s *scriptedSubject) setHealthy(h bool) {
	s.mu.Lock()
	s.healthy = h
	s.mu.Unlock()
}

func (s *scriptedSubject) probeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probes
}

// scriptedClient routes probes to the scripted subject.
type scriptedClient struct {
	subject *scriptedSubject
}

func (c *scriptedClient) Send(_ context.Context, _ node.Addr, req *remoting.Request) (*remoting.Response, error) {
	c.subject.mu.Lock()
	defer c.subject.mu.Unlock()
	c.subject.probes++
	if req.Probe == nil || !c.subject.healthy {
		return nil, transport.ErrUnreachable
	}
	return &remoting.Response{Probe: &remoting.ProbeResponse{Status: c.subject.status}}, nil
}

func (c *scriptedClient) SendBestEffort(node.Addr, *remoting.Request) {}

var _ transport.Client = (*scriptedClient)(nil)

// transportClientFunc adapts a function to transport.Client.
type transportClientFunc func(ctx context.Context, to node.Addr, req *remoting.Request) (*remoting.Response, error)

func (f transportClientFunc) Send(ctx context.Context, to node.Addr, req *remoting.Request) (*remoting.Response, error) {
	return f(ctx, to, req)
}
func (f transportClientFunc) SendBestEffort(node.Addr, *remoting.Request) {}

// verdict is one failure callback: what it named, and when it ran.
type verdict struct {
	config  uint64
	subject node.Addr
	at      time.Time
}

// failureRecorder collects failure callbacks.
type failureRecorder struct {
	clk   simclock.Clock
	mu    sync.Mutex
	calls []verdict
}

func (r *failureRecorder) callback(config uint64, subject node.Addr) {
	r.mu.Lock()
	r.calls = append(r.calls, verdict{config, subject, r.clk.Now()})
	r.mu.Unlock()
}

func (r *failureRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.calls)
}

func (r *failureRecorder) verdicts() []verdict {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.calls)
}

// newTestMonitor builds a monitor on a fresh manual clock. It watches nobody.
func newTestMonitor(judges Factory, client transport.Client) (*Monitor, *simclock.Manual, *failureRecorder) {
	clk := simclock.NewManual(testStart)
	rec := &failureRecorder{clk: clk}
	return NewMonitor(Params{
		Observer:  "observer:1",
		Client:    client,
		Clock:     clk,
		Interval:  testInterval,
		Timeout:   testTimeout,
		Judges:    judges,
		OnFailure: rec.callback,
	}), clk, rec
}

// stepped is a monitor of one scripted subject whose rounds the test runs by
// hand: the scheduler is given its subject directly, so no timer is armed.
func stepped(judges Factory, subject *scriptedSubject) (*Monitor, *simclock.Manual, *failureRecorder) {
	m, clk, rec := newTestMonitor(judges, &scriptedClient{subject: subject})
	m.config = testConfig
	m.sched.watch([]node.Addr{"subject:1"})
	return m, clk, rec
}

// step is one probe round without the timer: an interval passes, tick says
// whom to probe, and the probes run here, so that every outcome is filed — and
// every verdict delivered — when step returns.
func step(m *Monitor, clk *simclock.Manual) {
	clk.Advance(m.p.Interval)
	m.mu.Lock()
	gen, subjects := m.sched.tick()
	m.mu.Unlock()
	for i, s := range subjects {
		m.probe(gen, i, s)
	}
}

func TestPingPongDetectsPersistentFailure(t *testing.T) {
	subject := &scriptedSubject{healthy: false}
	m, clk, rec := stepped(NewPingPongFactory(DefaultPingPongOptions()), subject)
	// The window requires 10 probes before deciding.
	for probe := 1; probe <= 9; probe++ {
		if step(m, clk); rec.count() != 0 {
			t.Fatalf("detector decided after only %d probes; the 10-probe window should be filled first", probe)
		}
	}
	step(m, clk)
	want := []verdict{{testConfig, "subject:1", testStart.Add(10 * testInterval)}}
	if got := rec.verdicts(); !slices.Equal(got, want) {
		t.Fatalf("after 10 failed probes the verdicts are %+v, want %+v", got, want)
	}
	if subject.probeCount() != 10 {
		t.Errorf("%d probes sent in 10 rounds", subject.probeCount())
	}
}

func TestPingPongDoesNotReportHealthySubject(t *testing.T) {
	subject := &scriptedSubject{healthy: true, status: remoting.NodeOK}
	m, clk, rec := stepped(NewPingPongFactory(DefaultPingPongOptions()), subject)
	for i := 0; i < 30; i++ {
		step(m, clk)
	}
	if rec.count() != 0 {
		t.Fatal("healthy subject was reported as faulty")
	}
}

func TestPingPongBootstrappingSubjectIsHealthy(t *testing.T) {
	subject := &scriptedSubject{healthy: true, status: remoting.NodeBootstrapping}
	m, clk, rec := stepped(NewPingPongFactory(DefaultPingPongOptions()), subject)
	for i := 0; i < 20; i++ {
		step(m, clk)
	}
	if rec.count() != 0 {
		t.Fatal("bootstrapping subject must not be reported as faulty")
	}
}

func TestPingPongReportsOnlyOnce(t *testing.T) {
	subject := &scriptedSubject{healthy: false}
	m, clk, rec := stepped(NewPingPongFactory(DefaultPingPongOptions()), subject)
	// Keep probing long after the verdict; no further reports should be produced.
	for i := 0; i < 40; i++ {
		step(m, clk)
	}
	if rec.count() != 1 {
		t.Fatalf("detector reported %d times, want exactly 1", rec.count())
	}
	if subject.probeCount() != 40 {
		t.Fatalf("%d probes in 40 rounds: a reported edge is still probed", subject.probeCount())
	}
}

// failEvery is a client whose every nth probe fails.
func failEvery(n int) transport.Client {
	sent := 0
	return transportClientFunc(func(context.Context, node.Addr, *remoting.Request) (*remoting.Response, error) {
		if sent++; sent%n == 0 {
			return nil, transport.ErrUnreachable
		}
		return &remoting.Response{Probe: &remoting.ProbeResponse{Status: remoting.NodeOK}}, nil
	})
}

func TestPingPongToleratesMinorLoss(t *testing.T) {
	// A subject that fails 2 of every 10 probes stays below the 40% threshold.
	m, clk, rec := stepped(NewPingPongFactory(DefaultPingPongOptions()), nil)
	m.p.Client = failEvery(5)
	for i := 0; i < 60; i++ {
		step(m, clk)
	}
	if rec.count() != 0 {
		t.Fatal("20% probe loss should not trigger the 40% threshold")
	}
}

func TestCountingDetectorConsecutiveFailures(t *testing.T) {
	subject := &scriptedSubject{healthy: false}
	m, clk, rec := stepped(NewCountingFactory(3), subject)
	step(m, clk)
	if step(m, clk); rec.count() != 0 {
		t.Fatal("counting detector fired after 2 probes, want 3")
	}
	if step(m, clk); rec.count() != 1 {
		t.Fatal("counting detector did not fire on the third failure in a row")
	}
}

func TestCountingDetectorResetsOnSuccess(t *testing.T) {
	// Alternate failure/success so no streak of 3 forms.
	m, clk, rec := stepped(NewCountingFactory(3), nil)
	m.p.Client = failEvery(2)
	for i := 0; i < 50; i++ {
		step(m, clk)
	}
	if rec.count() != 0 {
		t.Fatal("alternating success/failure must not trigger a 3-consecutive-failure detector")
	}
}

func TestPhiAccrualDetectsSilence(t *testing.T) {
	subject := &scriptedSubject{healthy: true, status: remoting.NodeOK}
	opts := DefaultPhiAccrualOptions()
	opts.Threshold = 3
	opts.MinStdDev = time.Millisecond
	m, clk, rec := stepped(NewPhiAccrualFactory(opts), subject)
	// Healthy phase establishes a baseline of inter-success intervals.
	for i := 0; i < 20; i++ {
		step(m, clk)
	}
	subject.setHealthy(false)
	for probe := 1; rec.count() == 0; probe++ {
		if probe > 10 {
			t.Fatal("phi-accrual detector never suspected the silent subject")
		}
		step(m, clk)
	}
}

func TestPhiAccrualStaysQuietWhileHealthy(t *testing.T) {
	subject := &scriptedSubject{healthy: true, status: remoting.NodeOK}
	m, clk, rec := stepped(NewPhiAccrualFactory(DefaultPhiAccrualOptions()), subject)
	for i := 0; i < 40; i++ {
		step(m, clk)
	}
	if rec.count() != 0 {
		t.Fatal("phi-accrual detector reported a healthy subject")
	}
}

// TestWatchWithTheSameSubjectsRestartsTheWindow: nine failed probes, then the
// same subject is watched again, as after a view change elsewhere in the
// membership — and the verdict is ten probes away again, not one.
//
// ROADMAP item 2 (a surviving edge keeps its window) flips this assertion.
func TestWatchWithTheSameSubjectsRestartsTheWindow(t *testing.T) {
	subject := &scriptedSubject{healthy: false}
	m, clk, rec := stepped(NewPingPongFactory(DefaultPingPongOptions()), subject)
	for i := 0; i < 9; i++ {
		step(m, clk)
	}
	m.config = testConfig + 1
	m.sched.watch([]node.Addr{"subject:1"})
	for probe := 1; probe <= 9; probe++ {
		if step(m, clk); rec.count() != 0 {
			t.Fatalf("verdict on probe %d of the new configuration: the old window survived", probe)
		}
	}
	step(m, clk)
	want := []verdict{{testConfig + 1, "subject:1", testStart.Add(19 * testInterval)}}
	if got := rec.verdicts(); !slices.Equal(got, want) {
		t.Fatalf("verdicts %+v, want %+v", got, want)
	}
}

// TestOutcomeOfAnOlderGenerationChangesNothing: what a probe issued before the
// last watch found is dropped — it reaches no judge, completes no verdict, and
// its index, which may lie past the new and shorter subject list, is not used.
func TestOutcomeOfAnOlderGenerationChangesNothing(t *testing.T) {
	s := scheduler{judges: NewCountingFactory(2)}
	s.watch([]node.Addr{"a:1", "b:1", "c:1"})
	old, subjects := s.tick()
	if len(subjects) != 3 {
		t.Fatalf("tick names %v", subjects)
	}
	s.watch([]node.Addr{"a:1"})
	for i := range subjects {
		for n := 0; n < 3; n++ {
			if s.outcome(old, i, false, testStart) {
				t.Fatalf("a failure of generation %d completed a verdict on subject %d of generation %d", old, i, s.gen)
			}
		}
	}
	// The stale failures were not counted: a's streak starts now.
	gen, _ := s.tick()
	if s.outcome(gen, 0, false, testStart) {
		t.Fatal("the first failure of this generation completed a 2-failure verdict")
	}
	if !s.outcome(gen, 0, false, testStart) {
		t.Fatal("the second failure of this generation completed no verdict")
	}
	if s.outcome(gen, 0, false, testStart) {
		t.Fatal("an edge was reported twice")
	}
}

// --- the monitor's timing, driven by its timer -----------------------------------

// sentProbe is one probe as the transport saw it.
type sentProbe struct {
	to node.Addr
	at time.Time
}

// liveRig is a monitor driven by its own timer on a manual clock, and the
// transport it probes through: every probe is recorded on sent and then
// answered — healthy subjects with NodeOK, dead ones with an error, a blocked
// one when its context ends.
type liveRig struct {
	t    *testing.T
	m    *Monitor
	clk  *simclock.Manual
	rec  *failureRecorder
	sent chan sentProbe

	mu            sync.Mutex
	dead, blocked map[node.Addr]bool
}

func newLiveRig(t *testing.T, judges Factory, timeout time.Duration) *liveRig {
	r := &liveRig{t: t, sent: make(chan sentProbe, 256), dead: map[node.Addr]bool{}, blocked: map[node.Addr]bool{}}
	r.m, r.clk, r.rec = newTestMonitor(judges, r)
	r.m.p.Timeout = timeout
	t.Cleanup(func() {
		// Leave no probe behind for the next test to count.
		r.m.Stop()
		r.clk.Advance(timeout)
		r.settle(0)
	})
	return r
}

// mark puts a subject into r.dead or r.blocked.
func (r *liveRig) mark(m map[node.Addr]bool, a node.Addr) {
	r.mu.Lock()
	m[a] = true
	r.mu.Unlock()
}

func (r *liveRig) Send(ctx context.Context, to node.Addr, _ *remoting.Request) (*remoting.Response, error) {
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

func (r *liveRig) SendBestEffort(node.Addr, *remoting.Request) {}

// advance moves the clock to the given offset from the start.
func (r *liveRig) advance(to time.Duration) {
	r.clk.Advance(testStart.Add(to).Sub(r.clk.Now()))
}

// round waits for one round's probes: exactly one per subject, all sent at
// the given offset from the start.
func (r *liveRig) round(subjects []node.Addr, at time.Duration) {
	r.t.Helper()
	var got []node.Addr
	for range subjects {
		select {
		case p := <-r.sent:
			if p.at.Sub(testStart) != at {
				r.t.Fatalf("a probe of %s was sent at %v, want the round at %v", p.to, p.at.Sub(testStart), at)
			}
			got = append(got, p.to)
		case <-time.After(5 * time.Second):
			r.t.Fatalf("the round at %v probed %v of %v", at, got, subjects)
		}
	}
	if !slices.Equal(node.SortAddrs(got), node.SortAddrs(slices.Clone(subjects))) {
		r.t.Fatalf("the round at %v probed %v, want %v", at, got, subjects)
	}
}

// none fails if a probe was sent that no round accounted for.
func (r *liveRig) none(when string) {
	r.t.Helper()
	select {
	case p := <-r.sent:
		r.t.Fatalf("%s: a probe of %s was sent at %v", when, p.to, p.at.Sub(testStart))
	default:
	}
}

// settle returns once at most inFlight probe goroutines are left: every other
// probe has filed its outcome and delivered its verdict.
func (r *liveRig) settle(inFlight int) {
	r.t.Helper()
	stacks := make([]byte, 1<<20)
	probes := func() int {
		return bytes.Count(stacks[:runtime.Stack(stacks, true)], []byte("edgefd.(*Monitor).probe("))
	}
	for deadline := time.Now().Add(5 * time.Second); probes() > inFlight; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("%d probes in flight, want at most %d", probes(), inFlight)
		}
	}
}

// verdicts fails unless exactly these verdicts have been delivered, in order.
func (r *liveRig) verdicts(when string, want ...verdict) {
	r.t.Helper()
	if got := r.rec.verdicts(); !slices.Equal(got, want) {
		r.t.Fatalf("%s the verdicts are %+v, want %+v", when, got, want)
	}
}

// at is the verdict on a subject of testConfig delivered at the given offset.
func at(offset time.Duration, subject node.Addr) verdict {
	return verdict{testConfig, subject, testStart.Add(offset)}
}

var three = []node.Addr{"s1:1", "s2:1", "s3:1"}

// TestFirstProbeIsOneIntervalAfterWatch: Watch arms one timer; the first round
// goes out exactly one interval later and the next ones on that beat, and a
// second Watch moves the beat to its own time.
func TestFirstProbeIsOneIntervalAfterWatch(t *testing.T) {
	r := newLiveRig(t, NewPingPongFactory(DefaultPingPongOptions()), testTimeout)
	r.m.Watch(testConfig, three)
	if got := r.clk.PendingWaiters(); got != 1 {
		t.Fatalf("%d clock waiters for a monitor of %d subjects, want its one timer", got, len(three))
	}
	r.advance(testInterval - time.Nanosecond)
	r.none("before the first interval has passed")
	r.advance(testInterval)
	r.round(three, testInterval)
	r.advance(2 * testInterval)
	r.round(three, 2*testInterval)
	if got := r.clk.PendingWaiters(); got != 1 {
		t.Fatalf("%d clock waiters between rounds, want 1", got)
	}

	// 0.3 intervals into the third, the subjects change: the round that was 0.7
	// intervals away is off, the next one is a whole interval after the Watch.
	r.advance(23 * testInterval / 10)
	two := three[:2]
	r.m.Watch(testConfig+1, two)
	r.advance(3 * testInterval)
	r.none("at the beat of the configuration left behind")
	r.advance(33 * testInterval / 10)
	r.round(two, 33*testInterval/10)
	r.none("after the rounds")
}

// TestVerdictOnTenthColdProbeOrFourthWarmFailure: with the timer driving, a
// subject that never answers is reported by the tenth round after Watch — the
// window fills first — and one that stops answering after a full healthy
// window by its fourth failure. The verdicts name the watched configuration.
func TestVerdictOnTenthColdProbeOrFourthWarmFailure(t *testing.T) {
	r := newLiveRig(t, NewPingPongFactory(DefaultPingPongOptions()), testTimeout)
	cold, warm := three[0], three[2]
	r.mark(r.dead, cold)
	r.m.Watch(testConfig, three)
	round := func(n time.Duration) {
		t.Helper()
		r.advance(n * testInterval)
		r.round(three, n*testInterval)
		r.settle(0)
	}
	for n := time.Duration(1); n <= 9; n++ {
		round(n)
		r.verdicts("before the cold window is full")
	}
	round(10)
	r.verdicts("after 10 rounds", at(10*testInterval, cold))

	r.mark(r.dead, warm)
	for n := time.Duration(11); n <= 13; n++ {
		round(n)
		r.verdicts("before the fourth failure of a warm edge", at(10*testInterval, cold))
	}
	round(14)
	r.verdicts("after the fourth failure", at(10*testInterval, cold), at(14*testInterval, warm))
}

// TestBlockedProbeDelaysNeitherItsRoundNorTheNext: one subject's Send blocks
// until its timeout, here one and a half intervals. The other probes of its
// round are answered and judged at once, and the next round leaves on time
// with the first still in flight.
func TestBlockedProbeDelaysNeitherItsRoundNorTheNext(t *testing.T) {
	r := newLiveRig(t, NewCountingFactory(2), 3*testInterval/2)
	slow, dead := three[1], three[2]
	r.mark(r.blocked, slow)
	r.mark(r.dead, dead)
	r.m.Watch(testConfig, three)

	r.advance(testInterval)
	r.round(three, testInterval)
	r.settle(1)
	r.advance(2 * testInterval)
	r.round(three, 2*testInterval)
	r.settle(2)
	// Two rounds in, the dead neighbour has its two failures; the slow subject
	// has none yet.
	r.verdicts("with two probes blocked", at(2*testInterval, dead))
	// The blocked probes time out at 2.5 and 3.5 intervals, with a third
	// leaving in between.
	r.advance(5 * testInterval / 2)
	r.settle(1)
	r.verdicts("after one timeout", at(2*testInterval, dead))
	r.advance(3 * testInterval)
	r.round(three, 3*testInterval)
	r.advance(7 * testInterval / 2)
	r.settle(1)
	r.verdicts("after two timeouts", at(2*testInterval, dead), at(7*testInterval/2, slow))
}

// TestStopReturnsWhileAProbeIsBlocked: Stop does not wait for a probe in
// flight, and what that probe finds afterwards — a failure that would have
// been the verdict — is told to nobody.
func TestStopReturnsWhileAProbeIsBlocked(t *testing.T) {
	r := newLiveRig(t, NewCountingFactory(1), testTimeout)
	one := three[:1]
	r.mark(r.blocked, one[0])
	r.m.Watch(testConfig, one)
	r.advance(testInterval)
	r.round(one, testInterval)

	stopped := make(chan struct{})
	go func() { r.m.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop waits for the blocked probe")
	}
	if got := r.clk.PendingWaiters(); got != 1 {
		t.Fatalf("%d clock waiters after Stop, want only the blocked probe's deadline", got)
	}
	r.advance(testInterval + testTimeout)
	r.settle(0)
	r.verdicts("after Stop")
	r.none("after Stop")
}

func TestDoubleStopAndWatchAfterStop(t *testing.T) {
	r := newLiveRig(t, NewCountingFactory(1), testTimeout)
	r.mark(r.dead, three[0])
	r.m.Stop()
	r.m.Stop()
	r.m.Watch(testConfig, three) // watching after Stop is a no-op
	if got := r.clk.PendingWaiters(); got != 0 {
		t.Fatalf("a stopped monitor armed %d timers", got)
	}
	r.advance(3 * testInterval)
	r.none("a stopped monitor must not probe")
	r.verdicts("from a stopped monitor")
}

func TestStopHaltsProbing(t *testing.T) {
	r := newLiveRig(t, NewCountingFactory(3), testTimeout)
	r.m.Watch(testConfig, three)
	r.advance(testInterval)
	r.round(three, testInterval)
	r.settle(0)
	r.m.Stop()
	if got := r.clk.PendingWaiters(); got != 0 {
		t.Fatalf("%d timers armed after Stop", got)
	}
	r.advance(4 * testInterval)
	r.none("probing continued after Stop")
}

func TestMeanStd(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Errorf("mean = %v, want 5", mean)
	}
	if std < 1.9 || std > 2.1 {
		t.Errorf("std = %v, want 2", std)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("meanStd of empty input should be zeros")
	}
}

func TestPhiValueMonotonicInElapsed(t *testing.T) {
	prev := 0.0
	for i := 1; i <= 10; i++ {
		phi := phiValue(float64(i), 1.0, 0.5)
		if phi < prev {
			t.Fatalf("phi should not decrease as silence grows: phi(%d)=%v < %v", i, phi, prev)
		}
		prev = phi
	}
}
