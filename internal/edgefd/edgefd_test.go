package edgefd

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// Every test here steps a scheduler by hand on a manual clock — tick, then
// each probe through Probe on the test's goroutine — so a verdict is asserted
// on the very probe that completes it. When probe rounds are due, and what
// the membership engine does with a verdict, is core's to test.

const (
	testInterval = time.Second
	testTimeout  = 500 * time.Millisecond
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

// verdict is one completed verdict: whom it named, and when.
type verdict struct {
	subject node.Addr
	at      time.Time
}

// stepped is a scheduler whose rounds the test runs by hand, the client its
// probes go through, and the verdicts it reached.
type stepped struct {
	s        *Scheduler
	client   transport.Client
	clk      *simclock.Manual
	verdicts []verdict
}

// newStepped watches subjects through client on a fresh manual clock.
func newStepped(judges Factory, client transport.Client, subjects ...node.Addr) *stepped {
	st := &stepped{s: NewScheduler(judges), client: client, clk: simclock.NewManual(testStart)}
	st.s.Watch(subjects)
	return st
}

// steppedSubject watches one scripted subject.
func steppedSubject(judges Factory, subject *scriptedSubject) *stepped {
	return newStepped(judges, &scriptedClient{subject: subject}, "subject:1")
}

var probeReq = &remoting.Request{Probe: &remoting.ProbeRequest{Sender: "observer:1"}}

// step is one probe round: an interval passes, Tick says whom to probe, and
// the probes run here, so that every outcome is filed — and every verdict
// recorded — when step returns.
func (st *stepped) step() {
	st.clk.Advance(testInterval)
	gen, subjects := st.s.Tick()
	for i, subject := range subjects {
		ok := Probe(st.client, st.clk, testTimeout, probeReq, subject)
		if st.s.Outcome(gen, i, ok, st.clk.Now()) {
			st.verdicts = append(st.verdicts, verdict{subject, st.clk.Now()})
		}
	}
}

// at is the verdict on a subject reached at the given offset from the start.
func at(offset time.Duration, subject node.Addr) verdict {
	return verdict{subject, testStart.Add(offset)}
}

func TestPingPongDetectsPersistentFailure(t *testing.T) {
	subject := &scriptedSubject{healthy: false}
	st := steppedSubject(NewPingPongFactory(DefaultPingPongOptions()), subject)
	// The window requires 10 probes before deciding.
	for probe := 1; probe <= 9; probe++ {
		if st.step(); len(st.verdicts) != 0 {
			t.Fatalf("detector decided after only %d probes; the 10-probe window should be filled first", probe)
		}
	}
	st.step()
	want := []verdict{at(10*testInterval, "subject:1")}
	if got := st.verdicts; !slices.Equal(got, want) {
		t.Fatalf("after 10 failed probes the verdicts are %+v, want %+v", got, want)
	}
	if subject.probeCount() != 10 {
		t.Errorf("%d probes sent in 10 rounds", subject.probeCount())
	}
}

func TestPingPongDoesNotReportHealthySubject(t *testing.T) {
	subject := &scriptedSubject{healthy: true, status: remoting.NodeOK}
	st := steppedSubject(NewPingPongFactory(DefaultPingPongOptions()), subject)
	for i := 0; i < 30; i++ {
		st.step()
	}
	if len(st.verdicts) != 0 {
		t.Fatal("healthy subject was reported as faulty")
	}
}

func TestPingPongBootstrappingSubjectIsHealthy(t *testing.T) {
	subject := &scriptedSubject{healthy: true, status: remoting.NodeBootstrapping}
	st := steppedSubject(NewPingPongFactory(DefaultPingPongOptions()), subject)
	for i := 0; i < 20; i++ {
		st.step()
	}
	if len(st.verdicts) != 0 {
		t.Fatal("bootstrapping subject must not be reported as faulty")
	}
}

func TestPingPongReportsOnlyOnce(t *testing.T) {
	subject := &scriptedSubject{healthy: false}
	st := steppedSubject(NewPingPongFactory(DefaultPingPongOptions()), subject)
	// Keep probing long after the verdict; no further reports should be produced.
	for i := 0; i < 40; i++ {
		st.step()
	}
	if len(st.verdicts) != 1 {
		t.Fatalf("detector reported %d times, want exactly 1", len(st.verdicts))
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
	st := newStepped(NewPingPongFactory(DefaultPingPongOptions()), failEvery(5), "subject:1")
	for i := 0; i < 60; i++ {
		st.step()
	}
	if len(st.verdicts) != 0 {
		t.Fatal("20% probe loss should not trigger the 40% threshold")
	}
}

// consecutive is a detector whose judges fail an edge on its n-th failed
// probe in a row: a ping-pong window of n probes, all of them failed.
func consecutive(n int) Factory {
	return NewPingPongFactory(PingPongOptions{WindowSize: n, FailureThreshold: 1})
}

func TestCountingDetectorConsecutiveFailures(t *testing.T) {
	subject := &scriptedSubject{healthy: false}
	st := steppedSubject(consecutive(3), subject)
	st.step()
	if st.step(); len(st.verdicts) != 0 {
		t.Fatal("counting detector fired after 2 probes, want 3")
	}
	if st.step(); len(st.verdicts) != 1 {
		t.Fatal("counting detector did not fire on the third failure in a row")
	}
}

func TestCountingDetectorResetsOnSuccess(t *testing.T) {
	// Alternate failure/success so no streak of 3 forms.
	st := newStepped(consecutive(3), failEvery(2), "subject:1")
	for i := 0; i < 50; i++ {
		st.step()
	}
	if len(st.verdicts) != 0 {
		t.Fatal("alternating success/failure must not trigger a 3-consecutive-failure detector")
	}
}

// TestWatchWithTheSameSubjectsRestartsTheWindow: nine failed probes, then the
// same subject is watched again, as after a view change elsewhere in the
// membership — and the verdict is ten probes away again, not one.
//
// ROADMAP item 3 (a surviving edge keeps its window) flips this assertion.
func TestWatchWithTheSameSubjectsRestartsTheWindow(t *testing.T) {
	subject := &scriptedSubject{healthy: false}
	st := steppedSubject(NewPingPongFactory(DefaultPingPongOptions()), subject)
	for i := 0; i < 9; i++ {
		st.step()
	}
	st.s.Watch([]node.Addr{"subject:1"})
	for probe := 1; probe <= 9; probe++ {
		if st.step(); len(st.verdicts) != 0 {
			t.Fatalf("verdict on probe %d of the new configuration: the old window survived", probe)
		}
	}
	st.step()
	want := []verdict{at(19*testInterval, "subject:1")}
	if got := st.verdicts; !slices.Equal(got, want) {
		t.Fatalf("verdicts %+v, want %+v", got, want)
	}
}

// TestVerdictOnTenthColdProbeOrFourthWarmFailure: of three subjects, one that
// never answers is reported by the tenth round after Watch — the window fills
// first — and one that stops answering after a full healthy window by its
// fourth failure; the third, healthy throughout, never.
func TestVerdictOnTenthColdProbeOrFourthWarmFailure(t *testing.T) {
	subjects := []node.Addr{"s1:1", "s2:1", "s3:1"}
	cold, warm := subjects[0], subjects[2]
	dead := map[node.Addr]bool{cold: true}
	st := newStepped(NewPingPongFactory(DefaultPingPongOptions()), transportClientFunc(
		func(_ context.Context, to node.Addr, _ *remoting.Request) (*remoting.Response, error) {
			if dead[to] {
				return nil, transport.ErrUnreachable
			}
			return &remoting.Response{Probe: &remoting.ProbeResponse{Status: remoting.NodeOK}}, nil
		}), subjects...)
	verdicts := func(when string, want ...verdict) {
		t.Helper()
		if !slices.Equal(st.verdicts, want) {
			t.Fatalf("%s the verdicts are %+v, want %+v", when, st.verdicts, want)
		}
	}
	for n := 1; n <= 9; n++ {
		st.step()
		verdicts("before the cold window is full")
	}
	st.step()
	verdicts("after 10 rounds", at(10*testInterval, cold))
	dead[warm] = true
	for n := 11; n <= 13; n++ {
		st.step()
		verdicts("before the fourth failure of a warm edge", at(10*testInterval, cold))
	}
	st.step()
	verdicts("after the fourth failure", at(10*testInterval, cold), at(14*testInterval, warm))
}

// TestOutcomeOfAnOlderGenerationChangesNothing: what a probe issued before the
// last watch found is dropped — it reaches no judge, completes no verdict, and
// its index, which may lie past the new and shorter subject list, is not used.
func TestOutcomeOfAnOlderGenerationChangesNothing(t *testing.T) {
	s := NewScheduler(consecutive(2))
	s.Watch([]node.Addr{"a:1", "b:1", "c:1"})
	old, subjects := s.Tick()
	if len(subjects) != 3 {
		t.Fatalf("tick names %v", subjects)
	}
	s.Watch([]node.Addr{"a:1"})
	for i := range subjects {
		for n := 0; n < 3; n++ {
			if s.Outcome(old, i, false, testStart) {
				t.Fatalf("a failure of generation %d completed a verdict on subject %d of generation %d", old, i, s.gen)
			}
		}
	}
	// The stale failures were not counted: a's streak starts now.
	gen, _ := s.Tick()
	if s.Outcome(gen, 0, false, testStart) {
		t.Fatal("the first failure of this generation completed a 2-failure verdict")
	}
	if !s.Outcome(gen, 0, false, testStart) {
		t.Fatal("the second failure of this generation completed no verdict")
	}
	if s.Outcome(gen, 0, false, testStart) {
		t.Fatal("an edge was reported twice")
	}
}
