package edgefd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
)

// --- reference judges ------------------------------------------------------------

// The judges as they were before the windows became fixed rings: a slice that
// is appended to and re-sliced, recounted for every verdict. The rings must
// give the same verdict after every probe.

func refPingPongJudge(opts PingPongOptions) Judge {
	window := make([]bool, 0, opts.WindowSize)
	return func(success bool, _ time.Time) bool {
		window = append(window, !success)
		if len(window) > opts.WindowSize {
			window = window[1:]
		}
		if len(window) < opts.WindowSize {
			return false
		}
		failures := 0
		for _, failed := range window {
			if failed {
				failures++
			}
		}
		return float64(failures) >= opts.FailureThreshold*float64(opts.WindowSize)
	}
}

func refPhiAccrualJudge(opts PhiAccrualOptions) Judge {
	var lastSuccess time.Time
	var intervals []float64
	return func(success bool, now time.Time) bool {
		if success {
			if !lastSuccess.IsZero() {
				intervals = append(intervals, now.Sub(lastSuccess).Seconds())
				if len(intervals) > 100 {
					intervals = intervals[1:]
				}
			}
			lastSuccess = now
			return false
		}
		if len(intervals) < opts.MinSamples || lastSuccess.IsZero() {
			return false
		}
		mean, std := meanStd(intervals)
		if minStd := opts.MinStdDev.Seconds(); std < minStd {
			std = minStd
		}
		return phiValue(now.Sub(lastSuccess).Seconds(), mean, std) >= opts.Threshold
	}
}

// meanStd returns the mean and standard deviation of the samples, in two
// passes.
func meanStd(samples []float64) (mean, std float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean = sum / float64(len(samples))
	var variance float64
	for _, s := range samples {
		variance += (s - mean) * (s - mean)
	}
	variance /= float64(len(samples))
	return mean, math.Sqrt(variance)
}

// recordedProbes is a fixed 1 000-probe outcome sequence: healthy stretches,
// isolated losses, bursts of every length around the 4-of-10 threshold, and
// long outages.
func recordedProbes() []bool {
	rng := rand.New(rand.NewSource(20))
	out := make([]bool, 0, 1000)
	for len(out) < 1000 {
		healthy := rng.Intn(40)
		for i := 0; i < healthy; i++ {
			out = append(out, rng.Intn(20) != 0) // one loss in twenty
		}
		outage := rng.Intn(12)
		for i := 0; i < outage; i++ {
			out = append(out, rng.Intn(8) == 0) // a rare answer gets through
		}
	}
	return out[:1000]
}

func TestRingJudgesGiveTheRecordedVerdicts(t *testing.T) {
	probes := recordedProbes()
	for _, opts := range []PingPongOptions{DefaultPingPongOptions(), {WindowSize: 1, FailureThreshold: 1}, {WindowSize: 7, FailureThreshold: 0.3}} {
		ring, ref := pingPongJudge(opts), refPingPongJudge(opts)
		faulty := 0
		for i, success := range probes {
			got, want := ring(success, time.Time{}), ref(success, time.Time{})
			if got != want {
				t.Fatalf("ping-pong %+v: verdict %v after probe %d, the recounted window says %v", opts, got, i, want)
			}
			if got {
				faulty++
			}
		}
		if faulty == 0 || faulty == len(probes) {
			t.Fatalf("ping-pong %+v: %d faulty verdicts of %d; the recording does not exercise the judge", opts, faulty, len(probes))
		}
	}

	now := time.Unix(0, 0)
	rng := rand.New(rand.NewSource(21))
	opts := DefaultPhiAccrualOptions()
	ring, ref := phiAccrualJudge(opts), refPhiAccrualJudge(opts)
	faulty := 0
	for i, success := range probes {
		now = now.Add(time.Second + time.Duration(rng.Intn(40)-20)*time.Millisecond)
		got, want := ring(success, now), ref(success, now)
		if got != want {
			t.Fatalf("phi-accrual: verdict %v after probe %d, the recomputed window says %v", got, i, want)
		}
		if got {
			faulty++
		}
	}
	if faulty == 0 {
		t.Fatal("phi-accrual: no faulty verdict; the recording does not exercise the judge")
	}
}

func TestJudgesDoNotAllocate(t *testing.T) {
	probes := recordedProbes()
	now := time.Unix(0, 0)
	pp, phi := pingPongJudge(DefaultPingPongOptions()), phiAccrualJudge(DefaultPhiAccrualOptions())
	i := 0
	allocs := testing.AllocsPerRun(len(probes), func() {
		now = now.Add(time.Second)
		pp(probes[i%len(probes)], now)
		phi(probes[i%len(probes)], now)
		i++
	})
	if allocs != 0 {
		t.Fatalf("the judges allocate %.2f times per probe, want 0", allocs)
	}
}

// --- the probe's deadline ----------------------------------------------------------

// ctxClient answers probes through a function that sees the probe's context.
type ctxClient func(ctx context.Context) (*remoting.Response, error)

func (f ctxClient) Send(ctx context.Context, _ node.Addr, _ *remoting.Request) (*remoting.Response, error) {
	return f(ctx)
}
func (ctxClient) SendBestEffort(node.Addr, *remoting.Request) {}

// TestProbeThatNeverWaitsArmsNoTimer: against a transport that answers
// without asking for the context's channel — the in-process simnet — a probe
// costs the context struct and nothing else: no clock waiter, one allocation.
func TestProbeThatNeverWaitsArmsNoTimer(t *testing.T) {
	clk := simclock.NewManual(time.Unix(0, 0))
	ok := &remoting.Response{Probe: &remoting.ProbeResponse{Status: remoting.NodeOK}}
	var sawErr error
	client := ctxClient(func(ctx context.Context) (*remoting.Response, error) {
		sawErr = ctx.Err()
		return ok, nil
	})
	allocs := testing.AllocsPerRun(100, func() {
		if !Probe(client, clk, time.Second, probeReq, "subject:1") {
			t.Fatal("probe failed")
		}
	})
	if allocs > 1 {
		t.Errorf("a probe allocates %.0f times, want <= 1", allocs)
	}
	if got := clk.PendingWaiters(); got != 0 {
		t.Errorf("%d clock waiters after probes that never waited, want 0", got)
	}
	if sawErr != nil {
		t.Errorf("ctx.Err() = %v inside a probe that has not timed out", sawErr)
	}
}

// TestBlockedProbeIsReleasedAtTimeout: a transport that blocks on the
// context's channel is released exactly when Timeout of manual time has
// passed, not before, with context.DeadlineExceeded, and the timer it armed is
// gone afterwards.
func TestBlockedProbeIsReleasedAtTimeout(t *testing.T) {
	clk := simclock.NewManual(time.Unix(0, 0))
	waiting := make(chan struct{})
	const timeout = 700 * time.Millisecond
	client := ctxClient(func(ctx context.Context) (*remoting.Response, error) {
		done := ctx.Done()
		close(waiting)
		<-done
		return nil, ctx.Err()
	})

	type outcome struct {
		success bool
		err     error
	}
	result := make(chan outcome, 1)
	go func() {
		ctx, cancel := simclock.WithTimeout(clk, timeout)
		defer cancel()
		_, err := client.Send(ctx, "subject:1", nil)
		result <- outcome{err: err}
	}()
	<-waiting
	if got := clk.PendingWaiters(); got != 1 {
		t.Fatalf("%d clock waiters while a probe blocks on Done(), want 1", got)
	}
	clk.Advance(699 * time.Millisecond)
	select {
	case out := <-result:
		t.Fatalf("probe released after 699 ms of a 700 ms timeout: %+v", out)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Millisecond)
	select {
	case out := <-result:
		if !errors.Is(out.err, context.DeadlineExceeded) {
			t.Fatalf("released with %v, want context.DeadlineExceeded", out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe still blocked after its timeout passed")
	}
	if got := clk.PendingWaiters(); got != 0 {
		t.Fatalf("%d clock waiters after the probe timed out, want 0", got)
	}

	// The same through Probe: a timed-out probe is a failed probe.
	waiting = make(chan struct{})
	failed := make(chan bool, 1)
	go func() { failed <- !Probe(client, clk, timeout, probeReq, "subject:1") }()
	<-waiting
	clk.Advance(timeout)
	select {
	case f := <-failed:
		if !f {
			t.Fatal("a probe that timed out counted as a success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Probe still blocked after its timeout passed")
	}
}
