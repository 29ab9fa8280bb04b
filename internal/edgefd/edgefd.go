// Package edgefd provides Rapid's pluggable edge failure detectors (§4.1,
// §6). An edge failure detector runs on an observer and monitors one subject;
// when it concludes the edge is faulty it invokes a callback, and the
// membership service converts that into an irrevocable REMOVE alert.
//
// Three implementations are provided:
//
//   - PingPong: the paper's default — periodic probes, marking the edge
//     faulty when at least 40% of the last 10 probe attempts failed.
//   - Counting: marks the edge faulty after a fixed number of consecutive
//     probe failures (a simpler, more aggressive detector).
//   - PhiAccrual: an adaptive detector in the style of Hayashibara et al.,
//     computing a suspicion level from the distribution of probe round-trip
//     successes and failing the edge when it crosses a threshold.
//
// Any function matching Factory can be plugged into the membership service,
// which mirrors Rapid's support for application-supplied detectors.
//
// The probe path is sized for fleets of thousands of simulated edges: a probe
// reuses its edge's request, bounds the RPC with simclock.WithTimeout — one
// allocation, and no timer unless the transport actually waits — and hands
// the outcome to a judge that keeps its window in a fixed ring. A monitor's
// state belongs to its probe goroutine; nothing on the path takes a lock.
package edgefd

import (
	"math"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// Callback is invoked (once) when a monitor concludes its subject's edge is
// faulty.
type Callback func(subject node.Addr)

// Monitor probes a single subject on behalf of a single observer.
type Monitor interface {
	// Start begins probing in a background goroutine.
	Start()
	// Stop halts probing. It is safe to call multiple times.
	Stop()
}

// Params bundles everything a monitor needs.
type Params struct {
	Observer node.Addr
	Subject  node.Addr
	Client   transport.Client
	Clock    simclock.Clock
	// Interval between probes.
	Interval time.Duration
	// Timeout for each probe RPC.
	Timeout time.Duration
	// OnFailure is invoked once when the edge is deemed faulty.
	OnFailure Callback
}

// Factory builds a monitor for one observer/subject edge. The membership
// service calls the factory once per subject after every view change.
type Factory func(p Params) Monitor

// --- shared probing loop -----------------------------------------------------

// prober is the common probe loop; the judge decides when the edge fails.
type prober struct {
	p Params
	// judge is told every probe's outcome and returns true when the edge is
	// now faulty. Only the probe loop calls it, so a judge guards nothing.
	judge func(success bool) bool

	mu      sync.Mutex // guards started and stopped
	started bool
	stopped bool
	quit    chan struct{}
	done    sync.WaitGroup
}

func newProber(p Params, judge func(bool) bool) *prober {
	return &prober{p: p, judge: judge, quit: make(chan struct{})}
}

// Start implements Monitor.
func (pr *prober) Start() {
	pr.mu.Lock()
	if pr.started || pr.stopped {
		pr.mu.Unlock()
		return
	}
	pr.started = true
	// Add while still holding the lock: a concurrent Stop that observes
	// started == true must find the WaitGroup counter already incremented,
	// otherwise its Wait races with this Add.
	pr.done.Add(1)
	pr.mu.Unlock()
	go pr.loop()
}

// Stop implements Monitor.
func (pr *prober) Stop() {
	pr.mu.Lock()
	if pr.stopped {
		pr.mu.Unlock()
		return
	}
	pr.stopped = true
	started := pr.started
	pr.mu.Unlock()
	close(pr.quit)
	if started {
		pr.done.Wait()
	}
}

func (pr *prober) loop() {
	defer pr.done.Done()
	// One reusable ticker and one immutable probe request per edge: with
	// paper-scale fleets (1000 nodes x K=10 edges) a per-iteration timer or
	// request allocation is a measurable share of the probe path.
	tick := pr.p.Clock.Ticker(pr.p.Interval)
	defer tick.Stop()
	req := &remoting.Request{Probe: &remoting.ProbeRequest{Sender: pr.p.Observer}}
	reported := false
	for {
		select {
		case <-pr.quit:
			return
		case <-tick.C():
		}
		success := pr.probeOnce(req)
		if !reported && pr.judge(success) {
			reported = true
			if pr.p.OnFailure != nil {
				pr.p.OnFailure(pr.p.Subject)
			}
		}
	}
}

// probeOnce sends a single probe and reports whether it succeeded. A subject
// that reports itself as bootstrapping is treated as healthy, as in §6.
func (pr *prober) probeOnce(req *remoting.Request) bool {
	ctx, cancel := simclock.WithTimeout(pr.p.Clock, pr.p.Timeout)
	defer cancel()
	resp, err := pr.p.Client.Send(ctx, pr.p.Subject, req)
	if err != nil {
		return false
	}
	return resp != nil && resp.Probe != nil &&
		(resp.Probe.Status == remoting.NodeOK || resp.Probe.Status == remoting.NodeBootstrapping)
}

// --- PingPong detector -------------------------------------------------------

// PingPongOptions tune the windowed detector. The defaults match §6 of the
// paper: an edge is faulty when 40% of the last 10 probes failed.
type PingPongOptions struct {
	WindowSize       int
	FailureThreshold float64
}

// DefaultPingPongOptions returns the paper's parameters.
func DefaultPingPongOptions() PingPongOptions {
	return PingPongOptions{WindowSize: 10, FailureThreshold: 0.4}
}

// NewPingPongFactory returns a Factory producing windowed ping-pong monitors.
func NewPingPongFactory(opts PingPongOptions) Factory {
	if opts.WindowSize <= 0 {
		opts.WindowSize = 10
	}
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 0.4
	}
	return func(p Params) Monitor { return newProber(p, pingPongJudge(opts)) }
}

// pingPongJudge keeps the last WindowSize outcomes in a ring and the number
// of failures among them as a running count: O(1) per probe, and nothing is
// allocated once the judge exists.
func pingPongJudge(opts PingPongOptions) func(success bool) bool {
	failed := make([]bool, opts.WindowSize) // the window; next is its oldest slot once full
	next, seen, failures := 0, 0, 0
	return func(success bool) bool {
		if seen < len(failed) {
			seen++
		} else if failed[next] {
			failures--
		}
		failed[next] = !success
		if !success {
			failures++
		}
		next = (next + 1) % len(failed)
		return seen == len(failed) && float64(failures) >= opts.FailureThreshold*float64(opts.WindowSize)
	}
}

// --- Counting detector -------------------------------------------------------

// NewCountingFactory returns a Factory that fails an edge after
// consecutiveFailures probe failures in a row. It reacts faster than the
// windowed detector and is useful in tests and latency-sensitive setups.
func NewCountingFactory(consecutiveFailures int) Factory {
	if consecutiveFailures <= 0 {
		consecutiveFailures = 3
	}
	return func(p Params) Monitor {
		streak := 0
		judge := func(success bool) bool {
			if success {
				streak = 0
				return false
			}
			streak++
			return streak >= consecutiveFailures
		}
		return newProber(p, judge)
	}
}

// --- Phi-accrual detector ----------------------------------------------------

// PhiAccrualOptions tune the adaptive detector.
type PhiAccrualOptions struct {
	// Threshold is the suspicion level above which the edge is faulty.
	Threshold float64
	// MinSamples is the number of successful probes required before the
	// detector starts suspecting.
	MinSamples int
	// MinStdDev floors the standard deviation estimate.
	MinStdDev time.Duration
}

// DefaultPhiAccrualOptions returns commonly used parameters (threshold 8).
func DefaultPhiAccrualOptions() PhiAccrualOptions {
	return PhiAccrualOptions{Threshold: 8, MinSamples: 5, MinStdDev: 10 * time.Millisecond}
}

// NewPhiAccrualFactory returns a Factory producing φ-accrual monitors: the
// suspicion level φ = -log10(P(no heartbeat for Δt)) is computed from the
// observed distribution of inter-success times; when φ exceeds the threshold
// the edge is reported faulty.
func NewPhiAccrualFactory(opts PhiAccrualOptions) Factory {
	if opts.Threshold <= 0 {
		opts.Threshold = 8
	}
	if opts.MinSamples <= 0 {
		opts.MinSamples = 5
	}
	if opts.MinStdDev <= 0 {
		opts.MinStdDev = 10 * time.Millisecond
	}
	return func(p Params) Monitor { return newProber(p, phiAccrualJudge(opts, p.Clock)) }
}

// phiWindow is how many inter-success intervals the φ-accrual judge keeps.
const phiWindow = 100

// phiAccrualJudge keeps the last phiWindow intervals between successful
// probes in a ring, with their sum and sum of squares as running totals, so
// mean and deviation cost O(1) whenever a probe fails.
func phiAccrualJudge(opts PhiAccrualOptions, clock simclock.Clock) func(success bool) bool {
	var lastSuccess time.Time
	intervals := make([]float64, phiWindow) // seconds; next is the oldest slot once full
	next, seen := 0, 0
	var sum, sumSq float64
	return func(success bool) bool {
		now := clock.Now()
		if success {
			if !lastSuccess.IsZero() {
				if seen < len(intervals) {
					seen++
				} else {
					old := intervals[next]
					sum, sumSq = sum-old, sumSq-old*old
				}
				d := now.Sub(lastSuccess).Seconds()
				intervals[next] = d
				sum, sumSq = sum+d, sumSq+d*d
				next = (next + 1) % len(intervals)
			}
			lastSuccess = now
			return false
		}
		if seen < opts.MinSamples || lastSuccess.IsZero() {
			return false
		}
		mean := sum / float64(seen)
		// Rounding can leave a hair below zero where every interval is equal.
		std := math.Sqrt(max(sumSq/float64(seen)-mean*mean, 0))
		std = max(std, opts.MinStdDev.Seconds())
		return phiValue(now.Sub(lastSuccess).Seconds(), mean, std) >= opts.Threshold
	}
}

// phiValue computes the φ suspicion level assuming normally distributed
// inter-arrival times, following the φ-accrual failure detector.
func phiValue(elapsed, mean, std float64) float64 {
	y := (elapsed - mean) / std
	e := math.Exp(-y * (1.5976 + 0.070566*y*y))
	if elapsed > mean {
		return -math.Log10(e / (1.0 + e))
	}
	return -math.Log10(1.0 - 1.0/(1.0+e))
}
