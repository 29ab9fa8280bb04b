// Package edgefd provides Rapid's pluggable edge failure detectors (§4.1,
// §6). What is pluggable is the policy: a Judge is told the outcome of every
// probe of one observer → subject edge and says when the edge is faulty; the
// membership service converts that verdict into an irrevocable REMOVE alert.
// One is provided, the paper's default PingPong — the edge is faulty when at
// least 40% of the last 10 probe attempts failed — and any Factory can be
// plugged into the service, which mirrors Rapid's support for
// application-supplied detectors.
//
// The probing is not pluggable, and there is one Scheduler of it per observer,
// plain state with no timer, lock or goroutine that its owner, the membership
// engine, steps: Tick says whom to probe every interval, the owner performs
// each probe with Probe (a short-lived goroutine around the transport's
// blocking Send), and Outcome files what it found. The path is sized for thousands of simulated edges: a
// probe shares its observer's one request, bounds the RPC with
// simclock.WithTimeout — one allocation, and no timer unless the transport
// actually waits — and hands the outcome to a judge that keeps its window in
// a fixed ring.
package edgefd

import (
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// Judge is the detector of one edge. It is told every probe's outcome and the
// time it came back, and returns true when the edge is now faulty. One
// goroutine at a time calls it, so a judge guards nothing.
type Judge func(ok bool, now time.Time) (faulty bool)

// Factory builds the judge of one edge. A scheduler calls it once per subject
// every time it is re-targeted.
type Factory func() Judge

// Scheduler is the probe state of one observer: whom it probes, what each
// edge's judge has seen, and which probes still count. Its owner serializes
// the calls.
type Scheduler struct {
	judges Factory
	// gen counts the calls of Watch. A probe carries the generation it was
	// issued under, and Outcome drops it if that is not this one.
	gen uint64
	// subjects is the caller's slice, shared with the engine that computed it:
	// never written (rapid-vet's snapshot check holds this package to that).
	subjects []node.Addr
	// edges holds each subject's judge, nil once the edge has been reported.
	edges []Judge
}

// NewScheduler returns a scheduler of judges that watches nobody yet.
func NewScheduler(judges Factory) *Scheduler { return &Scheduler{judges: judges} }

// Watch replaces the subjects and starts a new generation: what a probe of an
// older one finds counts for nothing. Every edge starts a cold window, also one
// whose subject was watched before, so a configuration's first verdict is a
// full window after its install. subjects is only read, and must not be
// written while it is watched.
func (s *Scheduler) Watch(subjects []node.Addr) {
	s.gen++
	s.subjects = subjects
	s.edges = make([]Judge, len(subjects))
	for i := range s.edges {
		s.edges[i] = s.judges()
	}
}

// Tick is one probe round: it returns the subjects to probe and the
// generation to file the i-th subject's outcome under, as Outcome(gen, i, …).
func (s *Scheduler) Tick() (gen uint64, subjects []node.Addr) {
	return s.gen, s.subjects
}

// Outcome files one probe's result and reports whether it completed the
// verdict on its edge, which it does at most once per edge and generation.
func (s *Scheduler) Outcome(gen uint64, i int, ok bool, now time.Time) (faulty bool) {
	if gen != s.gen || s.edges[i] == nil || !s.edges[i](ok, now) {
		return false
	}
	s.edges[i] = nil
	return true
}

// Probe sends req — the observer's one probe request, shared by all its
// probes — to subject, bounded by timeout, and reports whether the subject
// answered healthy. A subject that reports itself as bootstrapping counts as
// healthy, as in §6. It blocks for as long as the transport's Send does.
func Probe(client transport.Client, clock simclock.Clock, timeout time.Duration, req *remoting.Request, subject node.Addr) bool {
	ctx, cancel := simclock.WithTimeout(clock, timeout)
	defer cancel()
	resp, err := client.Send(ctx, subject, req)
	return err == nil && resp != nil && resp.Probe != nil &&
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

// NewPingPongFactory returns a Factory producing windowed ping-pong judges.
func NewPingPongFactory(opts PingPongOptions) Factory {
	if opts.WindowSize <= 0 {
		opts.WindowSize = 10
	}
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 0.4
	}
	return func() Judge { return pingPongJudge(opts) }
}

// pingPongJudge keeps the last WindowSize outcomes in a ring and the number
// of failures among them as a running count: O(1) per probe, and nothing is
// allocated once the judge exists.
func pingPongJudge(opts PingPongOptions) Judge {
	failed := make([]bool, opts.WindowSize) // the window; next is its oldest slot once full
	next, seen, failures := 0, 0, 0
	return func(success bool, _ time.Time) bool {
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
