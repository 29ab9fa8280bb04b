// Package core implements the Rapid membership service (§3, §4 of the paper):
// the public API that applications use to join a cluster, receive strongly
// consistent view-change notifications, and leave. It composes the K-ring
// monitoring overlay (package view), pluggable edge failure detectors
// (package edgefd), multi-process cut detection (package cutdetect) and the
// leaderless view-change consensus (package fastpaxos) into a single service
// reachable over any transport.
//
// Internally the service is a single-writer state machine (engine.go) and
// the goroutine that drives it (driver.go): the engine owns all protocol
// state, the probe scheduler included, and does no IO — it is stepped with
// one event at a time from one queue that everything — batches, consensus
// phases, join phases, probe outcomes, the leave request — enters in arrival
// order, and returns what to send, answer, publish and probe (the driver runs
// each probe as a short-lived goroutine around the blocking Send). Transport
// handlers are thin enqueuers, readers see atomic snapshots, and outbound
// alerts are coalesced into one batched wire message per batching window,
// sent to every member (unicast-to-all, §6). Consensus votes are
// counted the way §4.3 counts them: a member keeps a voter bitmap per
// distinct proposal and, on the same window, pushes what it learned to its K
// ring subjects (to everyone, in memberships of at most 4K, where one hop is
// cheaper). The engine owns its deadlines too: the consensus recovery
// deadline is a field it checks on its reinforcement tick, not a goroutine
// per proposal. A joiner is a state machine of its own (join.go), whose
// calls the driver performs the same way.
//
// Rapid-C (§5) is the same engine with a fixed ensemble as its electorate —
// who votes, and who hears alerts, classic rounds and leaves (StartEnsemble,
// JoinViaEnsemble). An ensemble node is a voter outside the view it manages,
// so it speaks for all K rings of any subject; a member of the managed
// cluster probes its ring subjects, reports to the ensemble, never votes, and
// learns each configuration by polling the ensemble.
//
// The batching window is load-adaptive (adaptive.go): a new engine starts it
// at a quarter of BatchingWindowMax, and it is resized between
// BatchingWindowMin and BatchingWindowMax from the engine's queue depth and
// batch arrival rate (quiet clusters flush near-immediately, storming
// clusters send fewer, larger batches). The window belongs to the
// configuration: every install starts it at BatchingWindowMin again, unless
// the install sent a parked joiner back to phase 1 — a join storm still under
// way keeps its window. There is one overload rule: when the event queue is
// full, an inbound batch with nothing in it for the current configuration is
// dropped rather than blocking the transport; everything else blocks. The
// subscriber notification queue is bounded, coalescing view changes for slow
// subscribers (notifier.go). See docs/ARCHITECTURE.md for the full event-flow
// diagram.
package core

import (
	"fmt"
	"time"

	"repro/internal/edgefd"
	"repro/internal/simclock"
)

// Settings are the tunables of a membership service instance. The zero value
// is not usable; start from DefaultSettings or ScaledSettings.
type Settings struct {
	// K is the number of observers per subject (ring count).
	K int
	// H is the high watermark: a subject with a report on at least H of its
	// K ring slots is in stable report mode.
	H int
	// L is the low watermark: a subject with fewer than L reports is noise;
	// between L and H it is unstable and delays proposals.
	L int

	// ProbeInterval is the edge failure detector's probe period.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe RPC.
	ProbeTimeout time.Duration
	// FailureDetector builds the judge of each monitored edge; defaults to the
	// paper's ping-pong detector (40% of the last 10 probes).
	FailureDetector edgefd.Factory

	// BatchingWindowMin is the floor of the adaptive flush window (§6): a
	// quiet engine collapses its window to this value so joins and isolated
	// alerts are broadcast almost immediately, and every configuration after
	// the first starts at it unless its install redirected a parked joiner.
	// Defaults to 10 ms.
	BatchingWindowMin time.Duration
	// BatchingWindowMax is the ceiling of the adaptive flush window: a
	// storming engine grows its window toward this value so alerts leave in
	// fewer, larger wire batches and votes in fewer pushes. A new engine
	// starts at a quarter of it — the paper's fixed 100 ms under the 400 ms
	// default. Must satisfy 0 < BatchingWindowMin <= BatchingWindowMax.
	BatchingWindowMax time.Duration

	// ConsensusFallbackBase is the base delay before an undecided node starts
	// a classical Paxos recovery round, and the pause between its retries.
	// Each node adds a deterministic jitter so a single coordinator usually
	// emerges. The deadline is checked on the reinforcement tick.
	ConsensusFallbackBase time.Duration

	// ReinforcementTimeout is how long a subject may stay in the unstable
	// report region before this node's observers echo REMOVE alerts (§4.2).
	// The unstable set is checked five times per timeout.
	ReinforcementTimeout time.Duration

	// JoinAttempts bounds how many failed attempts a joiner makes at the
	// two-phase join. An attempt that ends because the configuration changed
	// under it is a redirect, not a failure: it is repeated at once and not
	// counted, within the time the attempts could have taken in all,
	// JoinAttempts x (2 x JoinPhase2Timeout + JoinRetryDelay).
	JoinAttempts int
	// JoinPhase2Timeout bounds how long a joiner (and the observer serving
	// it) waits for the next view change, which admits or redirects it.
	JoinPhase2Timeout time.Duration
	// JoinRetryDelay is the pause after a failed join attempt.
	JoinRetryDelay time.Duration

	// Clock supplies time; defaults to the wall clock.
	Clock simclock.Clock
	// Metadata is application-supplied data attached to this process
	// (e.g. {"role": "backend"}), visible to all members.
	Metadata map[string]string
}

// DefaultSettings returns production-scale parameters matching the paper:
// {K, H, L} = {10, 9, 3}, 1-second probes with the 40%-of-last-10 detector,
// 100 ms alert batching.
func DefaultSettings() Settings {
	return Settings{
		K:                     10,
		H:                     9,
		L:                     3,
		ProbeInterval:         time.Second,
		ProbeTimeout:          500 * time.Millisecond,
		FailureDetector:       edgefd.NewPingPongFactory(edgefd.DefaultPingPongOptions()),
		BatchingWindowMin:     10 * time.Millisecond,
		BatchingWindowMax:     400 * time.Millisecond,
		ConsensusFallbackBase: 8 * time.Second,
		ReinforcementTimeout:  5 * time.Second,
		JoinAttempts:          10,
		JoinPhase2Timeout:     12 * time.Second,
		JoinRetryDelay:        time.Second,
		Clock:                 simclock.NewReal(),
		Metadata:              nil,
	}
}

// ScaledSettings returns DefaultSettings with every duration divided by
// factor. The experiment harness uses this to run the paper's scenarios in
// compressed time (e.g. factor 50 turns 1-second probe intervals into 20 ms).
func ScaledSettings(factor float64) Settings {
	if factor <= 0 {
		factor = 1
	}
	s := DefaultSettings()
	scale := func(d time.Duration) time.Duration {
		scaled := time.Duration(float64(d) / factor)
		if scaled < time.Millisecond {
			scaled = time.Millisecond
		}
		return scaled
	}
	s.ProbeInterval = scale(s.ProbeInterval)
	s.ProbeTimeout = scale(s.ProbeTimeout)
	s.BatchingWindowMin = scale(s.BatchingWindowMin)
	s.BatchingWindowMax = scale(s.BatchingWindowMax)
	s.ConsensusFallbackBase = scale(s.ConsensusFallbackBase)
	s.ReinforcementTimeout = scale(s.ReinforcementTimeout)
	s.JoinPhase2Timeout = scale(s.JoinPhase2Timeout)
	s.JoinRetryDelay = scale(s.JoinRetryDelay)
	return s
}

// oneHopLimit is the largest membership whose fast-round votes travel in one
// hop, every voter to every other member: 4K. Above it a member pushes vote
// bitmaps to its K ring subjects only, which costs about four pushes of K
// sends per view change against the N - 1 sends of one hop. A lone seed admits
// this many joiners first, for the same reason.
func (s *Settings) oneHopLimit() int { return 4 * s.K }

// pollInterval is how often a member of a cluster an ensemble manages polls
// the ensemble for its configuration: five probe intervals, §5's 5 s.
func (s *Settings) pollInterval() time.Duration { return 5 * s.ProbeInterval }

// validate fills defaults for zero-valued fields and checks watermarks.
func (s *Settings) validate() error {
	if s.K <= 0 {
		s.K = 10
	}
	if s.H <= 0 {
		s.H = s.K - 1
		if s.H < 1 {
			s.H = 1
		}
	}
	if s.L <= 0 {
		s.L = 1
	}
	if s.L > s.H || s.H > s.K {
		return errInvalidWatermarks
	}
	if s.ProbeInterval <= 0 {
		s.ProbeInterval = time.Second
	}
	if s.ProbeTimeout <= 0 {
		s.ProbeTimeout = s.ProbeInterval / 2
	}
	if s.FailureDetector == nil {
		s.FailureDetector = edgefd.NewPingPongFactory(edgefd.DefaultPingPongOptions())
	}
	// The adaptive window range must be coherent: zero values take defaults,
	// but explicitly negative values or an inverted floor/ceiling relation are
	// configuration mistakes and are rejected instead of silently rewritten.
	if s.BatchingWindowMin < 0 || s.BatchingWindowMax < 0 {
		return fmt.Errorf("core: negative batching window (floor=%v ceiling=%v)",
			s.BatchingWindowMin, s.BatchingWindowMax)
	}
	if s.BatchingWindowMin == 0 {
		s.BatchingWindowMin = 10 * time.Millisecond
	}
	if s.BatchingWindowMax == 0 {
		s.BatchingWindowMax = 400 * time.Millisecond
	}
	if s.BatchingWindowMin > s.BatchingWindowMax {
		return fmt.Errorf("core: batching window floor %v exceeds ceiling %v",
			s.BatchingWindowMin, s.BatchingWindowMax)
	}
	if s.ConsensusFallbackBase <= 0 {
		s.ConsensusFallbackBase = 8 * time.Second
	}
	if s.ReinforcementTimeout <= 0 {
		s.ReinforcementTimeout = 5 * time.Second
	}
	if s.JoinAttempts <= 0 {
		s.JoinAttempts = 10
	}
	if s.JoinPhase2Timeout <= 0 {
		s.JoinPhase2Timeout = 12 * time.Second
	}
	if s.JoinRetryDelay <= 0 {
		s.JoinRetryDelay = time.Second
	}
	if s.Clock == nil {
		s.Clock = simclock.NewReal()
	}
	return nil
}
