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
// phases, join phases, probe outcomes, poll answers, the leave request — enters
// in arrival order, and returns what to send, publish and probe (the driver
// runs each probe as a short-lived goroutine around the blocking Send). A
// request that waits on a view change or a period — phase 2 of a join, a
// Rapid-C poll — is one half of a one-way message pair: the engine answers it
// with a send when the answer is ready, and no handler waits for it. Transport
// handlers are thin enqueuers, readers see atomic snapshots, and outbound
// alerts are coalesced into one batched wire message per batching window,
// sent to every member (unicast-to-all, §6). Consensus votes are
// counted the way §4.3 counts them: a member keeps a voter bitmap per
// distinct proposal and, on the same window, pushes what it learned to the
// subjects of its first four rings, and the bitmap that decides to all K (to
// everyone, in memberships of at most 4K). The engine owns its deadlines too,
// and the driver arms one timer for the earliest, not a timer or goroutine
// per deadline. A joiner is a state machine of its own (join.go), with one
// deadline, which the joining goroutine performs the same way: phase 1 is a
// call to a seed, phase 2 one-way requests whose answers come back through
// the handler.
//
// Rapid-C (§5) is the same engine with a fixed ensemble as its electorate —
// who votes, and who hears alerts, classic rounds and leaves (StartEnsemble,
// JoinViaEnsemble). An ensemble node is a voter outside the view it manages,
// so it speaks for all K rings of any subject; a member of the managed
// cluster probes its ring subjects, reports to the ensemble, never votes, and
// learns each configuration by polling one ensemble node with a one-way
// request the node answers the same way.
//
// The batching window is load-adaptive (adaptive.go): a new engine starts it
// at a quarter of its ceiling, and it is resized between a floor of a
// hundredth and a ceiling of two fifths of the probe interval from the
// engine's queue depth and batch arrival rate (quiet clusters flush
// near-immediately, storming clusters send fewer, larger batches). The window
// belongs to the configuration: every install starts it at the floor again,
// unless the install sent a parked joiner back to phase 1 — a join storm
// still under way keeps its window. Every event, inbound batches included,
// blocks its producer while the engine's queue is full. The subscriber
// notification queue is bounded, coalescing view changes for slow
// subscribers (notifier.go). See docs/ARCHITECTURE.md for the full
// event-flow diagram.
package core

import (
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

	// ProbeInterval is the edge failure detector's probe period. The probe
	// timeout and the batching window derive from it (probeTimeout,
	// windowFloor, windowCeiling).
	ProbeInterval time.Duration
	// FailureDetector builds the judge of each monitored edge; defaults to the
	// paper's ping-pong detector (40% of the last 10 probes).
	FailureDetector edgefd.Factory

	// ConsensusFallbackBase is the base delay before an undecided node starts a
	// classical Paxos recovery round, and the pause between its retries. Each
	// node adds a deterministic jitter so a single coordinator usually emerges.
	ConsensusFallbackBase time.Duration

	// ReinforcementTimeout is how long a subject may stay in the unstable
	// report region before this node's observers echo REMOVE alerts (§4.2).
	// While any subject is in flux, the engine checks five times per timeout.
	ReinforcementTimeout time.Duration

	// JoinAttempts bounds how many failed attempts a joiner makes at the
	// two-phase join. An attempt that ends because the configuration changed
	// under it is a redirect, not a failure: it is repeated at once and not
	// counted, within the time the attempts could have taken in all,
	// JoinAttempts x (2 x JoinPhase2Timeout + JoinRetryDelay).
	JoinAttempts int
	// JoinPhase2Timeout bounds one phase-2 round of a join: how long the
	// joiner waits for its observers' answers, which each sends at its next
	// view change, admitted or redirected. A round that runs out with an
	// observer unanswered fails its attempt and counts in JoinsTimedOut.
	// It also bounds the phase-1 call, and half of it how long a lone seed
	// holds a join storm's alerts. Observers keep no timer for a parked
	// joiner.
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
		FailureDetector:       edgefd.NewPingPongFactory(edgefd.DefaultPingPongOptions()),
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
	s.ConsensusFallbackBase = scale(s.ConsensusFallbackBase)
	s.ReinforcementTimeout = scale(s.ReinforcementTimeout)
	s.JoinPhase2Timeout = scale(s.JoinPhase2Timeout)
	s.JoinRetryDelay = scale(s.JoinRetryDelay)
	return s
}

// oneHopLimit is the largest membership whose fast-round votes travel in one
// hop, every voter to every other member: 4K. Above it a member pushes vote
// bitmaps to the subjects of its first voteRings rings, and the aggregate
// that decides, once, to all K. A lone seed that has this many joiners parked
// also waits for a quiet window before it cuts: a straggler left out would be
// voted in by relayed votes in a second view change (see engine.gathering).
func (s *Settings) oneHopLimit() int { return 4 * s.K }

// voteRings is how many of a member's rings carry its own vote and what it
// relays when the membership relays votes: the first voteRings distinct ring
// subjects, ring 0's successor first. Push gossip costs about fanout × rounds
// sends per member, f·log_f N (Karp et al., "Randomized Rumor Spreading",
// FOCS 2000). At N = 200 that is 23 sends for f = 10, 15 for f = 4 and 14.5
// for f = 3, while the rounds grow from 2.3 to 3.8 and 4.8, each one flush
// window long. Four rings take nearly all of the saving for 1.5 more relay
// hops. The decision push is not narrowed: a member that misses every copy of
// it cannot catch up (see engine.applyDecision).
const voteRings = 4

// probeTimeout bounds each probe: half the probe interval, so a probe ends
// inside its round.
func (s *Settings) probeTimeout() time.Duration { return max(s.ProbeInterval/2, time.Millisecond) }

// windowFloor is the floor of the adaptive flush window: a hundredth of the
// probe interval, 10 ms under the default 1 s. A quiet engine collapses its
// window to it, so joins and isolated alerts are broadcast almost at once,
// and every configuration after the first starts at it unless its install
// redirected a parked joiner.
func (s *Settings) windowFloor() time.Duration { return max(s.ProbeInterval/100, time.Millisecond) }

// windowCeiling is the ceiling of the adaptive flush window: two fifths of
// the probe interval, 400 ms under the default 1 s. A storming engine grows
// its window toward it, so alerts leave in fewer, larger batches and votes in
// fewer pushes. A new engine starts at a quarter of it: §6's fixed 100 ms,
// a tenth of the probe interval.
func (s *Settings) windowCeiling() time.Duration { return max(2*s.ProbeInterval/5, time.Millisecond) }

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
	if s.FailureDetector == nil {
		s.FailureDetector = edgefd.NewPingPongFactory(edgefd.DefaultPingPongOptions())
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
