// Package fastpaxos implements Rapid's leaderless view-change consensus
// (§4.3): a Fast Paxos fast path in which every process broadcasts a vote for
// the multi-process cut it detected, and any process that observes a fast
// quorum (at least N − ⌊(N−1)/4⌋ processes, i.e. roughly three quarters of
// the membership) of identical votes decides without further communication.
// If votes conflict or too few arrive, a randomized fallback timer starts a
// classical Paxos recovery round (package paxos).
package fastpaxos

import (
	"math/rand"
	"sync"

	"repro/internal/node"
	"repro/internal/paxos"
	"repro/internal/remoting"
)

// Config carries the static parameters of one consensus instance.
type Config struct {
	// MyAddr is this process' address.
	MyAddr node.Addr
	// MyIndex is this process' index in the sorted membership.
	MyIndex int
	// MembershipSize is N.
	MembershipSize int
	// ConfigurationID stamps all messages.
	ConfigurationID uint64
	// Client sends direct messages (used by the recovery path).
	Client paxos.Sender
	// Broadcaster sends votes and recovery messages to the membership.
	Broadcaster paxos.Broadcaster
	// VoteSink, when non-nil, receives this process' fast-round vote instead
	// of it being broadcast immediately. The membership service uses this to
	// coalesce votes with alerts into one batched wire message per window
	// (§6); the recovery path always uses Broadcaster directly.
	VoteSink func(*remoting.FastRoundPhase2b)
	// OnDecide is invoked exactly once with the decided proposal.
	OnDecide func([]node.Endpoint)
}

// FastPaxos is one consensus instance. All methods are safe for concurrent use.
type FastPaxos struct {
	cfg    Config
	inner  *paxos.Paxos
	quorum int

	mu            sync.Mutex
	decided       bool
	votesReceived map[node.Addr]bool
	votesPerValue map[string]*tally
	proposed      bool
	// classicRounds counts the recovery rounds this process has started.
	classicRounds uint64
}

type tally struct {
	count int
	value []node.Endpoint
}

// FastQuorumSize returns the number of identical votes needed for the fast
// path with n processes: n − ⌊(n−1)/4⌋.
func FastQuorumSize(n int) int {
	if n <= 0 {
		return 1
	}
	return n - (n-1)/4
}

// New creates a consensus instance for one configuration.
func New(cfg Config) *FastPaxos {
	f := &FastPaxos{
		cfg:           cfg,
		quorum:        FastQuorumSize(cfg.MembershipSize),
		votesReceived: make(map[node.Addr]bool),
		votesPerValue: make(map[string]*tally),
	}
	f.inner = paxos.New(paxos.Config{
		MyAddr:          cfg.MyAddr,
		MyIndex:         cfg.MyIndex,
		MembershipSize:  cfg.MembershipSize,
		ConfigurationID: cfg.ConfigurationID,
		Client:          cfg.Client,
		Broadcaster:     cfg.Broadcaster,
		OnDecide:        f.decide,
	})
	return f
}

// Propose casts this process' vote for the given cut-detection proposal: the
// vote is registered with the recovery path (for safety) and broadcast to the
// membership as a fast-round phase 2b message.
func (f *FastPaxos) Propose(proposal []node.Endpoint) {
	f.mu.Lock()
	if f.decided || f.proposed {
		f.mu.Unlock()
		return
	}
	f.proposed = true
	f.mu.Unlock()

	f.inner.RegisterFastRoundVote(proposal)
	vote := &remoting.FastRoundPhase2b{
		Sender:          f.cfg.MyAddr,
		ConfigurationID: f.cfg.ConfigurationID,
		Proposal:        proposal,
	}
	if f.cfg.VoteSink != nil {
		f.cfg.VoteSink(vote)
		return
	}
	f.cfg.Broadcaster.Broadcast(&remoting.Request{FastRound: vote})
}

// HasProposed reports whether this process already cast its fast-round vote.
func (f *FastPaxos) HasProposed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.proposed
}

// Decided reports whether the instance reached a decision.
func (f *FastPaxos) Decided() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.decided
}

// HandleFastRoundVote counts one fast-round vote. A fast quorum of identical
// votes decides immediately.
func (f *FastPaxos) HandleFastRoundVote(msg *remoting.FastRoundPhase2b) {
	if msg.ConfigurationID != f.cfg.ConfigurationID {
		return
	}
	f.mu.Lock()
	if f.decided || f.votesReceived[msg.Sender] {
		f.mu.Unlock()
		return
	}
	f.votesReceived[msg.Sender] = true
	key := paxos.Key(msg.Proposal)
	t, ok := f.votesPerValue[key]
	if !ok {
		t = &tally{value: append([]node.Endpoint(nil), msg.Proposal...)}
		f.votesPerValue[key] = t
	}
	t.count++
	if t.count < f.quorum {
		f.mu.Unlock()
		return
	}
	value := t.value
	f.mu.Unlock()
	f.decide(value)
}

// VotesForLeadingProposal returns the highest vote count observed so far and
// the total number of votes received (for diagnostics and experiments).
func (f *FastPaxos) VotesForLeadingProposal() (leading, total int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range f.votesPerValue {
		if t.count > leading {
			leading = t.count
		}
	}
	return leading, len(f.votesReceived)
}

// StartClassicalRound begins a Paxos recovery round if no decision has been
// reached. The membership service calls this from its fallback deadline, again
// and again while the instance stays undecided: each call uses the next round
// number (2, 3, 4, ...), because a coordinator may only prepare a rank higher
// than its last one — a repeated round 2 would send nothing, and a
// coordinator whose first round lost its P1b majority would be silent for good.
func (f *FastPaxos) StartClassicalRound() {
	f.mu.Lock()
	if f.decided {
		f.mu.Unlock()
		return
	}
	f.classicRounds++
	round := 1 + f.classicRounds
	f.mu.Unlock()
	f.inner.StartPhase1a(round)
}

// HandlePhase1a routes a recovery message to the inner Paxos instance.
func (f *FastPaxos) HandlePhase1a(msg *remoting.Phase1a) { f.inner.HandlePhase1a(msg) }

// HandlePhase1b routes a recovery message to the inner Paxos instance.
func (f *FastPaxos) HandlePhase1b(msg *remoting.Phase1b) { f.inner.HandlePhase1b(msg) }

// HandlePhase2a routes a recovery message to the inner Paxos instance.
func (f *FastPaxos) HandlePhase2a(msg *remoting.Phase2a) { f.inner.HandlePhase2a(msg) }

// HandlePhase2b routes a recovery message to the inner Paxos instance.
func (f *FastPaxos) HandlePhase2b(msg *remoting.Phase2b) { f.inner.HandlePhase2b(msg) }

// decide is the single decision funnel shared by the fast and recovery paths:
// it surfaces the decision to the membership service exactly once.
func (f *FastPaxos) decide(value []node.Endpoint) {
	f.mu.Lock()
	if f.decided {
		f.mu.Unlock()
		return
	}
	f.decided = true
	onDecide := f.cfg.OnDecide
	f.mu.Unlock()
	if onDecide != nil {
		onDecide(value)
	}
}

// RandomFallbackJitter returns a deterministic-per-node jitter multiplier in
// [0, n) used to stagger fallback timers so that a single coordinator usually
// emerges. Exposed here so that the membership service and tests share the
// same policy.
func RandomFallbackJitter(seed int64, n int) int {
	if n <= 1 {
		return 0
	}
	return rand.New(rand.NewSource(seed)).Intn(n)
}
