// Package fastpaxos implements Rapid's leaderless view-change consensus
// (§4.3): a Fast Paxos fast path in which every process votes for the
// multi-process cut it detected, and any process that learns of a fast quorum
// (at least N − ⌊(N−1)/4⌋ processes, i.e. roughly three quarters of the
// membership) of identical votes decides without further communication. If
// votes conflict or too few arrive, a randomized fallback timer starts a
// classical Paxos recovery round (package paxos).
//
// Votes are counted the way the paper counts them: per distinct proposal the
// instance keeps a bitmap of the voters it knows of (bit i = member i of the
// sorted membership) and ORs in every aggregate it is handed (Merge). The
// membership service pushes the bitmaps (Aggregates) along its K rings
// instead of having every member send its vote to every member. A proposal is
// identified by an order-independent 128-bit fingerprint of its endpoints,
// computed once per aggregate, never per voter; a Rapid-C ensemble is the same
// engine with the ensemble as its electorate, and votes with bitmaps too. A
// bare vote that names only its sender (HandleFastRoundVote) lands in the same
// tally; only the benchmark's layer timings still cast one. One instance is
// fed bitmaps or bare votes, not both: the two identify a voter differently
// (by index, by address), so a member seen through both would count twice.
package fastpaxos

import (
	"math/bits"
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
	// of it being broadcast: the vote then carries a voter bitmap with the one
	// bit MyIndex set. The membership service merges it and pushes what
	// Aggregates returns along its K rings; the recovery path always uses
	// Broadcaster directly.
	VoteSink func(*remoting.FastRoundPhase2b)
	// OnDecide is invoked exactly once with the decided proposal.
	OnDecide func([]node.Endpoint)
}

// FastPaxos is one consensus instance. All methods are safe for concurrent use.
type FastPaxos struct {
	cfg    Config
	inner  *paxos.Paxos
	quorum int

	mu      sync.Mutex
	decided bool
	// tallies holds one entry per distinct proposal, in first-seen order. A
	// voter is in at most one of them: the first proposal it was seen under.
	tallies []*tally
	// counted is the union of every tally's bitmap; bareVoters are the senders
	// of bare votes. Together they are the voters already counted.
	counted    []byte
	bareVoters map[node.Addr]bool
	proposed   bool
	// classicRounds counts the recovery rounds this process has started.
	classicRounds uint64
}

// tally is what this process knows about one proposal: who voted for it, as
// a bitmap over the sorted membership, and how many votes that is. count
// exceeds the bits set only by the bare votes counted for the proposal.
type tally struct {
	fp    fingerprint
	value []node.Endpoint
	bits  []byte
	count int
}

// fingerprint identifies a proposal without comparing it endpoint by
// endpoint: two independent 64-bit sums over (Addr, ID), so the order the
// endpoints are listed in does not matter. Metadata is not part of a
// proposal's identity.
type fingerprint struct{ a, b uint64 }

func fingerprintOf(proposal []node.Endpoint) fingerprint {
	var fp fingerprint
	for i := range proposal {
		h := uint64(0xcbf29ce484222325) // FNV-1a over the address
		for j := 0; j < len(proposal[i].Addr); j++ {
			h = (h ^ uint64(proposal[i].Addr[j])) * 0x100000001b3
		}
		fp.a += mix64(h ^ proposal[i].ID.High)
		fp.b += mix64(bits.RotateLeft64(h, 32) ^ proposal[i].ID.Low)
	}
	return fp
}

// mix64 is the splitmix64 finalizer: every input bit reaches every output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
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
		cfg:        cfg,
		quorum:     FastQuorumSize(cfg.MembershipSize),
		counted:    make([]byte, (cfg.MembershipSize+7)/8),
		bareVoters: make(map[node.Addr]bool),
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
// vote is registered with the recovery path (for safety) and then handed to
// VoteSink with this process' bit set, or, without a sink, broadcast to the
// membership as a bare fast-round phase 2b message.
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
	if f.cfg.VoteSink == nil {
		f.cfg.Broadcaster.Broadcast(&remoting.Request{FastRound: vote})
		return
	}
	vote.Voters = make([]byte, len(f.counted))
	vote.Voters[f.cfg.MyIndex/8] |= 1 << (f.cfg.MyIndex % 8)
	f.cfg.VoteSink(vote)
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

// HandleFastRoundVote counts one fast-round vote. A vote that carries a voter
// bitmap is merged as the aggregate it is; a bare one counts its sender. A
// fast quorum of identical votes decides immediately.
func (f *FastPaxos) HandleFastRoundVote(msg *remoting.FastRoundPhase2b) {
	if len(msg.Voters) > 0 {
		f.Merge(msg.ConfigurationID, msg.Proposal, msg.Voters)
		return
	}
	if msg.ConfigurationID != f.cfg.ConfigurationID {
		return
	}
	f.mu.Lock()
	if f.decided || f.bareVoters[msg.Sender] {
		f.mu.Unlock()
		return
	}
	f.bareVoters[msg.Sender] = true
	t := f.tallyLocked(msg.Proposal)
	t.count++
	f.unlockAndDecideAtQuorum(t)
}

// Merge ORs an aggregate — the voters someone knows of for one proposal, bit
// i standing for member i of the sorted membership — into this instance's
// tally and reports whether that taught it a voter it had not counted. A
// voter is counted once, under the first proposal it is seen voting for. An
// aggregate for another configuration, or whose bitmap is not exactly
// ⌈N/8⌉ bytes with no bit at or past N, is dropped whole. A fast quorum of
// identical votes decides before Merge returns.
func (f *FastPaxos) Merge(configID uint64, proposal []node.Endpoint, voters []byte) (learned bool) {
	n := f.cfg.MembershipSize
	if configID != f.cfg.ConfigurationID || len(voters) != (n+7)/8 {
		return false
	}
	if n%8 != 0 && voters[len(voters)-1]>>(n%8) != 0 {
		return false
	}
	f.mu.Lock()
	if f.decided {
		f.mu.Unlock()
		return false
	}
	var t *tally
	for i, b := range voters {
		fresh := b &^ f.counted[i]
		if fresh == 0 {
			continue
		}
		if t == nil {
			t = f.tallyLocked(proposal)
		}
		f.counted[i] |= fresh
		t.bits[i] |= fresh
		t.count += bits.OnesCount8(fresh)
	}
	if t == nil {
		f.mu.Unlock()
		return false
	}
	f.unlockAndDecideAtQuorum(t)
	return true
}

// Aggregates snapshots what this instance knows as one vote message per
// distinct proposal, ready to be pushed on.
func (f *FastPaxos) Aggregates() []remoting.FastRoundPhase2b {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []remoting.FastRoundPhase2b
	for _, t := range f.tallies {
		out = append(out, remoting.FastRoundPhase2b{
			Sender:          f.cfg.MyAddr,
			ConfigurationID: f.cfg.ConfigurationID,
			Proposal:        t.value,
			Voters:          append([]byte(nil), t.bits...),
		})
	}
	return out
}

// tallyLocked returns the tally of a proposal, creating it on first sight.
// This is the one place a proposal is fingerprinted.
func (f *FastPaxos) tallyLocked(proposal []node.Endpoint) *tally {
	fp := fingerprintOf(proposal)
	for _, t := range f.tallies {
		if t.fp == fp {
			return t
		}
	}
	t := &tally{fp: fp, value: append([]node.Endpoint(nil), proposal...), bits: make([]byte, len(f.counted))}
	f.tallies = append(f.tallies, t)
	return t
}

// unlockAndDecideAtQuorum releases the lock and, if the tally it was handed
// has reached the fast quorum, decides its value.
func (f *FastPaxos) unlockAndDecideAtQuorum(t *tally) {
	value, reached := t.value, t.count >= f.quorum
	f.mu.Unlock()
	if reached {
		f.decide(value)
	}
}

// VotesForLeadingProposal returns the highest vote count observed so far and
// the total number of votes received (for diagnostics and experiments).
func (f *FastPaxos) VotesForLeadingProposal() (leading, total int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range f.tallies {
		leading = max(leading, t.count)
		total += t.count
	}
	return leading, total
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
