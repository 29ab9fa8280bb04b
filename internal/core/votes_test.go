package core

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"

	"repro/internal/edgefd"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/view"
)

// --- counting votes along the rings: rows on step ----------------------------------

// A stepRow drives one member of an n-member configuration through a list of
// turns — events given to step, or flush ticks — with no transport and no
// goroutine, and checks what each turn returns: K = 3 here, so a membership
// relays votes from 13 members on (oneHopLimit = 4K = 12).
type stepRow struct {
	name  string
	n, me int // the membership is endpoint(0..n-1), the member under test endpoint(me)
	// ensemble, when set, is the size of an ensemble that manages the
	// membership, and the process under test is its node me, at the paper's
	// K, H, L = 10, 9, 3.
	ensemble int
	turns    []stepTurn
	// installs is how many configurations the turns publish in all, and size
	// the membership the member ends with.
	installs, size int
}

// stepTurn is one input and the sends it must return, in order; the clock
// moves on by wait first.
type stepTurn struct {
	wait  time.Duration
	in    func(f *stepFixture) event // nil: a flush tick
	sends []wantSend
}

// wantSend describes one send: the request's kind, its exact targets (in any
// order), for a vote batch how many voters each of its aggregates names, and
// for an alert batch how many rings each of its alerts reports on.
type wantSend struct {
	kind   string
	to     func(f *stepFixture) []node.Addr
	voters []int
	rings  []int
}

// stepFixture is what a row's inputs and targets are computed from: the
// configuration, its probe generation, ring subjects, electorate and peers
// (the rest of the electorate) the member started with — a decision push goes
// to the subjects of the configuration being left.
type stepFixture struct {
	me       node.Addr
	config   uint64
	next     uint64 // the configuration that admits newcomer
	gen      uint64
	members  []node.Addr
	subjects []node.Addr
	voters   []node.Addr
	others   []node.Addr
}

// newcomer is the process every row's cut admits.
var newcomer = endpoint(99)

func all(f *stepFixture) []node.Addr   { return f.members }
func ring(f *stepFixture) []node.Addr  { return f.subjects }
func peers(f *stepFixture) []node.Addr { return f.others }
func cut(f *stepFixture) event         { return event{req: cutAlerts(f.config, 3, newcomer)} }
func leave(*stepFixture) event         { return leaveEvent }

func electorate(f *stepFixture) []node.Addr { return f.voters }
func reinforceTick(*stepFixture) event      { return reinforceEvent }

// removal is a batch of REMOVE alerts about endpoint(0) on its first rings
// rings: ring i reported by the member endpoint(1+i), so the tally comes from
// distinct observers, or all of them echoed by the process under test in one
// alert.
func removal(rings int, echoed bool) func(*stepFixture) event {
	return func(f *stepFixture) event {
		echo := remoting.AlertMessage{EdgeSrc: f.me, EdgeDst: endpoint(0).Addr, Status: remoting.EdgeDown, ConfigurationID: f.config}
		var alerts []remoting.AlertMessage
		for i := range rings {
			if echoed {
				echo.RingNumbers = append(echo.RingNumbers, i)
				continue
			}
			alert := echo
			alert.EdgeSrc, alert.RingNumbers = endpoint(1+i).Addr, []int{i}
			alerts = append(alerts, alert)
		}
		if echoed {
			alerts = []remoting.AlertMessage{echo}
		}
		return event{req: &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: alerts[0].EdgeSrc, Alerts: alerts}}}
	}
}

// grown is the membership once newcomer has been admitted.
func grown(f *stepFixture) []node.Addr { return append(slices.Clone(f.members), newcomer.Addr) }

// failed is a failed probe of the first subject of a round: a round of the
// row's own configuration or, if next is set, of the one that admits
// newcomer. A row's member judges an edge faulty on its first failure.
func failed(next bool) func(*stepFixture) event {
	return func(f *stepFixture) event {
		gen := f.gen
		if next {
			gen++
		}
		return event{ctl: &control{probed: &probeResult{gen: gen, i: 0, ok: false}}}
	}
}

// pushTo is a vote batch for the given targets whose aggregates name that
// many voters each.
func pushTo(to func(*stepFixture) []node.Addr, voters ...int) wantSend {
	return wantSend{kind: "votebatch", to: to, voters: voters}
}

// agg is one aggregate of an inbound vote batch: count voters from index from
// on, for the cut {endpoint(proposal)}; next makes it name the configuration
// that admits newcomer (one member more) instead of the row's own.
type agg struct {
	proposal, from, count int
	next                  bool
}

// votes builds the turn input that delivers a peer's vote batch.
func votes(aggs ...agg) func(*stepFixture) event {
	return func(f *stepFixture) event {
		batch := &remoting.FastRoundVoteBatch{Sender: f.others[0]}
		for _, a := range aggs {
			config, n := f.config, len(f.members)
			if a.next {
				config, n = f.next, n+1
			}
			bitmap := make([]byte, (n+7)/8)
			for i := a.from; i < a.from+a.count; i++ {
				bitmap[i/8] |= 1 << (i % 8)
			}
			batch.Votes = append(batch.Votes, remoting.FastRoundPhase2b{
				Sender: f.others[0], ConfigurationID: config, Proposal: []node.Endpoint{endpoint(a.proposal)}, Voters: bitmap,
			})
		}
		return event{req: &remoting.Request{VoteBatch: batch}}
	}
}

// run steps the row's member through its turns.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func (row stepRow) run(t *testing.T) {
	r := newEngineRig(t)
	members := make([]node.Endpoint, row.n)
	for i := range members {
		members[i] = endpoint(i)
	}
	self := endpoint(row.me)
	if row.ensemble == 0 {
		r.settings.K, r.settings.H, r.settings.L = 3, 3, 1
		r.settings.FailureDetector = edgefd.NewCountingFactory(1)
	} else {
		for i := range row.ensemble {
			r.ensemble = append(r.ensemble, node.Addr(fmt.Sprintf("ensemble-%d:1", i)))
		}
		self = node.Endpoint{Addr: r.ensemble[row.me], ID: node.NewID()}
	}
	me := self.Addr
	e, _ := r.start(self, members)
	f := &stepFixture{me: me, config: e.view.ConfigurationID(), members: e.addrs, subjects: e.subjects, voters: e.voters}
	f.gen, _ = e.probes.Tick()
	f.next = view.NewWithMembers(r.settings.K, append(slices.Clone(members), newcomer)).ConfigurationID()
	for _, a := range e.voters {
		if a != me {
			f.others = append(f.others, a)
		}
	}

	installs := 0
	for i, turn := range row.turns {
		r.clk.Advance(turn.wait)
		var out outputs
		if turn.in == nil {
			out = e.tick(r.clk.Now(), 0)
		} else {
			out = e.step(turn.in(f), r.clk.Now())
		}
		if out.publish != nil {
			installs++
		}
		if len(out.sends) != len(turn.sends) {
			t.Fatalf("turn %d returned %d sends (%+v), want %d", i, len(out.sends), out.sends, len(turn.sends))
		}
		for j, want := range turn.sends {
			got := out.sends[j]
			if got.req.Kind() != want.kind {
				t.Fatalf("turn %d, send %d is a %s, want a %s", i, j, got.req.Kind(), want.kind)
			}
			if to := want.to(f); !slices.Equal(node.SortAddrs(slices.Clone(got.to)), node.SortAddrs(slices.Clone(to))) {
				t.Fatalf("turn %d, send %d goes to %v, want exactly %v", i, j, got.to, to)
			}
			var counts, rings []int
			if got.req.VoteBatch != nil {
				for _, v := range got.req.VoteBatch.Votes {
					if v.ConfigurationID != f.config {
						t.Fatalf("turn %d pushed a vote of configuration %x, want %x", i, v.ConfigurationID, f.config)
					}
					counts = append(counts, voterCount(v.Voters))
				}
			}
			if got.req.Alerts != nil {
				for _, a := range got.req.Alerts.Alerts {
					rings = append(rings, len(a.RingNumbers))
				}
			}
			if !slices.Equal(counts, want.voters) {
				t.Fatalf("turn %d, send %d carries aggregates of %v voters, want %v", i, j, counts, want.voters)
			}
			if want.rings != nil && !slices.Equal(rings, want.rings) {
				t.Fatalf("turn %d, send %d carries alerts on %v rings, want %v", i, j, rings, want.rings)
			}
		}
	}
	if installs != row.installs || e.view.Size() != row.size {
		t.Fatalf("%d configurations installed and %d members, want %d and %d", installs, e.view.Size(), row.installs, row.size)
	}
	if row.installs > 0 {
		if e.view.ConfigurationID() != f.next {
			t.Fatalf("installed configuration %x, want %x", e.view.ConfigurationID(), f.next)
		}
		// Nothing of the configuration left behind reaches the new instance.
		if _, total := e.consensus.VotesForLeadingProposal(); total != 0 || e.votesDirty || !e.fallbackAt.IsZero() {
			t.Fatalf("the new configuration starts with %d votes counted, dirty=%v, recovery deadline %v", total, e.votesDirty, e.fallbackAt)
		}
	}
}

func runStepRows(t *testing.T, rows ...stepRow) {
	for _, row := range rows {
		t.Run(row.name, row.run)
	}
}

func voterCount(bitmap []byte) int {
	n := 0
	for _, b := range bitmap {
		n += bits.OnesCount8(b)
	}
	return n
}

// TestOwnVoteIsPushedToRingSubjectsOnce: above the one-hop limit a member's
// vote leaves on the next flush, as a bitmap with its own bit, for exactly its
// ring subjects; a member it taught pushes on to its own subjects; and an
// aggregate that teaches nothing causes no push at all.
func TestOwnVoteIsPushedToRingSubjectsOnce(t *testing.T) {
	runStepRows(t,
		stepRow{name: "the voter", n: 16, me: 5, size: 16, turns: []stepTurn{
			{in: cut}, // the vote waits for the flush tick
			{sends: []wantSend{pushTo(ring, 1)}},
			{}, // nothing learned since: no second push
		}},
		stepRow{name: "a relay", n: 16, me: 7, size: 16, turns: []stepTurn{
			{in: votes(agg{proposal: 99, from: 5, count: 1})},
			{sends: []wantSend{pushTo(ring, 1)}},
			{in: votes(agg{proposal: 99, from: 5, count: 1})}, // heard again: silent
			{},
		}},
	)
}

// TestDecidingAggregateIsRelayedBeforeInstall: the member that completes a
// quorum installs the next configuration and forgets the instance, so the
// step that decides first pushes what it knows to the subjects it has in the
// configuration it is leaving — or the relay chain would end with it. The
// decision is applied once, after the whole batch went through the instance
// that decided: whichever aggregate completes the quorum (13 of 16), exactly
// one configuration is installed and what follows it in the batch is counted
// for nothing, neither in the push nor in the new configuration.
func TestDecidingAggregateIsRelayedBeforeInstall(t *testing.T) {
	rest := []agg{{proposal: 98, from: 14, count: 2}, {proposal: 97, from: 0, count: 3, next: true}}
	runStepRows(t,
		stepRow{name: "the first aggregate decides", n: 16, me: 2, installs: 1, size: 17, turns: []stepTurn{
			{in: votes(append([]agg{{proposal: 99, from: 0, count: 13}}, rest...)...), sends: []wantSend{pushTo(ring, 13)}},
			{}, // the new configuration's first flush has nothing to push
		}},
		stepRow{name: "the second aggregate decides", n: 16, me: 2, installs: 1, size: 17, turns: []stepTurn{
			{in: votes(append([]agg{{proposal: 98, from: 0, count: 1}, {proposal: 99, from: 1, count: 13}}, rest...)...), sends: []wantSend{pushTo(ring, 1, 13)}},
			{},
		}},
	)
}

// TestSmallMembershipVotesInOneHop: at or below the one-hop limit a vote goes
// to every other member and nobody relays what it receives — the message
// count of unicast-to-all, less the copy to oneself.
func TestSmallMembershipVotesInOneHop(t *testing.T) {
	runStepRows(t,
		stepRow{name: "the voter", n: 12, me: 5, size: 12, turns: []stepTurn{
			{in: cut},
			{sends: []wantSend{pushTo(peers, 1)}},
		}},
		stepRow{name: "a peer", n: 12, me: 6, size: 12, turns: []stepTurn{
			{in: votes(agg{proposal: 99, from: 5, count: 1})},
			{}, // counted, not relayed
		}},
	)
}

// TestVoteThatDecidesStillLeaves: a member counts its own vote at once, so
// the vote that completes its quorum decides on the step that casts it,
// before any flush tick. It must reach the others all the same — with N = 4
// they cannot decide without it. A lone member decides inside Propose, with
// nobody to tell, and the recovery deadline its vote armed is gone with the
// instance. And a leave is one message for every member, this one included.
func TestVoteThatDecidesStillLeaves(t *testing.T) {
	runStepRows(t,
		stepRow{name: "the last of four votes", n: 4, me: 3, installs: 1, size: 5, turns: []stepTurn{
			{in: votes(agg{proposal: 99, from: 0, count: 3})}, // three of four decide nothing
			{in: cut, sends: []wantSend{pushTo(peers, 4)}},
		}},
		stepRow{name: "a lone member", n: 1, me: 0, installs: 1, size: 2, turns: []stepTurn{
			{in: cut},
		}},
		stepRow{name: "a leave", n: 4, me: 1, size: 4, turns: []stepTurn{
			{in: leave, sends: []wantSend{{kind: "leave", to: all}}},
		}},
	)
}

// TestVerdictOfTheConfigurationLeftIsDropped: a probe outcome carries the
// generation of the round that issued it, and every install starts a new one.
// A failure that was queued behind the decision — a probe that crossed the
// install — is about an edge of the configuration just left, and files
// nothing, although it would complete a verdict: every configuration starts
// with fresh detector windows. The same failure in a round of the installed
// configuration is a REMOVE alert, in that same step, for every member of it.
// (TestOutcomeOfAnOlderGenerationChangesNothing has an index past the new
// subject list.)
func TestVerdictOfTheConfigurationLeftIsDropped(t *testing.T) {
	decide := stepTurn{in: votes(agg{proposal: 99, from: 0, count: 13}), sends: []wantSend{pushTo(ring, 13)}}
	runStepRows(t,
		stepRow{name: "stamped with the configuration left", n: 16, me: 2, installs: 1, size: 17, turns: []stepTurn{
			decide,
			{in: failed(false)},
			{}, // no alert is pending: the flush tick sends nothing
		}},
		stepRow{name: "stamped with the configuration installed", n: 16, me: 2, installs: 1, size: 17, turns: []stepTurn{
			decide,
			{in: failed(true)},
			{sends: []wantSend{{kind: "alerts", to: grown}}},
		}},
	)
}

// TestEnsembleEchoesAStuckSubjectOnAllRings: an ensemble node observes nobody
// and speaks for every observer (§5). A subject five observers report on 5 of
// its 10 rings sits between L and H, where it blocks every proposal (§4.2). Once it has sat
// there for ReinforcementTimeout, the reinforcement tick echoes it: one REMOVE
// alert on all K rings, which the next flush sends to the electorate as one
// batch. The step that files the echo back makes the subject stable, and the
// node votes for the cut.
func TestEnsembleEchoesAStuckSubjectOnAllRings(t *testing.T) {
	timeout := DefaultSettings().ReinforcementTimeout
	runStepRows(t, stepRow{name: "an ensemble node", n: 60, me: 1, ensemble: 3, size: 60, turns: []stepTurn{
		{in: removal(5, false)},
		{}, // an ensemble node only ingests: nothing to flush
		{wait: timeout - time.Millisecond, in: reinforceTick},
		{}, // not stuck for long enough yet
		{wait: time.Millisecond, in: reinforceTick},
		{sends: []wantSend{{kind: "alerts", to: electorate, rings: []int{10}}}},
		{in: removal(10, true)},
		{sends: []wantSend{pushTo(peers, 1)}},
	}})
}
