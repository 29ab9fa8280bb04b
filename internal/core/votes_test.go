package core

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/view"
)

// --- counting votes along the rings: rows on step ----------------------------------

// A stepRow drives one member of an n-member configuration through a list of
// turns — events given to step, or flushes — with no transport and no
// goroutine, and checks what each turn returns: K = 3 unless the row says
// otherwise, so a membership relays votes from 13 members on (oneHopLimit =
// 4K = 12), and voteRings (4) are all the rings there are.
type stepRow struct {
	name  string
	n, me int // the membership is endpoint(0..n-1), the member under test endpoint(me)
	// paper runs the row at the paper's K, H, L = 10, 9, 3, where a relaying
	// membership (n > 40) has more distinct ring subjects than vote rings.
	paper bool
	// ensemble, when set, is the size of an ensemble that manages the
	// membership, and the process under test is its node me, at the paper's
	// K, H, L = 10, 9, 3.
	ensemble int
	// leaver, when not zero, is the member endpoint(leaver) whose removal the
	// turns decide, instead of newcomer's admission.
	leaver int
	turns  []stepTurn
	// installs is how many configurations the turns publish in all, and size
	// the membership the member ends with.
	installs, size int
}

// stepTurn is one input and the sends it must return, in order. The clock
// moves on by wait first, and the member wakes at every deadline it holds on
// the way, as the driver's timer would wake it; the sends of those wakes
// count as the turn's.
type stepTurn struct {
	wait time.Duration
	// in is the event to step; nil wakes the member at its flush deadline,
	// if it holds one.
	in    func(f *stepFixture) event
	sends []wantSend
	// tally, when set, is newcomer's tally in the cut detector after the turn.
	tally func(f *stepFixture) int
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
// to subjects of the configuration being left.
type stepFixture struct {
	me       node.Addr
	k        int
	config   uint64
	next     uint64 // the configuration the row's cut leads to
	gen      uint64
	members  []node.Addr
	subjects []node.Addr
	voters   []node.Addr
	others   []node.Addr
	// joinObservers are newcomer's expected observers, one per ring, and
	// watcher the one on ring 0.
	joinObservers []node.Addr
	watcher       node.Addr
	// leaverTargets are the row's leaver's vote targets.
	leaverTargets []node.Addr
}

// newcomer is the process every row's cut admits.
var newcomer = endpoint(99)

func all(f *stepFixture) []node.Addr      { return f.members }
func ring(f *stepFixture) []node.Addr     { return f.subjects }
func voteRing(f *stepFixture) []node.Addr { return f.subjects[:voteRings] }
func peers(f *stepFixture) []node.Addr    { return f.others }
func cut(f *stepFixture) event            { return event{req: cutAlerts(f.config, f.k, newcomer)} }
func leave(*stepFixture) event            { return leaveEvent }

func electorate(f *stepFixture) []node.Addr { return f.voters }

// leaverFillIn is voteRing plus every other subject of the member that the
// row's leaver pushed votes to.
func leaverFillIn(f *stepFixture) []node.Addr {
	to := slices.Clone(voteRing(f))
	for _, s := range f.subjects[voteRings:] {
		if slices.Contains(f.leaverTargets, s) {
			to = append(to, s)
		}
	}
	return to
}

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

// watcherDown is a batch of REMOVE alerts about newcomer's watcher on the
// given rings, ring i reported by the member endpoint(1+i).
func watcherDown(rings ...int) func(*stepFixture) event {
	return func(f *stepFixture) event {
		var alerts []remoting.AlertMessage
		for _, i := range rings {
			alerts = append(alerts, remoting.AlertMessage{EdgeSrc: endpoint(1 + i).Addr, EdgeDst: f.watcher, Status: remoting.EdgeDown, ConfigurationID: f.config, RingNumbers: []int{i}})
		}
		return event{req: &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: alerts[0].EdgeSrc, Alerts: alerts}}}
	}
}

// joinPastWatcher is a batch of JOIN alerts about newcomer, each from its
// expected observer, on every ring but the watcher's.
func joinPastWatcher(f *stepFixture) event {
	var alerts []remoting.AlertMessage
	for ring, o := range f.joinObservers {
		if o != f.watcher {
			alerts = append(alerts, remoting.AlertMessage{EdgeSrc: o, EdgeDst: newcomer.Addr, Status: remoting.EdgeUp, ConfigurationID: f.config, RingNumbers: []int{ring}, JoinerID: newcomer.ID})
		}
	}
	return event{req: &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: alerts[0].EdgeSrc, Alerts: alerts}}}
}

// pastWatcher is how many rings joinPastWatcher reports newcomer on, and
// everyRing all K of them.
func pastWatcher(f *stepFixture) int {
	n := 0
	for _, o := range f.joinObservers {
		if o != f.watcher {
			n++
		}
	}
	return n
}
func everyRing(f *stepFixture) int { return f.k }

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
func (row stepRow) run(t *testing.T) {
	r := newEngineRig(t)
	members := make([]node.Endpoint, row.n)
	for i := range members {
		members[i] = endpoint(i)
	}
	self := endpoint(row.me)
	if row.ensemble == 0 && !row.paper {
		r.settings.K, r.settings.H, r.settings.L = 3, 3, 1
		r.settings.FailureDetector = consecutive(1)
	}
	if row.ensemble > 0 {
		for i := range row.ensemble {
			r.ensemble = append(r.ensemble, node.Addr(fmt.Sprintf("ensemble-%d:1", i)))
		}
		self = node.Endpoint{Addr: r.ensemble[row.me], ID: node.NewID()}
	}
	me := self.Addr
	e, _ := r.start(self, members)
	f := &stepFixture{me: me, k: r.settings.K, config: e.view.ConfigurationID(), members: e.addrs, subjects: e.subjects, voters: e.voters}
	if row.paper && e.relays() && len(f.subjects) <= voteRings {
		t.Fatalf("%d distinct ring subjects: the row cannot tell the vote rings from all rings", len(f.subjects))
	}
	f.gen, _ = e.probes.Tick()
	f.joinObservers = e.view.ExpectedObserversOf(newcomer.Addr)
	f.watcher = f.joinObservers[0]
	f.next = view.NewWithMembers(r.settings.K, append(slices.Clone(members), newcomer)).ConfigurationID()
	if row.leaver != 0 {
		f.next = view.NewWithMembers(r.settings.K, slices.Delete(slices.Clone(members), row.leaver, row.leaver+1)).ConfigurationID()
		theirs, _ := e.view.UniqueSubjectsOf(endpoint(row.leaver).Addr)
		f.leaverTargets = theirs[:voteRings]
		if len(leaverFillIn(f)) == voteRings {
			t.Fatalf("endpoint(%d) pushes votes to none of %s's other subjects: the row cannot see the fill-in", row.leaver, me)
		}
	}
	for _, a := range e.voters {
		if a != me {
			f.others = append(f.others, a)
		}
	}

	installs := 0
	for i, turn := range row.turns {
		outs := r.wakeUntil(e, r.clk.Now().Add(turn.wait))
		switch {
		case turn.in != nil:
			outs = append(outs, e.step(turn.in(f), r.clk.Now()))
		case !e.flushDue.IsZero():
			outs = append(outs, r.wakeUntil(e, e.flushDue)...)
		}
		var out outputs
		for _, o := range outs {
			out.sends = append(out.sends, o.sends...)
			if o.publish != nil {
				installs++
			}
		}
		if turn.tally != nil {
			if got, want := e.cd.Tally(newcomer.Addr), turn.tally(f); got != want {
				t.Fatalf("turn %d left newcomer's tally at %d, want %d", i, got, want)
			}
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
// ring subjects (at K = 3 every ring is a vote ring); a member it taught
// pushes on to its own subjects; and an aggregate that teaches nothing causes
// no push at all.
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

// TestVotesAndTheDecisionTakeFourRings: at the paper's K = 10 and 48 members,
// above the one-hop limit of 40, a member's own vote and a relay of what it
// learned go to its first four distinct ring subjects only, on the flush — a
// reinforcement check pushes nothing; the step that decides pushes the
// deciding aggregate (37 of 48, the fast quorum) to the same four. A cut that
// removes a member adds the subjects that member pushed votes to, so each of
// them hears the decision from all its observers. At 40 members a vote still
// goes to every other member in one hop, and a decision taught by a peer
// pushes nothing.
func TestVotesAndTheDecisionTakeFourRings(t *testing.T) {
	runStepRows(t,
		stepRow{name: "the voter", n: 48, me: 5, paper: true, size: 48, turns: []stepTurn{
			{in: cut},
			{sends: []wantSend{pushTo(voteRing, 1)}},
			{},
		}},
		stepRow{name: "a relay", n: 48, me: 7, paper: true, size: 48, turns: []stepTurn{
			{in: votes(agg{proposal: 99, from: 5, count: 1})},
			{sends: []wantSend{pushTo(voteRing, 1)}},
		}},
		stepRow{name: "the reinforcement tick", n: 48, me: 5, paper: true, size: 48, turns: []stepTurn{
			// Subject 0 is suspect, on three rings from one observer: the
			// reinforcement check is armed, and no proposal is held up.
			{in: removal(3, true)},
			{in: cut},
			{sends: []wantSend{pushTo(voteRing, 1)}},
			{wait: DefaultSettings().ReinforcementTimeout}, // five checks, nothing to push
		}},
		stepRow{name: "the deciding step", n: 48, me: 2, paper: true, installs: 1, size: 49, turns: []stepTurn{
			{in: votes(agg{proposal: 99, from: 5, count: 1})},
			{sends: []wantSend{pushTo(voteRing, 1)}},
			{in: votes(agg{proposal: 99, from: 0, count: 37}), sends: []wantSend{pushTo(voteRing, 37)}},
			{},
		}},
		// endpoint(16)'s first four subjects include three of member 2's
		// last six.
		stepRow{name: "the vote targets of a leaver", n: 48, me: 2, paper: true, leaver: 16, installs: 1, size: 47, turns: []stepTurn{
			{in: votes(agg{proposal: 16, from: 0, count: 37}), sends: []wantSend{pushTo(leaverFillIn, 37)}},
			{},
		}},
		stepRow{name: "one hop at 4K", n: 40, me: 5, paper: true, size: 40, turns: []stepTurn{
			{in: cut},
			{sends: []wantSend{pushTo(peers, 1)}},
		}},
		stepRow{name: "a decision in one hop", n: 40, me: 6, paper: true, installs: 1, size: 41, turns: []stepTurn{
			{in: votes(agg{proposal: 99, from: 0, count: 31})}, // the fast quorum of 40
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
// its 10 rings sits between L and H, where it blocks every proposal (§4.2).
// The reinforcement check that finds it there for ReinforcementTimeout — one
// a fifth of the timeout apart from the report on, so the one at exactly the
// timeout — echoes it: one REMOVE alert on all K rings, which the next flush
// sends to the electorate as one batch. The step that files the echo back
// makes the subject stable, and the node votes for the cut.
func TestEnsembleEchoesAStuckSubjectOnAllRings(t *testing.T) {
	timeout := DefaultSettings().ReinforcementTimeout
	runStepRows(t, stepRow{name: "an ensemble node", n: 60, me: 1, ensemble: 3, size: 60, turns: []stepTurn{
		{in: removal(5, false)},
		{wait: timeout - time.Nanosecond}, // not stuck for long enough yet; an ensemble node only ingests
		{wait: time.Nanosecond, sends: []wantSend{{kind: "alerts", to: electorate, rings: []int{10}}}},
		{in: removal(10, true)},
		{sends: []wantSend{pushTo(peers, 1)}},
	}})
}

// TestReinforcementRunsTheBackstopScan: a JOIN-only batch asks for no
// implicit-alert scan. When it makes newcomer unstable while newcomer's
// watcher — an expected observer of it — is already an unstable REMOVE
// subject, the implicit alert from the watcher is applied by the next
// reinforcement check, within a fifth of ReinforcementTimeout, and not on the
// batch. Newcomer then waits stable for the watcher's removal, and the two
// leave in one proposal.
func TestReinforcementRunsTheBackstopScan(t *testing.T) {
	check := DefaultSettings().ReinforcementTimeout / 5
	runStepRows(t, stepRow{name: "a joiner behind an unstable observer", n: 16, me: 5, size: 16, turns: []stepTurn{
		{in: watcherDown(0)},
		{in: joinPastWatcher, tally: pastWatcher},
		{wait: check - time.Nanosecond, tally: pastWatcher},
		{wait: time.Nanosecond, tally: everyRing},
		{in: watcherDown(1, 2)},
		{sends: []wantSend{pushTo(ring, 1)}},
	}})
}
