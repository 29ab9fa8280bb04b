package cutdetect

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/view"
)

const (
	testK = 10
	testH = 9
	testL = 3
)

var t0 = time.Unix(0, 0)

func subjectEP(addr node.Addr) node.Endpoint {
	return node.Endpoint{Addr: addr, ID: node.ID{High: 1, Low: 1}}
}

// alertOnRing builds a single-ring alert from observer i about a subject.
func alertOnRing(observer int, subject node.Addr, ring int) (remoting.AlertMessage, node.Endpoint) {
	return remoting.AlertMessage{
		EdgeSrc:     node.Addr(fmt.Sprintf("observer-%d:1", observer)),
		EdgeDst:     subject,
		Status:      remoting.EdgeDown,
		RingNumbers: []int{ring},
	}, subjectEP(subject)
}

func TestNewValidatesParameters(t *testing.T) {
	bad := [][3]int{{0, 1, 1}, {10, 11, 1}, {10, 2, 3}, {10, 5, 0}}
	for _, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", p)
				}
			}()
			New(p[0], p[1], p[2])
		}()
	}
	if New(10, 9, 3) == nil {
		t.Fatal("valid parameters should construct a detector")
	}
}

func TestProposalEmittedAtHReports(t *testing.T) {
	d := New(testK, testH, testL)
	subject := node.Addr("faulty:1")
	for i := 0; i < testH-1; i++ {
		a, ep := alertOnRing(i, subject, i)
		if got := d.AggregateForProposal(a, ep, t0); len(got) != 0 {
			t.Fatalf("proposal emitted after only %d reports: %v", i+1, got)
		}
	}
	a, ep := alertOnRing(testH-1, subject, testH-1)
	got := d.AggregateForProposal(a, ep, t0)
	if len(got) != 1 || got[0].Addr != subject {
		t.Fatalf("expected a proposal with exactly the subject, got %v", got)
	}
	if d.ProposalsEmitted() != 1 {
		t.Fatalf("ProposalsEmitted = %d, want 1", d.ProposalsEmitted())
	}
}

func TestDuplicateRingReportsIgnored(t *testing.T) {
	d := New(testK, testH, testL)
	subject := node.Addr("faulty:1")
	// The same ring reported H times must not trigger a proposal: tallies
	// count ring slots with a report, not repeated alerts.
	for i := 0; i < testH*2; i++ {
		a, ep := alertOnRing(0, subject, 0)
		if got := d.AggregateForProposal(a, ep, t0); len(got) != 0 {
			t.Fatalf("proposal emitted from duplicate reports: %v", got)
		}
	}
	if d.Tally(subject) != 1 {
		t.Fatalf("Tally = %d, want 1", d.Tally(subject))
	}
}

func TestInvalidRingNumbersIgnored(t *testing.T) {
	d := New(testK, testH, testL)
	subject := node.Addr("faulty:1")
	a, ep := alertOnRing(0, subject, -1)
	d.AggregateForProposal(a, ep, t0)
	a2, ep2 := alertOnRing(0, subject, testK)
	d.AggregateForProposal(a2, ep2, t0)
	if d.Tally(subject) != 0 {
		t.Fatalf("out-of-range ring numbers should be ignored, tally = %d", d.Tally(subject))
	}
}

func TestProposalDelayedWhileAnotherSubjectUnstable(t *testing.T) {
	// This is the heart of the multi-process cut rule (Figure 4 of the
	// paper): q sits between L and H, so the proposal about r,s,t waits.
	d := New(testK, testH, testL)
	q, r := node.Addr("q:1"), node.Addr("r:1")

	// r reaches H-1 reports; q reaches L reports (unstable).
	for i := 0; i < testH-1; i++ {
		a, ep := alertOnRing(i, r, i)
		d.AggregateForProposal(a, ep, t0)
	}
	for i := 0; i < testL; i++ {
		a, ep := alertOnRing(i, q, i)
		d.AggregateForProposal(a, ep, t0)
	}
	// r reaching H must NOT flush while q is unstable.
	a, ep := alertOnRing(testH-1, r, testH-1)
	if got := d.AggregateForProposal(a, ep, t0); len(got) != 0 {
		t.Fatalf("proposal emitted while another subject is unstable: %v", got)
	}
	// q reaching H flushes both as a single multi-node proposal.
	var got []node.Endpoint
	for i := testL; i < testH; i++ {
		a, ep := alertOnRing(i, q, i)
		got = d.AggregateForProposal(a, ep, t0)
	}
	if len(got) != 2 {
		t.Fatalf("expected a 2-node cut {q, r}, got %v", got)
	}
	if got[0].Addr != q || got[1].Addr != r {
		t.Fatalf("proposal should be sorted {q, r}, got %v", got)
	}
}

func TestSubjectBelowLIsNoise(t *testing.T) {
	d := New(testK, testH, testL)
	q, r := node.Addr("q:1"), node.Addr("r:1")
	// q gets L-1 reports: below the low watermark, it must not block r.
	for i := 0; i < testL-1; i++ {
		a, ep := alertOnRing(i, q, i)
		d.AggregateForProposal(a, ep, t0)
	}
	var got []node.Endpoint
	for i := 0; i < testH; i++ {
		a, ep := alertOnRing(i, r, i)
		got = d.AggregateForProposal(a, ep, t0)
	}
	if len(got) != 1 || got[0].Addr != r {
		t.Fatalf("noise below L must not delay the proposal; got %v", got)
	}
}

// TestOneObserverCannotHoldAMemberUnstable is the faulty-observer case of a
// small membership: a deaf process that holds L of a healthy member's rings
// reports it on all of them. The member is only suspect — it neither delays
// the faulty process' own removal nor is reinforced — until reports from L
// distinct observers make it unstable.
func TestOneObserverCannotHoldAMemberUnstable(t *testing.T) {
	d := New(testK, testH, testL)
	q, r := node.Addr("q:1"), node.Addr("r:1")
	deaf := remoting.AlertMessage{EdgeSrc: "deaf:1", EdgeDst: q, Status: remoting.EdgeDown, RingNumbers: []int{0, 1, 2, 3}}
	d.AggregateForProposal(deaf, subjectEP(q), t0)
	if d.Tally(q) != 4 || d.UpdatesInProgress() != 0 {
		t.Fatalf("tally %d, %d unstable; want 4 ring slots and no unstable subject", d.Tally(q), d.UpdatesInProgress())
	}
	if got := d.UnstableLongerThan(t0.Add(time.Hour), time.Second); len(got) != 0 {
		t.Fatalf("a suspect subject was offered for reinforcement: %v", got)
	}
	var got []node.Endpoint
	for i := 0; i < testH; i++ {
		a, ep := alertOnRing(i, r, i)
		got = d.AggregateForProposal(a, ep, t0)
	}
	if len(got) != 1 || got[0].Addr != r {
		t.Fatalf("a suspect subject must not delay the proposal; got %v", got)
	}

	// Two more observers make L distinct ones: q is unstable, and stays so
	// until it reaches H.
	d.Clear()
	d.AggregateForProposal(deaf, subjectEP(q), t0)
	for i := 4; i < 4+testL-1; i++ {
		a, ep := alertOnRing(i, q, i)
		d.AggregateForProposal(a, ep, t0)
	}
	if d.UpdatesInProgress() != 1 {
		t.Fatalf("%d unstable subjects after reports from %d observers, want 1", d.UpdatesInProgress(), testL)
	}
	if got := d.UnstableLongerThan(t0.Add(time.Hour), time.Second); len(got) != 1 || got[0] != q {
		t.Fatalf("UnstableLongerThan = %v, want [%v]", got, q)
	}
	for i := 4 + testL - 1; i < testH; i++ {
		a, ep := alertOnRing(i, q, i)
		got = d.AggregateForProposal(a, ep, t0)
	}
	if len(got) != 1 || got[0].Addr != q || d.UpdatesInProgress() != 0 {
		t.Fatalf("proposal %v with %d unstable, want [q] and none", got, d.UpdatesInProgress())
	}
}

// TestOneObserverHoldsAJoinerUnstable: JOIN tallies are not filtered by
// observer. A joiner reported on L rings by one observer delays the proposal
// until its other observers report it too.
func TestOneObserverHoldsAJoinerUnstable(t *testing.T) {
	d := New(testK, testH, testL)
	joiner := node.Endpoint{Addr: "joiner:1", ID: node.ID{High: 42, Low: 42}}
	d.AggregateForProposal(remoting.AlertMessage{EdgeSrc: "seed:1", EdgeDst: joiner.Addr, Status: remoting.EdgeUp, RingNumbers: []int{0, 1, 2}, JoinerID: joiner.ID}, joiner, t0)
	if d.UpdatesInProgress() != 1 {
		t.Fatalf("%d unstable subjects, want the joiner", d.UpdatesInProgress())
	}
	r := node.Addr("r:1")
	for i := 0; i < testH; i++ {
		a, ep := alertOnRing(i, r, i)
		if got := d.AggregateForProposal(a, ep, t0); len(got) != 0 {
			t.Fatalf("proposal %v emitted while the joiner is unstable", got)
		}
	}
}

func TestMultipleProposalsSequentially(t *testing.T) {
	d := New(testK, testH, testL)
	first := node.Addr("a:1")
	second := node.Addr("b:1")
	var got []node.Endpoint
	for i := 0; i < testH; i++ {
		a, ep := alertOnRing(i, first, i)
		got = d.AggregateForProposal(a, ep, t0)
	}
	if len(got) != 1 {
		t.Fatalf("first proposal missing: %v", got)
	}
	for i := 0; i < testH; i++ {
		a, ep := alertOnRing(i, second, i)
		got = d.AggregateForProposal(a, ep, t0)
	}
	if len(got) != 1 || got[0].Addr != second {
		t.Fatalf("second proposal wrong: %v", got)
	}
	if d.ProposalsEmitted() != 2 {
		t.Fatalf("ProposalsEmitted = %d, want 2", d.ProposalsEmitted())
	}
}

func TestClearResetsState(t *testing.T) {
	d := New(testK, testH, testL)
	subject := node.Addr("x:1")
	for i := 0; i < testL; i++ {
		a, ep := alertOnRing(i, subject, i)
		d.AggregateForProposal(a, ep, t0)
	}
	if d.UpdatesInProgress() != 1 {
		t.Fatalf("UpdatesInProgress = %d, want 1", d.UpdatesInProgress())
	}
	d.Clear()
	if d.UpdatesInProgress() != 0 || d.Tally(subject) != 0 {
		t.Fatal("Clear did not reset state")
	}
}

func TestUnstableLongerThan(t *testing.T) {
	d := New(testK, testH, testL)
	subject := node.Addr("x:1")
	for i := 0; i < testL; i++ {
		a, ep := alertOnRing(i, subject, i)
		d.AggregateForProposal(a, ep, t0)
	}
	if got := d.UnstableLongerThan(t0.Add(time.Second), 10*time.Second); len(got) != 0 {
		t.Fatalf("subject reported stuck too early: %v", got)
	}
	got := d.UnstableLongerThan(t0.Add(11*time.Second), 10*time.Second)
	if len(got) != 1 || got[0] != subject {
		t.Fatalf("UnstableLongerThan = %v, want [%v]", got, subject)
	}
	// Once stable, the subject no longer appears.
	for i := testL; i < testH; i++ {
		a, ep := alertOnRing(i, subject, i)
		d.AggregateForProposal(a, ep, t0)
	}
	if got := d.UnstableLongerThan(t0.Add(time.Hour), 10*time.Second); len(got) != 0 {
		t.Fatalf("stable subject still reported as stuck: %v", got)
	}
}

func TestHasReportForRing(t *testing.T) {
	d := New(testK, testH, testL)
	subject := node.Addr("x:1")
	a, ep := alertOnRing(0, subject, 4)
	d.AggregateForProposal(a, ep, t0)
	if !d.HasReportForRing(subject, 4) {
		t.Error("expected a report on ring 4")
	}
	if d.HasReportForRing(subject, 5) {
		t.Error("unexpected report on ring 5")
	}
}

// buildTestView creates a K=10 view over n members named m0..m(n-1).
func buildTestView(n int) *view.View {
	eps := make([]node.Endpoint, n)
	for i := range eps {
		eps[i] = node.Endpoint{
			Addr: node.Addr(fmt.Sprintf("m%03d:1", i)),
			ID:   node.ID{High: uint64(i + 1), Low: uint64(i + 1)},
		}
	}
	return view.NewWithMembers(testK, eps)
}

func TestInvalidateFailingEdgesUnblocksStuckSubject(t *testing.T) {
	// Scenario: two faulty nodes f1, f2 where some observers of f1 are
	// themselves faulty (f2 among them) and never send their alerts. f1 is
	// stuck in the unstable region until implicit alerts from the faulty
	// observers are applied.
	v := buildTestView(30)
	d := New(testK, testH, testL)
	members := v.MemberAddrs()
	f1 := members[0]
	f1EP, _ := v.Member(f1)

	observers, err := v.ObserversOf(f1)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver alerts about f1 from all but two of its observers (distinct
	// ring numbers), leaving it just below H but above L.
	type obsRing struct {
		o    node.Addr
		ring int
	}
	var edges []obsRing
	seenRing := make(map[int]bool)
	for _, o := range observers {
		for _, ring := range v.RingNumbers(o, f1) {
			if !seenRing[ring] {
				seenRing[ring] = true
				edges = append(edges, obsRing{o, ring})
			}
		}
	}
	if len(edges) != testK {
		t.Fatalf("expected %d distinct observer rings, got %d", testK, len(edges))
	}
	silent := edges[testH-1:] // these observers never report
	loud := edges[:testH-1]
	for _, e := range loud {
		alert := remoting.AlertMessage{EdgeSrc: e.o, EdgeDst: f1, Status: remoting.EdgeDown, RingNumbers: []int{e.ring}}
		if got := d.AggregateForProposal(alert, f1EP, t0); len(got) != 0 {
			t.Fatalf("unexpected early proposal: %v", got)
		}
	}
	// Now make the silent observers themselves unstable (they are faulty too):
	// give each of them exactly L reports.
	for _, e := range silent {
		obsEP, _ := v.Member(e.o)
		obsObservers, _ := v.ObserversOf(e.o)
		count := 0
		seen := make(map[int]bool)
		for _, oo := range obsObservers {
			for _, ring := range v.RingNumbers(oo, e.o) {
				if count >= testL {
					break
				}
				if seen[ring] {
					continue
				}
				seen[ring] = true
				alert := remoting.AlertMessage{EdgeSrc: oo, EdgeDst: e.o, Status: remoting.EdgeDown, RingNumbers: []int{ring}}
				if got := d.AggregateForProposal(alert, obsEP, t0); len(got) != 0 {
					t.Fatalf("unexpected proposal while constructing scenario: %v", got)
				}
				count++
			}
		}
	}
	// Implicit alerts should now push f1 over H. The proposal may not flush
	// until the faulty observers themselves stabilize, so also drive them to
	// H afterwards and expect a combined cut.
	d.InvalidateFailingEdges(v, t0)
	if d.Tally(f1) < testH {
		t.Fatalf("implicit alerts should have brought f1 to H; tally = %d", d.Tally(f1))
	}
	// Drive the remaining unstable observers to stability.
	var final []node.Endpoint
	for _, e := range silent {
		obsEP, _ := v.Member(e.o)
		obsObservers, _ := v.ObserversOf(e.o)
		seen := make(map[int]bool)
		for _, oo := range obsObservers {
			for _, ring := range v.RingNumbers(oo, e.o) {
				if seen[ring] || d.HasReportForRing(e.o, ring) {
					continue
				}
				seen[ring] = true
				alert := remoting.AlertMessage{EdgeSrc: oo, EdgeDst: e.o, Status: remoting.EdgeDown, RingNumbers: []int{ring}}
				if got := d.AggregateForProposal(alert, obsEP, t0); len(got) != 0 {
					final = got
				}
			}
		}
	}
	if len(final) == 0 {
		t.Fatal("expected a final multi-node proposal including f1 and the faulty observers")
	}
	found := false
	for _, ep := range final {
		if ep.Addr == f1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("final proposal %v does not include f1", final)
	}
}

func TestJoinAlertsAggregateLikeRemoveAlerts(t *testing.T) {
	d := New(testK, testH, testL)
	joiner := node.Endpoint{Addr: "joiner:1", ID: node.ID{High: 42, Low: 42}, Metadata: map[string]string{"role": "web"}}
	var got []node.Endpoint
	for i := 0; i < testH; i++ {
		alert := remoting.AlertMessage{
			EdgeSrc:     node.Addr(fmt.Sprintf("observer-%d:1", i)),
			EdgeDst:     joiner.Addr,
			Status:      remoting.EdgeUp,
			RingNumbers: []int{i},
			JoinerID:    joiner.ID,
		}
		got = d.AggregateForProposal(alert, joiner, t0)
	}
	if len(got) != 1 || got[0].Addr != joiner.Addr || got[0].ID != joiner.ID {
		t.Fatalf("join proposal = %v, want the joiner endpoint", got)
	}
	if got[0].Metadata["role"] != "web" {
		t.Fatal("joiner metadata should be carried into the proposal")
	}
}

func TestAlmostEverywhereAgreementProperty(t *testing.T) {
	// Property-based version of the Figure 11 experiment: for F simultaneous
	// failures with all K*F alerts delivered in random order to independent
	// detectors, every detector must emit the identical full cut when
	// H-L is large (here H=9, L=3, so conflicts require pathological
	// orderings that cannot happen when all alerts are delivered).
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := 2 + r.Intn(6)
		subjects := make([]node.Endpoint, f)
		for i := range subjects {
			subjects[i] = node.Endpoint{Addr: node.Addr(fmt.Sprintf("f%d:1", i)), ID: node.ID{High: uint64(i + 1), Low: 9}}
		}
		type alertEvent struct {
			alert remoting.AlertMessage
			ep    node.Endpoint
		}
		var alerts []alertEvent
		for i, s := range subjects {
			for ring := 0; ring < testK; ring++ {
				alerts = append(alerts, alertEvent{
					alert: remoting.AlertMessage{
						EdgeSrc:     node.Addr(fmt.Sprintf("obs-%d-%d:1", i, ring)),
						EdgeDst:     s.Addr,
						Status:      remoting.EdgeDown,
						RingNumbers: []int{ring},
					},
					ep: s,
				})
			}
		}
		d := New(testK, testH, testL)
		r.Shuffle(len(alerts), func(i, j int) { alerts[i], alerts[j] = alerts[j], alerts[i] })
		var final []node.Endpoint
		for _, a := range alerts {
			if got := d.AggregateForProposal(a.alert, a.ep, t0); len(got) > 0 {
				final = append(final, got...)
			}
		}
		// Across all emitted proposals, every failed subject appears exactly once.
		seen := make(map[node.Addr]int)
		for _, ep := range final {
			seen[ep.Addr]++
		}
		if len(seen) != f {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
