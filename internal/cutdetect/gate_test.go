package cutdetect

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/view"
)

// randomRemoveBatch returns 1–4 REMOVE alerts, each from an observer of one
// of the victims on the rings it holds — now and then only some of them —
// and, one batch in eight, one more about a member that is not a victim, as
// a deaf observer's would be.
func randomRemoveBatch(rng *rand.Rand, v *view.View, victims []node.Addr) []remoting.AlertMessage {
	members := v.MemberAddrs()
	var batch []remoting.AlertMessage
	for i, n := 0, 1+rng.Intn(4); i <= n; i++ {
		subject := victims[rng.Intn(len(victims))]
		if i == n {
			if rng.Intn(8) > 0 {
				break
			}
			subject = members[rng.Intn(len(members))]
		}
		observers, _ := v.ObserversOf(subject)
		o := observers[rng.Intn(len(observers))]
		rings := v.RingNumbers(o, subject)
		if len(rings) > 1 && rng.Intn(3) == 0 {
			rings = rings[:1+rng.Intn(len(rings)-1)]
		}
		batch = append(batch, remoting.AlertMessage{EdgeSrc: o, EdgeDst: subject, Status: remoting.EdgeDown, RingNumbers: rings})
	}
	return batch
}

// ingest feeds a batch to d, as handleAlerts does, and returns the proposals.
func ingest(d *Detector, v *view.View, batch []remoting.AlertMessage, now time.Time) []node.Endpoint {
	var out []node.Endpoint
	for _, a := range batch {
		ep, _ := v.Member(a.EdgeDst)
		out = append(out, d.AggregateForProposal(a, ep, now)...)
	}
	return out
}

// TestGatedScanMatchesEveryScan is the reference test of the scan's gate: a
// detector whose scan runs only after a state change and one that is made to
// scan every time see the same random REMOVE alerts about 1–5 victims of a
// view of 12–52 members, and after every step their proposals, every
// member's tally and the unstable count agree.
func TestGatedScanMatchesEveryScan(t *testing.T) {
	skipped, applied := 0, 0 // scans the gate saved, and gated scans that changed a tally
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := buildTestView(12 + rng.Intn(41))
		members := v.MemberAddrs()
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		victims := members[:1+rng.Intn(5)]
		members = v.MemberAddrs()
		gated, every := New(testK, testH, testL), New(testK, testH, testL)
		now := t0
		for step := 0; step < 30; step++ {
			now = now.Add(100 * time.Millisecond)
			batch := randomRemoveBatch(rng, v, victims)
			pg, pe := ingest(gated, v, batch, now), ingest(every, v, batch, now)
			// The engine scans after a batch that applied a REMOVE alert and
			// on its reinforcement tick; here, two steps in three.
			if rng.Intn(3) > 0 {
				if !gated.rescan {
					skipped++
				}
				before := tallies(gated, members)
				every.rescan = true
				pg = append(pg, gated.InvalidateFailingEdges(v, now)...)
				pe = append(pe, every.InvalidateFailingEdges(v, now)...)
				if !slices.Equal(before, tallies(gated, members)) {
					applied++
				}
			}
			if !slices.EqualFunc(pg, pe, node.Endpoint.Equal) {
				t.Fatalf("seed %d step %d: the gated detector proposed %v, the one that always scans %v", seed, step, pg, pe)
			}
			if tg, te := tallies(gated, members), tallies(every, members); !slices.Equal(tg, te) {
				t.Fatalf("seed %d step %d: tallies %v, with every scan %v", seed, step, tg, te)
			}
			if gated.UpdatesInProgress() != every.UpdatesInProgress() || gated.ProposalsEmitted() != every.ProposalsEmitted() {
				t.Fatalf("seed %d step %d: %d unstable and %d proposals, with every scan %d and %d", seed, step,
					gated.UpdatesInProgress(), gated.ProposalsEmitted(), every.UpdatesInProgress(), every.ProposalsEmitted())
			}
		}
	}
	t.Logf("the gate saved %d scans; %d gated scans applied implicit alerts", skipped, applied)
	if skipped == 0 || applied == 0 {
		t.Fatal("the steps never exercised both sides of the gate")
	}
}

func tallies(d *Detector, members []node.Addr) []int {
	out := make([]int, len(members))
	for i, m := range members {
		out[i] = d.Tally(m)
	}
	return out
}

// TestScanRunsOnlyAfterATransition counts the gate's work: 10 victims and 100
// one-alert batches make no more full scans than there are transitions into
// suspect, unstable or stable — not one scan per batch.
func TestScanRunsOnlyAfterATransition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := buildTestView(60)
	members := v.MemberAddrs()
	victims := members[10:20]
	d := New(testK, testH, testL)
	states := func() map[node.Addr]state {
		out := make(map[node.Addr]state, len(d.subjects))
		for a, r := range d.subjects {
			out[a] = r.state
		}
		return out
	}
	transitions := func(before map[node.Addr]state) (n int) {
		for a, r := range d.subjects {
			if r.state != before[a] && (r.state == suspect || r.state == unstable || r.state == stable) {
				n++
			}
		}
		return n
	}
	scans, moved := 0, 0
	for i := 0; i < 100; i++ {
		subject := victims[rng.Intn(len(victims))]
		observers, _ := v.ObserversOf(subject)
		o := observers[rng.Intn(len(observers))]
		rings := v.RingNumbers(o, subject)
		batch := []remoting.AlertMessage{{EdgeSrc: o, EdgeDst: subject, Status: remoting.EdgeDown, RingNumbers: rings[:1]}}
		before := states()
		ingest(d, v, batch, t0)
		moved += transitions(before)
		if d.rescan {
			scans++
		}
		before = states()
		d.InvalidateFailingEdges(v, t0)
		moved += transitions(before)
	}
	t.Logf("100 batches, %d transitions, %d full scans", moved, scans)
	if scans == 0 || scans > moved {
		t.Fatalf("%d full scans for %d transitions", scans, moved)
	}
}
