// Package cutdetect implements Rapid's multi-process cut detection (§4.2).
//
// Every process ingests REMOVE and JOIN alerts broadcast by observers about
// edges to their subjects, and tallies per subject the number of ring slots
// with a report: of its K rings, how many have been reported on, so an
// observer that holds several of a subject's rings counts once per ring, not
// once. With K ring slots per subject and two watermarks L ≤ H ≤ K, a subject
// is in "stable report mode" once its tally reaches H and in "unstable report
// mode" while the tally is between L and H. A process announces a
// configuration-change proposal only when at least one subject is stable and
// no subject is unstable — this single rule is what yields almost-everywhere
// agreement on a multi-node cut.
//
// All of it is one record per subject — the reported rings as a bitmap, the
// state against the watermarks, the endpoint, the time it turned unstable —
// in one map. The detector takes no lock: its owner serializes the calls (the
// membership engine is single-writer, the centralized ensemble holds its own).
//
// The detector also implements the two liveness mechanisms of the paper:
// implicit alerts (an unstable observer of an unstable subject implicitly
// counts as an alert) and a reinforcement hook that lets the membership
// service echo REMOVE alerts for subjects stuck in the unstable region.
package cutdetect

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/view"
)

// Detector accumulates alerts for one configuration and emits at most one
// multi-process cut proposal batch at a time. It is not safe for concurrent
// use.
type Detector struct {
	k, h, l int

	subjects map[node.Addr]*record
	// pending are the subjects that reached H and await flushing.
	pending []*record
	// updatesInProgress counts subjects currently in the unstable region.
	updatesInProgress int
	// proposalsEmitted counts flushed proposals (diagnostics/tests).
	proposalsEmitted int
}

// state is where a subject's tally stands against the watermarks.
type state uint8

const (
	noise    state = iota // fewer than L reports
	unstable              // in [L, H)
	stable                // reached H, awaiting the flush
	emitted               // flushed in a proposal
)

// record is everything the detector knows about one subject.
type record struct {
	// rings is the bitmap of the ring slots with a report — first, unless K
	// is past 64 — and count their number.
	rings []uint64
	first [1]uint64
	count int
	state state
	// endpoint is what a proposal names the subject by (a joiner is not in
	// the current view).
	endpoint node.Endpoint
	// since is when the subject entered the unstable region, for the
	// reinforcement timeout.
	since time.Time
}

// New creates a detector for a configuration with K observers per subject and
// watermarks H and L. It panics if the parameters are inconsistent, since
// they are static configuration supplied by the caller.
func New(k, h, l int) *Detector {
	if k <= 0 || l < 1 || h < l || h > k {
		panic(fmt.Sprintf("cutdetect: invalid parameters K=%d H=%d L=%d (need 1 <= L <= H <= K)", k, h, l))
	}
	return &Detector{k: k, h: h, l: l, subjects: make(map[node.Addr]*record)}
}

// AggregateForProposal ingests one alert and returns a (possibly empty) list
// of endpoints forming a view-change proposal. A non-empty return means the
// aggregation rule fired: at least one subject is stable and none is
// unstable. `now` is used to time how long subjects stay unstable.
func (d *Detector) AggregateForProposal(alert remoting.AlertMessage, subject node.Endpoint, now time.Time) []node.Endpoint {
	var out []node.Endpoint
	for _, ring := range alert.RingNumbers {
		out = append(out, d.aggregate(alert.EdgeDst, subject, ring, now)...)
	}
	return out
}

// aggregate applies a single (subject, ring) report.
func (d *Detector) aggregate(subjectAddr node.Addr, subject node.Endpoint, ring int, now time.Time) []node.Endpoint {
	if ring < 0 || ring >= d.k {
		return nil
	}
	r := d.subjects[subjectAddr]
	if r == nil {
		r = &record{}
		if r.rings = r.first[:]; d.k > 64 {
			r.rings = make([]uint64, (d.k+63)/64)
		}
		d.subjects[subjectAddr] = r
	}
	if r.count >= d.h {
		return nil // Already saturated; no more bookkeeping needed.
	}
	word, bit := &r.rings[ring/64], uint64(1)<<(ring%64)
	if *word&bit != 0 {
		return nil // Already have a report for this ring.
	}
	*word |= bit
	r.count++
	r.endpoint = subject

	if r.count == d.l {
		d.updatesInProgress++
		r.state, r.since = unstable, now
	}
	if r.count == d.h {
		r.state = stable
		d.pending = append(d.pending, r)
		d.updatesInProgress--
		if d.updatesInProgress == 0 {
			// No subject is unstable: flush everything in stable mode as one
			// multi-process cut proposal.
			d.proposalsEmitted++
			out := make([]node.Endpoint, len(d.pending))
			for i, p := range d.pending {
				out[i], p.state = p.endpoint, emitted
			}
			d.pending = nil
			slices.SortFunc(out, node.CompareEndpoints)
			return out
		}
	}
	return nil
}

// unstableSubjects returns the subjects in the unstable region that keep, in
// address order.
func (d *Detector) unstableSubjects(keep func(*record) bool) []node.Addr {
	if d.updatesInProgress == 0 {
		return nil
	}
	var out []node.Addr
	for addr, r := range d.subjects {
		if r.state == unstable && keep(r) {
			out = append(out, addr)
		}
	}
	return node.SortAddrs(out)
}

// InvalidateFailingEdges applies implicit alerts: if both an observer o and
// its subject s are in the unstable region (or o is already in the stable
// set), an implicit alert from o about s is applied. This prevents the
// detector from waiting forever for alerts from observers that are themselves
// faulty (§4.2, "Ensuring liveness"). It returns any proposal that results.
func (d *Detector) InvalidateFailingEdges(v *view.View, now time.Time) []node.Endpoint {
	var out []node.Endpoint
	// A sorted snapshot of the unstable subjects, for determinism.
	for _, subjectAddr := range d.unstableSubjects(func(*record) bool { return true }) {
		subject := d.subjects[subjectAddr].endpoint
		var observers []node.Addr
		if v.Contains(subjectAddr) {
			observers, _ = v.ObserversOf(subjectAddr)
		} else {
			observers = v.ExpectedObserversOf(subjectAddr)
		}
		for _, o := range observers {
			// The observer must itself be unstable, or in the pending stable set.
			if r := d.subjects[o]; r == nil || (r.state != unstable && r.state != stable) {
				continue
			}
			for _, ring := range v.RingNumbers(o, subjectAddr) {
				out = append(out, d.aggregate(subjectAddr, subject, ring, now)...)
			}
		}
	}
	return out
}

// UnstableLongerThan returns the subjects that have been in the unstable
// region for at least the given duration. The membership service uses this to
// trigger reinforcement: observers of a stuck subject echo REMOVE alerts.
func (d *Detector) UnstableLongerThan(now time.Time, timeout time.Duration) []node.Addr {
	return d.unstableSubjects(func(r *record) bool { return now.Sub(r.since) >= timeout })
}

// Tally returns the number of distinct observer reports seen for a subject.
func (d *Detector) Tally(subject node.Addr) int {
	if r := d.subjects[subject]; r != nil {
		return r.count
	}
	return 0
}

// HasReportForRing reports whether an alert about subject was already
// received on the given ring (used to avoid duplicate reinforcement).
func (d *Detector) HasReportForRing(subject node.Addr, ring int) bool {
	r := d.subjects[subject]
	return r != nil && ring >= 0 && ring < d.k && r.rings[ring/64]>>(ring%64)&1 != 0
}

// UpdatesInProgress returns the number of subjects currently unstable.
func (d *Detector) UpdatesInProgress() int { return d.updatesInProgress }

// ProposalsEmitted returns the number of proposals flushed so far.
func (d *Detector) ProposalsEmitted() int { return d.proposalsEmitted }

// Clear resets all detector state. It is called after every view change,
// since tallies never carry across configurations.
func (d *Detector) Clear() {
	d.subjects = make(map[node.Addr]*record)
	d.pending = nil
	d.updatesInProgress = 0
}
