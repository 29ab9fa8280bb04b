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
// A member whose tally is between L and H but whose REMOVE reports come from
// fewer than L distinct observers is only suspect: it neither holds up a
// proposal nor is reinforced. When N is not much larger than K one observer
// can hold L of a subject's rings, and a single faulty observer — a deaf or
// slow process that fails every probe it sends — would otherwise hold a
// healthy subject unstable until reinforcement made its healthy observers
// echo, evicting it alongside the faulty one. H is still counted in ring
// slots, so a subject every observer reports reaches it as before; JOIN
// tallies are not filtered.
//
// All of it is one record per subject — the reported rings as a bitmap, the
// state against the watermarks, the endpoint, the time it turned unstable —
// in one map. The detector takes no lock: its owner, the single-writer
// membership engine, serializes the calls.
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
	// updatesInProgress counts subjects currently in the unstable region, and
	// suspects those in it that are only suspect.
	updatesInProgress int
	suspects          int
	// proposalsEmitted counts flushed proposals (diagnostics/tests).
	proposalsEmitted int
}

// state is where a subject's tally stands against the watermarks.
type state uint8

const (
	noise    state = iota // fewer than L reports
	suspect               // in [L, H), from fewer than L observers of a member
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
	// down marks a member's record, tallied from REMOVE reports, and
	// observers are the distinct observers whose reports it counts.
	down      bool
	observers []node.Addr
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
	down := alert.Status == remoting.EdgeDown
	for _, ring := range alert.RingNumbers {
		out = append(out, d.aggregate(alert.EdgeDst, subject, alert.EdgeSrc, down, ring, now)...)
	}
	return out
}

// aggregate applies a single (subject, ring) report from observer; down says
// whether it is a REMOVE report.
func (d *Detector) aggregate(subjectAddr node.Addr, subject node.Endpoint, observer node.Addr, down bool, ring int, now time.Time) []node.Endpoint {
	if ring < 0 || ring >= d.k {
		return nil
	}
	r := d.subjects[subjectAddr]
	if r == nil {
		r = &record{down: down}
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
	if r.down && !slices.Contains(r.observers, observer) {
		r.observers = append(r.observers, observer)
	}

	if r.count == d.h {
		switch r.state {
		case suspect:
			d.suspects--
		case unstable:
			d.updatesInProgress--
		}
		r.state = stable
		d.pending = append(d.pending, r)
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
		return nil
	}
	if r.count >= d.l && r.state < unstable {
		if r.down && len(r.observers) < d.l {
			if r.state == noise {
				d.suspects++
				r.state = suspect
			}
		} else {
			if r.state == suspect {
				d.suspects--
			}
			d.updatesInProgress++
			r.state, r.since = unstable, now
		}
	}
	return nil
}

// inFlux returns the subjects with a tally between L and H that keep, in
// address order.
func (d *Detector) inFlux(keep func(*record) bool) []node.Addr {
	if d.updatesInProgress == 0 && d.suspects == 0 {
		return nil
	}
	var out []node.Addr
	for addr, r := range d.subjects {
		if (r.state == suspect || r.state == unstable) && keep(r) {
			out = append(out, addr)
		}
	}
	return node.SortAddrs(out)
}

// InvalidateFailingEdges applies implicit alerts: if both an observer o and
// its subject s have a tally between L and H (or o is already in the stable
// set), an implicit alert from o about s is applied. This prevents the
// detector from waiting forever for alerts from observers that are themselves
// faulty (§4.2, "Ensuring liveness"). It returns any proposal that results.
func (d *Detector) InvalidateFailingEdges(v *view.View, now time.Time) []node.Endpoint {
	var out []node.Endpoint
	// A sorted snapshot of the subjects in flux, for determinism.
	for _, subjectAddr := range d.inFlux(func(*record) bool { return true }) {
		s := d.subjects[subjectAddr]
		var observers []node.Addr
		if v.Contains(subjectAddr) {
			observers, _ = v.ObserversOf(subjectAddr)
		} else {
			observers = v.ExpectedObserversOf(subjectAddr)
		}
		for _, o := range observers {
			// The observer must itself be in flux, or in the pending stable set.
			if r := d.subjects[o]; r == nil || (r.state != suspect && r.state != unstable && r.state != stable) {
				continue
			}
			for _, ring := range v.RingNumbers(o, subjectAddr) {
				out = append(out, d.aggregate(subjectAddr, s.endpoint, o, s.down, ring, now)...)
			}
		}
	}
	return out
}

// UnstableLongerThan returns the subjects that have been in the unstable
// region for at least the given duration. The membership service uses this to
// trigger reinforcement: observers of a stuck subject echo REMOVE alerts. A
// suspect subject is never returned.
func (d *Detector) UnstableLongerThan(now time.Time, timeout time.Duration) []node.Addr {
	return d.inFlux(func(r *record) bool { return r.state == unstable && now.Sub(r.since) >= timeout })
}

// Tally returns the number of the subject's ring slots with a report: an
// observer that holds several of its rings counts once per ring reported.
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
	d.updatesInProgress, d.suspects = 0, 0
}
