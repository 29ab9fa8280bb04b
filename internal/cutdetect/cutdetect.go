// Package cutdetect implements Rapid's multi-process cut detection (§4.2).
//
// Every process ingests REMOVE and JOIN alerts broadcast by observers about
// edges to their subjects, and tallies per subject the number of ring slots
// with a report: of its K rings, how many have been reported on, so an
// observer that holds several of a subject's rings counts once per ring, not
// once. With K ring slots per subject and two watermarks L ≤ H ≤ K, a subject is in "stable report mode" once its tally reaches H
// and in "unstable report mode" while the tally is between L and H. A process
// announces a configuration-change proposal only when at least one subject is
// stable and no subject is unstable — this single rule is what yields
// almost-everywhere agreement on a multi-node cut.
//
// The detector also implements the two liveness mechanisms of the paper:
// implicit alerts (an unstable observer of an unstable subject implicitly
// counts as an alert) and a reinforcement hook that lets the membership
// service echo REMOVE alerts for subjects stuck in the unstable region.
package cutdetect

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/view"
)

// Detector accumulates alerts for one configuration and emits at most one
// multi-process cut proposal batch at a time. It is safe for concurrent use.
type Detector struct {
	k, h, l int

	mu sync.Mutex
	// reportsPerHost maps subject -> ring number -> observer that reported it.
	reportsPerHost map[node.Addr]map[int]node.Addr
	// endpoints resolves the endpoint to include in a proposal for each
	// subject (needed for joiners, which are not in the current view).
	endpoints map[node.Addr]node.Endpoint
	// preProposal holds subjects in the unstable region [L, H).
	preProposal map[node.Addr]bool
	// unstableSince records when a subject entered the unstable region, for
	// the reinforcement timeout.
	unstableSince map[node.Addr]time.Time
	// proposal holds subjects that reached H and await flushing.
	proposal map[node.Addr]bool
	// updatesInProgress counts subjects currently in the unstable region.
	updatesInProgress int
	// proposalsEmitted counts flushed proposals (diagnostics/tests).
	proposalsEmitted int
}

// New creates a detector for a configuration with K observers per subject and
// watermarks H and L. It panics if the parameters are inconsistent, since
// they are static configuration supplied by the caller.
func New(k, h, l int) *Detector {
	if k <= 0 || l < 1 || h < l || h > k {
		panic(fmt.Sprintf("cutdetect: invalid parameters K=%d H=%d L=%d (need 1 <= L <= H <= K)", k, h, l))
	}
	return &Detector{
		k:              k,
		h:              h,
		l:              l,
		reportsPerHost: make(map[node.Addr]map[int]node.Addr),
		endpoints:      make(map[node.Addr]node.Endpoint),
		preProposal:    make(map[node.Addr]bool),
		unstableSince:  make(map[node.Addr]time.Time),
		proposal:       make(map[node.Addr]bool),
	}
}

// AggregateForProposal ingests one alert and returns a (possibly empty) list
// of endpoints forming a view-change proposal. A non-empty return means the
// aggregation rule fired: at least one subject is stable and none is
// unstable. `now` is used to time how long subjects stay unstable.
func (d *Detector) AggregateForProposal(alert remoting.AlertMessage, subject node.Endpoint, now time.Time) []node.Endpoint {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []node.Endpoint
	for _, ring := range alert.RingNumbers {
		out = append(out, d.aggregateLocked(alert.EdgeSrc, alert.EdgeDst, subject, ring, now)...)
	}
	return out
}

// aggregateLocked applies a single (observer, subject, ring) report.
func (d *Detector) aggregateLocked(observer, subjectAddr node.Addr, subject node.Endpoint, ring int, now time.Time) []node.Endpoint {
	if ring < 0 || ring >= d.k {
		return nil
	}
	reports, ok := d.reportsPerHost[subjectAddr]
	if !ok {
		reports = make(map[int]node.Addr, d.k)
		d.reportsPerHost[subjectAddr] = reports
	}
	if _, dup := reports[ring]; dup {
		return nil // Already have a report for this ring.
	}
	if len(reports) >= d.h {
		return nil // Already saturated; no more bookkeeping needed.
	}
	reports[ring] = observer
	d.endpoints[subjectAddr] = subject
	count := len(reports)

	if count == d.l {
		d.updatesInProgress++
		d.preProposal[subjectAddr] = true
		d.unstableSince[subjectAddr] = now
	}
	if count == d.h {
		delete(d.preProposal, subjectAddr)
		delete(d.unstableSince, subjectAddr)
		d.proposal[subjectAddr] = true
		d.updatesInProgress--
		if d.updatesInProgress == 0 {
			// No subject is unstable: flush everything in stable mode as one
			// multi-process cut proposal.
			d.proposalsEmitted++
			out := make([]node.Endpoint, 0, len(d.proposal))
			for addr := range d.proposal {
				out = append(out, d.endpoints[addr])
			}
			d.proposal = make(map[node.Addr]bool)
			sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
			return out
		}
	}
	return nil
}

// InvalidateFailingEdges applies implicit alerts: if both an observer o and
// its subject s are in the unstable region (or o is already in the stable
// set), an implicit alert from o about s is applied. This prevents the
// detector from waiting forever for alerts from observers that are themselves
// faulty (§4.2, "Ensuring liveness"). It returns any proposal that results.
func (d *Detector) InvalidateFailingEdges(v *view.View, now time.Time) []node.Endpoint {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.preProposal) == 0 {
		return nil
	}
	// Work on a sorted snapshot of the unstable subjects for determinism.
	unstable := make([]node.Addr, 0, len(d.preProposal))
	for a := range d.preProposal {
		unstable = append(unstable, a)
	}
	node.SortAddrs(unstable)

	var out []node.Endpoint
	for _, subjectAddr := range unstable {
		subject, ok := d.endpoints[subjectAddr]
		if !ok {
			subject = node.Endpoint{Addr: subjectAddr}
		}
		var observers []node.Addr
		if v.Contains(subjectAddr) {
			observers, _ = v.ObserversOf(subjectAddr)
		} else {
			observers = v.ExpectedObserversOf(subjectAddr)
		}
		for _, o := range observers {
			if !d.unstableOrProposedLocked(o) {
				continue
			}
			rings := v.RingNumbers(o, subjectAddr)
			for _, ring := range rings {
				out = append(out, d.aggregateLocked(o, subjectAddr, subject, ring, now)...)
			}
		}
	}
	return out
}

// unstableOrProposedLocked reports whether addr is itself in the unstable
// region or already part of the pending stable set.
func (d *Detector) unstableOrProposedLocked(addr node.Addr) bool {
	return d.preProposal[addr] || d.proposal[addr]
}

// UnstableLongerThan returns the subjects that have been in the unstable
// region for at least the given duration. The membership service uses this to
// trigger reinforcement: observers of a stuck subject echo REMOVE alerts.
func (d *Detector) UnstableLongerThan(now time.Time, timeout time.Duration) []node.Addr {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []node.Addr
	for addr, since := range d.unstableSince {
		if now.Sub(since) >= timeout {
			out = append(out, addr)
		}
	}
	node.SortAddrs(out)
	return out
}

// Tally returns the number of distinct observer reports seen for a subject.
func (d *Detector) Tally(subject node.Addr) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.reportsPerHost[subject])
}

// HasReportForRing reports whether an alert about subject was already
// received on the given ring (used to avoid duplicate reinforcement).
func (d *Detector) HasReportForRing(subject node.Addr, ring int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.reportsPerHost[subject][ring]
	return ok
}

// UpdatesInProgress returns the number of subjects currently unstable.
func (d *Detector) UpdatesInProgress() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.updatesInProgress
}

// ProposalsEmitted returns the number of proposals flushed so far.
func (d *Detector) ProposalsEmitted() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.proposalsEmitted
}

// Clear resets all detector state. It is called after every view change,
// since tallies never carry across configurations.
func (d *Detector) Clear() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reportsPerHost = make(map[node.Addr]map[int]node.Addr)
	d.endpoints = make(map[node.Addr]node.Endpoint)
	d.preProposal = make(map[node.Addr]bool)
	d.unstableSince = make(map[node.Addr]time.Time)
	d.proposal = make(map[node.Addr]bool)
	d.updatesInProgress = 0
}
