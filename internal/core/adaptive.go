package core

import "time"

// This file implements the engine's adaptive batching-window controller. The
// paper batches alerts and votes on a fixed window (§6); a constant is wrong
// at both ends of the load spectrum. Quiet clusters pay the full window of
// latency on every join and every isolated alert even though there is nothing
// to coalesce, while a bootstrap storm at N=1000+ would amortize its O(N)
// broadcast cost much better with a window several times larger. The
// controller therefore resizes the flush window between a floor and a ceiling
// derived from the probe interval (Settings.windowFloor, windowCeiling) after
// every flush, from two signals the engine already owns: the depth of its
// inbound event queue and the number of batches that arrived during the
// window just flushed (the alert arrival rate). Both signals are needed: a
// two-valued window, or one grown on arrivals alone, made Rapid-C's
// bootstrap slower and less stable (docs/ARCHITECTURE.md).
//
// The window is per configuration. Every view change grows it — each member
// receives at least K alert batches and about four vote pushes per relay
// hop — so an install starts the next configuration's window at the floor
// again, and the join that follows a cut costs about one view change rather
// than the window's decay from the ceiling. Only an install that sends a parked joiner
// back to phase 1, the sign of a join storm still under way, keeps the window
// it grew (engine.restartWindow).

// Controller thresholds. The queue fraction is relative to the queue's
// capacity rather than a hard-coded depth.
const (
	// growQueueFraction: a queue holding more than 1/8 of its capacity means
	// batches are arriving faster than the engine applies them — grow the
	// window so this process contributes fewer, larger batches to the storm.
	growQueueFraction = 8
	// growArrivals: with a healthy queue, this many data events inside one
	// ceiling-length window is storm-level traffic (a steady cluster sees
	// none — members only flush when they have alerts or votes to send). The
	// per-window threshold scales with the window so it expresses an arrival
	// *rate*: a short window must not need the same absolute count as the
	// ceiling to react.
	growArrivals = 32
	// minGrowArrivals floors the scaled threshold so single stray events
	// cannot grow a floor-length window.
	minGrowArrivals = 4
	// shrinkArrivals: at or below this many arrivals per window, with an
	// empty queue, the cluster is quiet and the window decays toward the
	// floor for minimum-latency flushes.
	shrinkArrivals = 2
)

// windowController holds the adaptive flush window. It is engine-goroutine
// state: retune is only called from the engine's tick, between flushes.
type windowController struct {
	floor   time.Duration
	ceiling time.Duration
	window  time.Duration
}

// newWindowController starts at a quarter of the ceiling (the paper's 100 ms
// under the default 400 ms ceiling), clamped into the floor/ceiling range,
// rather than at the floor: engines frequently boot mid-storm — every
// admitted joiner starts one — and a floor-rate flusher is the worst thing to
// add to a storm. A lone seed gathering a join storm holds its window here,
// one tick after another, until the storm has arrived (engine.gathering); a
// quiet engine decays to the floor within a few flushes (halving per tick).
// Only a newborn engine starts here; later configurations start at the floor
// (see the file comment).
func newWindowController(floor, ceiling time.Duration) windowController {
	return windowController{floor: floor, ceiling: ceiling, window: max(floor, ceiling/4)}
}

// retune computes the next flush window from the live queue depth (and its
// capacity) plus the number of batches dispatched during the window that
// just ended. Multiplicative increase/decrease gives the window
// hysteresis: a single quiet tick in mid-storm halves the window once rather
// than collapsing it, and one busy tick on an idle cluster doubles it once
// rather than pinning it to the ceiling.
func (w *windowController) retune(queueDepth, queueCap int, arrivals int) time.Duration {
	growDepth := queueCap / growQueueFraction
	if growDepth < 1 {
		growDepth = 1
	}
	growAt := int(int64(growArrivals) * int64(w.window) / int64(w.ceiling))
	if growAt < minGrowArrivals {
		growAt = minGrowArrivals
	}
	switch {
	case queueDepth >= growDepth || arrivals >= growAt:
		w.window *= 2
		if w.window > w.ceiling {
			w.window = w.ceiling
		}
	case queueDepth == 0 && arrivals <= shrinkArrivals:
		w.window /= 2
		if w.window < w.floor {
			w.window = w.floor
		}
	}
	return w.window
}
