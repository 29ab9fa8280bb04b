package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/simnet"
)

func TestWindowControllerGrowsAndShrinks(t *testing.T) {
	const floor, ceiling = 10 * time.Millisecond, 160 * time.Millisecond
	w := newWindowController(floor, ceiling)
	if w.window != ceiling/4 {
		t.Fatalf("controller should start at a quarter of the ceiling, got %v", w.window)
	}
	if c := newWindowController(ceiling/2, ceiling); c.window != ceiling/2 {
		t.Fatalf("a start below the floor should clamp to it, got %v", c.window)
	}

	// A deep queue doubles the window per retune until the ceiling holds.
	for i, want := range []time.Duration{80, 160, 160} {
		if got := w.retune(512, 1024, 0); got != want*time.Millisecond {
			t.Fatalf("retune %d under deep queue: got %v, want %v", i, got, want*time.Millisecond)
		}
	}

	// Idle retunes collapse back to the floor and stay there.
	for i, want := range []time.Duration{80, 40, 20, 10, 10} {
		if got := w.retune(0, 1024, 0); got != want*time.Millisecond {
			t.Fatalf("idle retune %d: got %v, want %v", i, got, want*time.Millisecond)
		}
	}

	// The arrival threshold is a rate: at the floor a handful of events in
	// the short window already signals a storm (minGrowArrivals)...
	if got := w.retune(0, 1024, minGrowArrivals); got != 2*floor {
		t.Fatalf("arrival storm at the floor should grow the window: got %v", got)
	}
	// ...while the same absolute count does not move a ceiling-length window
	// (32*160/160 = 32 needed), so moderate load holds steady.
	w.window = ceiling
	if got := w.retune(4, 1024, growArrivals-1); got != ceiling {
		t.Fatalf("moderate load should hold the window at the ceiling, got %v", got)
	}
}

// TestAdaptiveWindowOnManualClock drives a live engine loop with a manual
// clock: idle flush ticks must collapse the window from its starting value to
// the floor, where the flush timer stops; a synthetic alert storm must arm it
// again and grow the window to the ceiling; and when the storm ends the
// window must decay and the timer stop once more.
func TestAdaptiveWindowOnManualClock(t *testing.T) {
	clk := simclock.NewManual(time.Unix(0, 0))
	net := simnet.New(simnet.Options{Seed: 99})
	s := DefaultSettings()
	s.Clock = clk
	c, err := StartCluster("seed:1", s, net)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer func() {
		// Stop blocks on manual-clock sleepers (join retry etc.) only if any
		// exist; the engine itself exits via stopCh.
		go clk.Advance(time.Hour)
		c.Stop()
	}()

	// A lone seed monitors nobody and its probe scheduler arms no timer, so the
	// clock holds the engine's reinforcement ticker and, while it is armed, its
	// flush timer.
	const quiet, armed = 1, 2
	waiters := func(n int, when string) {
		t.Helper()
		if !waitUntil(t, 5*time.Second, func() bool { return clk.PendingWaiters() == n }) {
			t.Fatalf("%s: %d clock waiters, want %d", when, clk.PendingWaiters(), n)
		}
	}
	// sync returns once the engine loop has gone around at least once more: a
	// pre-join is answered by the engine and arms nothing.
	sync := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			if _, err := c.HandleRequest(context.Background(), "joiner:1", preJoinRequest("joiner:1", node.NewID())); err != nil {
				t.Fatalf("HandleRequest: %v", err)
			}
		}
	}
	waiters(armed, "at birth")
	if got := c.Stats().BatchWindow; got != s.windowCeiling()/4 {
		t.Fatalf("window should start at a quarter of the ceiling, got %v", got)
	}

	// storm sends enough current-configuration alert batches to cross the
	// controller's arrival threshold. The alerts name a subject that is not a
	// member, so the cut detector ignores their content entirely — the test
	// exercises arrival accounting, not cut detection.
	storm := func() {
		configID := c.ConfigurationID()
		for i := 0; i < 2*growArrivals; i++ {
			req := &remoting.Request{Alerts: &remoting.BatchedAlertMessage{
				Sender: "storm:1",
				Seq:    uint64(i),
				Alerts: []remoting.AlertMessage{{
					EdgeSrc:         "storm:1",
					EdgeDst:         "ghost:1",
					Status:          remoting.EdgeDown,
					ConfigurationID: configID,
					RingNumbers:     []int{0},
				}},
			}}
			if _, err := c.HandleRequest(context.Background(), "storm:1", req); err != nil {
				t.Fatalf("HandleRequest: %v", err)
			}
		}
	}

	// advanceUntil fires flush ticks (optionally re-storming before each) and
	// waits for the engine to publish the expected window.
	advanceUntil := func(want time.Duration, stormEachTick bool) {
		t.Helper()
		for i := 0; i < 20; i++ {
			if stormEachTick {
				storm()
				// The engine must have dispatched the storm before the flush
				// tick retunes, or arrivals would still be zero.
				if !waitUntil(t, 5*time.Second, func() bool { return c.Stats().QueueDepth == 0 }) {
					t.Fatal("engine did not drain the synthetic storm")
				}
			}
			// Arrivals, or a window above the floor, keep the timer armed.
			waiters(armed, "before a flush tick")
			window := c.Stats().BatchWindow
			clk.Advance(window)
			if !waitUntil(t, 5*time.Second, func() bool {
				return c.Stats().BatchWindow != window || window == want
			}) {
				t.Fatalf("flush tick did not retune the window from %v", window)
			}
			if c.Stats().BatchWindow == want {
				return
			}
		}
		t.Fatalf("window never reached %v (at %v)", want, c.Stats().BatchWindow)
	}
	// wentQuiet checks that the engine, at the floor with nothing to send or
	// to measure, stopped its flush timer and leaves it stopped.
	wentQuiet := func() {
		t.Helper()
		sync()
		waiters(quiet, "at the floor")
		for i := 0; i < 5; i++ {
			clk.Advance(s.windowFloor())
			sync()
			waiters(quiet, "on a quiet engine")
		}
		if got := c.Stats().BatchWindow; got != s.windowFloor() {
			t.Fatalf("a quiet engine's window moved to %v", got)
		}
	}

	advanceUntil(s.windowFloor(), false) // idle: collapse to the floor
	wentQuiet()
	advanceUntil(s.windowCeiling(), true) // storm: arm again, grow to the ceiling
	// The last storm tick may have left arrivals behind; either way the window
	// is above the floor, so the timer is armed until it has decayed.
	advanceUntil(s.windowFloor(), false)
	wentQuiet()
}
