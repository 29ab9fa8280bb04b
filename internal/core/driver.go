package core

import (
	"time"

	"repro/internal/simclock"
)

// run is the live driver of the state machine in engine.go: the one
// goroutine that steps the engine, and the only code in this package that
// sends a member's protocol messages, arms its timers, publishes to
// subscribers or re-targets the monitor (a joiner, which is no member yet,
// makes its blocking calls in join.go). It turns the inbound queue, the flush
// timer and the reinforcement ticker into step and tick calls, stamps each
// with the clock, and performs what comes back. flush is the timer
// newEngine's first outputs armed.
//
// engine-entry: the single-writer goroutine itself.
func (e *engine) run(c *Cluster, flush simclock.Timer) {
	defer c.wg.Done()
	defer flush.Stop()
	// The unstable set and the recovery deadline are checked five times per
	// ReinforcementTimeout (1 s by default), never more often than the
	// millisecond ScaledSettings floors every duration at.
	reinforce := c.clock.Ticker(max(c.settings.ReinforcementTimeout/5, time.Millisecond))
	defer reinforce.Stop()
	for {
		var out outputs
		select {
		case <-c.stopCh:
			return
		case ev := <-c.events:
			out = e.step(ev, c.clock.Now())
			c.emetrics.EventsProcessed.Add(1)
		case <-flush.C():
			out = e.tick(c.clock.Now(), len(c.events))
		case <-reinforce.C():
			out = e.step(reinforceEvent, c.clock.Now())
		}
		c.perform(out)
		if out.flushIn > 0 {
			flush.Reset(out.flushIn)
		}
	}
}

// perform does to the world what one step asked for, the timer apart: the
// sends first — a decision push belongs to the configuration being left —
// then the new configuration, then the answers to the joiners it settled.
func (c *Cluster) perform(out outputs) {
	for _, s := range out.sends {
		for _, to := range s.to {
			c.client.SendBestEffort(to, s.req)
		}
	}
	if p := out.publish; p != nil {
		c.snap.Store(p.snap)
		c.monitor.Watch(p.snap.configID, p.subjects)
		if p.change != nil {
			c.notifier.publish(*p.change)
		}
	}
	for _, r := range out.replies {
		r.to <- r.resp
	}
}
