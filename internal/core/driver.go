package core

import (
	"time"

	"repro/internal/edgefd"
	"repro/internal/node"
	"repro/internal/simclock"
)

// run is the live driver of the state machine in engine.go: the one
// goroutine that steps the engine, and, with join below, the only code in this
// package that sends on the engine's behalf, arms the member's timer, blocks on
// the transport or publishes to subscribers. It turns the inbound queue into
// step calls and its one timer into wake calls, stamps each with the clock,
// and performs what comes back.
func (e *engine) run(c *Cluster, timer *wakeTimer) {
	defer c.wg.Done()
	defer timer.Stop()
	for {
		var out outputs
		select {
		case <-c.stopCh:
			return
		case ev := <-c.events:
			out = e.step(ev, c.clock.Now())
			c.emetrics.EventsProcessed.Add(1)
		case <-timer.C():
			timer.fired()
			out = e.wake(c.clock.Now(), len(c.events))
		}
		c.perform(out)
		timer.set(out.wakeAt)
	}
}

// wakeTimer is one simclock.Timer kept armed for one absolute deadline, a
// state machine's wakeAt. armed is the deadline it is set for, zero once it
// fired or while there is none. Whenever the deadline differs, the timer is
// stopped and drained — the pre-Go 1.23 Timer contract before Reset — and set
// for it. A firing that raced a re-arm wakes the state machine for nothing,
// which a wake with nothing due tolerates.
type wakeTimer struct {
	simclock.Timer
	clock simclock.Clock
	armed time.Time
}

// newWakeTimer returns a timer on clock that is not armed.
func newWakeTimer(clock simclock.Clock) *wakeTimer {
	t := &wakeTimer{Timer: clock.Timer(time.Hour), clock: clock}
	t.Stop()
	return t
}

// fired records that the timer went off.
func (t *wakeTimer) fired() { t.armed = time.Time{} }

// set arms the timer for at, or disarms it if at is zero.
func (t *wakeTimer) set(at time.Time) {
	if at.Equal(t.armed) {
		return
	}
	t.Stop()
	select {
	case <-t.C():
	default:
	}
	if t.armed = at; !at.IsZero() {
		t.Reset(at.Sub(t.clock.Now()))
	}
}

// perform does to the world what one step or wake asked for, the timer apart: the
// sends first — a decision push belongs to the configuration being left, and
// the answers to the joiners a view change settled go out with it — then the
// new configuration, then the answer to a phase-1 request, then the probes.
func (c *Cluster) perform(out outputs) {
	for _, s := range out.sends {
		for _, to := range s.to {
			c.client.SendBestEffort(to, s.req)
		}
	}
	if out.publish != nil {
		c.snap.Store(out.publish)
	}
	if out.change != nil {
		c.notifier.publish(*out.change)
	}
	if out.reply.to != nil {
		out.reply.to <- out.reply.resp
	}
	for i, subject := range out.probe {
		go c.probe(out.probeGen, i, subject)
	}
}

// probe performs one probe around the transport's blocking Send and hands
// what it found back to the engine. It lives for as long as the Send takes,
// so a subject that answers late delays neither the other probes of its round
// nor the next round, and Stop does not wait for it: once the member has
// stopped, the outcome is dropped.
func (c *Cluster) probe(gen uint64, i int, subject node.Addr) {
	ok := edgefd.Probe(c.client, c.clock, c.settings.probeTimeout(), c.probeReq, subject)
	c.enqueue(event{ctl: &control{probed: &probeResult{gen: gen, i: i, ok: ok}}})
}

// join is the live driver of the joiner in join.go, on the goroutine that
// called JoinCluster: it performs what the joiner asks for and steps it with
// what comes back until it has an outcome. Phase 1 is a blocking Send to the
// seed, made here, under a JoinPhase2Timeout deadline, so a dead seed fails
// its attempt at once. Phase 2 is one-way: the requests go out best effort,
// and the observers' answers come back through HandleRequest on the buffered
// joinAnswers channel. One timer holds the joiner's deadline.
func (c *Cluster) join(seeds []node.Addr) ([]node.Endpoint, error) {
	now := c.clock.Now()
	j := newJoiner(c.me, seeds, &c.settings, &c.emetrics, now)
	timer := newWakeTimer(c.clock)
	defer timer.Stop()
	for out := j.start(now); ; {
		switch {
		case out.members != nil || out.err != nil:
			c.me.ID = j.me.ID // regenerated on an identifier collision
			return out.members, out.err
		case out.req != nil && out.req.PreJoin != nil:
			ctx, cancel := simclock.WithTimeout(c.clock, c.settings.JoinPhase2Timeout)
			resp, err := c.client.Send(ctx, out.to[0], out.req)
			cancel()
			out = j.preJoined(out.to[0], resp, err, c.clock.Now())
			continue
		case out.req != nil:
			for _, to := range out.to {
				c.client.SendBestEffort(to, out.req)
			}
		}
		timer.set(out.wakeAt)
		select {
		case <-c.stopCh:
			return nil, ErrStopped
		case resp := <-c.joinAnswers:
			out = j.joined(resp, c.clock.Now())
		case <-timer.C():
			timer.fired()
			out = j.wake(c.clock.Now())
		}
	}
}
