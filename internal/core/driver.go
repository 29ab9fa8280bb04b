package core

import (
	"context"
	"time"

	"repro/internal/edgefd"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
)

// run is the live driver of the state machine in engine.go: the one
// goroutine that steps the engine, and, with join below, the only code in this
// package that sends, arms the member's timer, blocks on the transport or
// publishes to subscribers. It turns the inbound queue into step calls and its
// one timer into wake calls, stamps each with the clock, and performs what
// comes back. armed is the deadline the timer is set for, zero once it fired
// or while the engine holds none. Whenever wakeAt differs, the timer is
// stopped and drained — the pre-Go 1.23 Timer contract before Reset — and set
// for it. A firing that raced a re-arm wakes the engine for nothing.
func (e *engine) run(c *Cluster, timer simclock.Timer, armed time.Time) {
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
			armed = time.Time{}
			out = e.wake(c.clock.Now(), len(c.events))
		}
		c.perform(out)
		if !out.wakeAt.Equal(armed) {
			timer.Stop()
			select {
			case <-timer.C():
			default:
			}
			if armed = out.wakeAt; !armed.IsZero() {
				timer.Reset(armed.Sub(c.clock.Now()))
			}
		}
	}
}

// perform does to the world what one step or wake asked for, the timer apart: the
// sends first — a decision push belongs to the configuration being left —
// then the new configuration, then the answers to the joiners it settled,
// then the probes and the poll.
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
	for _, r := range out.replies {
		r.to <- r.resp
	}
	for i, subject := range out.probe {
		go c.probe(out.probeGen, i, subject)
	}
	if out.poll {
		go c.poll()
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

// poll asks the ensemble for the configuration of the cluster it manages,
// around the transport's blocking Send as probe does, and hands a changed one
// to the engine. It asks the ensemble nodes in order until one answers, so a
// member follows one node's sequence of configurations while that node is
// reachable, and it has given up on all of them when the next poll is due.
func (c *Cluster) poll() {
	req := &remoting.Request{GetView: &remoting.GetViewRequest{Sender: c.me.Addr, KnownConfigurationID: c.ConfigurationID()}}
	for _, to := range c.ensemble {
		ctx, cancel := simclock.WithTimeout(c.clock, c.settings.pollInterval()/time.Duration(len(c.ensemble)))
		resp, err := c.client.Send(ctx, to, req)
		cancel()
		if err == nil && resp != nil && resp.View != nil {
			if !resp.View.Unchanged {
				c.enqueue(event{ctl: &control{learned: resp.View}})
			}
			return
		}
	}
}

// join is the live driver of the joiner in join.go, on the goroutine that
// called JoinCluster: it performs each round's calls, waits out the retry
// delays, and steps the joiner with what comes back until it has an outcome.
// The calls of a round run as goroutines around the transport's blocking Send
// under one JoinPhase2Timeout context, which is cancelled once the round is
// over — superseded, or the join ended — so an observer still parking one of
// its requests sees the context end. Each round answers on a channel of its
// own, which nobody reads once the round is over.
func (c *Cluster) join(seeds []node.Addr) ([]node.Endpoint, error) {
	var answers chan joinAnswer
	var retry <-chan time.Time
	cancel := context.CancelFunc(func() {})
	defer func() { cancel() }()
	j := newJoiner(c.me, seeds, &c.settings, c.clock.Now())
	for out := j.start(c.clock.Now()); ; {
		switch {
		case out.members != nil || out.err != nil:
			c.me.ID = j.me.ID // regenerated on an identifier collision
			return out.members, out.err
		case out.to != nil:
			cancel() // the round this one supersedes
			var ctx context.Context
			ctx, cancel = simclock.WithTimeout(c.clock, c.settings.JoinPhase2Timeout)
			answers = make(chan joinAnswer, len(out.to)) // no call waits for a reader
			for _, to := range out.to {
				go func(answers chan<- joinAnswer, to node.Addr, req *remoting.Request) {
					resp, err := c.client.Send(ctx, to, req)
					answers <- joinAnswer{from: to, resp: resp, err: err}
				}(answers, to, out.req)
			}
		case out.retryIn > 0:
			cancel() // the round that failed
			answers, retry = nil, c.clock.After(out.retryIn)
		}
		select {
		case <-c.stopCh:
			return nil, ErrStopped
		case a := <-answers:
			out = j.step(a, c.clock.Now())
		case <-retry:
			out = j.start(c.clock.Now())
		}
	}
}
