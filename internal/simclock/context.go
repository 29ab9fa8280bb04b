package simclock

import (
	"context"
	"sync"
	"time"
)

// WithTimeout returns a context that ends with context.DeadlineExceeded once
// d has passed on clock, or with context.Canceled when cancel is called
// first. It is what protocol code uses instead of context.WithTimeout (the
// rapid-vet simclock check forbids that one): the deadline obeys a manual
// clock, and it is nearly free for the caller that never waits on it.
//
// The context is lazy. Creating it reads the clock and allocates one struct;
// no timer is armed and no channel made until somebody calls Done or
// AfterFunc, and Err consults the clock itself, so a callee that only polls
// Err still sees the deadline pass. An in-process simnet probe — a function
// call that returns in microseconds — therefore never touches a timer, while
// a transport that blocks on Done (simnet's injected delay, tcpnet) gets the
// channel and one clock timer the first time it asks.
//
// Deadline reports the deadline on clock's timeline, which is the wall
// clock's only for Real.
//
// WithTimeout stays small enough to inline, so that a caller which only
// defers cancel keeps the func value on its stack.
func WithTimeout(clock Clock, d time.Duration) (context.Context, context.CancelFunc) {
	c := newTimeoutCtx(clock, d)
	return c, c.cancel
}

func newTimeoutCtx(clock Clock, d time.Duration) *timeoutCtx {
	return &timeoutCtx{clock: clock, deadline: clock.Now().Add(d)}
}

type timeoutCtx struct {
	clock    Clock
	deadline time.Time

	mu   sync.Mutex
	err  error         // why the context ended; nil while it has not
	done chan struct{} // made by the first Done
	// disarm stops the deadline timer, armed by the first Done or AfterFunc.
	disarm func() bool
	after  []*func() // what AfterFunc registered and nobody stopped
}

// closedChan is what Done returns when the context had ended before anybody
// asked for a channel.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func (c *timeoutCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (*timeoutCtx) Value(any) any { return nil }

func (c *timeoutCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		if c.armLocked(); c.err != nil {
			c.done = closedChan
		} else {
			c.done = make(chan struct{})
		}
	}
	return c.done
}

func (c *timeoutCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil && !c.clock.Now().Before(c.deadline) {
		c.endLocked(context.DeadlineExceeded)
	}
	return c.err
}

// AfterFunc is the method package context looks for when a context is derived
// from this one (context.WithCancel, WithTimeout, ...): with it, propagating
// this context's end to the child costs a registration, not a goroutine. f
// runs on its own goroutine once the context has ended.
func (c *timeoutCtx) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armLocked(); c.err != nil {
		go f()
		return func() bool { return false }
	}
	reg := &f
	c.after = append(c.after, reg)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, r := range c.after {
			if r == reg {
				c.after = append(c.after[:i], c.after[i+1:]...)
				return true
			}
		}
		return false
	}
}

// armLocked arms the deadline timer unless it is armed or the context has
// ended; a deadline that has already passed ends the context on the spot.
func (c *timeoutCtx) armLocked() {
	if c.err != nil || c.disarm != nil {
		return
	}
	left := c.deadline.Sub(c.clock.Now())
	if left <= 0 {
		c.endLocked(context.DeadlineExceeded)
		return
	}
	c.disarm = c.clock.AfterFunc(left, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.endLocked(context.DeadlineExceeded)
	})
}

func (c *timeoutCtx) cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.endLocked(context.Canceled)
}

// endLocked ends the context once: it records why, releases the timer, closes
// the channel if anybody has it and starts what AfterFunc registered.
func (c *timeoutCtx) endLocked(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	if c.disarm != nil {
		c.disarm()
	}
	if c.done != nil {
		close(c.done)
	}
	for _, f := range c.after {
		go (*f)()
	}
	c.after = nil
}
