// Package simclock provides the clock abstraction used by all protocol code.
// Production code uses the real wall clock; unit tests and deterministic
// simulations drive a manual clock so that timeouts (failure detection
// windows, consensus fallback delays, reinforcement timeouts) can be
// exercised without real sleeping.
//
// Request deadlines belong to the clock as well: WithTimeout (context.go) is
// the package's context.WithTimeout, and the only one protocol code may use.
// It costs one allocation and arms no timer until somebody waits on it.
package simclock

import (
	"sort"
	"sync"
	"time"
)

// Clock is the minimal time facility protocol code needs: reading the current
// time, sleeping, and obtaining wakeup channels.
type Clock interface {
	// Now returns the current time according to this clock.
	Now() time.Time
	// Sleep blocks for d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d elapsed.
	After(d time.Duration) <-chan time.Time
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
	// Ticker returns a repeating timer firing every d. Unlike calling After
	// in a loop, a ticker reuses its channel and timer state, so periodic
	// protocol loops (alert batching, reinforcement) allocate nothing per
	// tick. Callers must Stop it when done.
	Ticker(d time.Duration) Ticker
	// Timer returns a one-shot timer firing after d that can be re-armed
	// with a different duration, which is what variable-period loops (the
	// adaptive batching window) need: a Ticker's period is fixed at creation.
	// Reset may only be called after the timer's value has been received from
	// C, after Stop with a firing already delivered drained from C, or before
	// it has fired (the membership engine's driver re-arms its one timer
	// after Stop and a non-blocking drain). Callers must Stop it when done.
	Timer(d time.Duration) Timer
	// AfterFunc calls f once d has elapsed, unless stop is called first; stop
	// reports whether it prevented the call. f must not block: the wall clock
	// runs it on its own goroutine, the manual clock on the goroutine that
	// calls Advance.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Ticker is a repeating timer. Like time.Ticker, delivery is coalescing: if
// the receiver falls behind, intermediate ticks are dropped rather than
// queued.
type Ticker interface {
	// C returns the delivery channel.
	C() <-chan time.Time
	// Stop halts future deliveries. It does not close the channel.
	Stop()
}

// Timer is a re-armable one-shot timer. Unlike Ticker, each firing is armed
// explicitly, so consecutive periods may differ (adaptive batching windows).
type Timer interface {
	// C returns the delivery channel.
	C() <-chan time.Time
	// Reset re-arms the timer to fire after d. It must only be called after
	// the previous firing was received from C, after Stop, or before the
	// timer has fired.
	Reset(d time.Duration)
	// Stop halts a pending firing. It does not close the channel.
	Stop()
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// NewReal returns the wall-clock implementation of Clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Ticker implements Clock.
func (Real) Ticker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

type realTicker struct{ t *time.Ticker }

func (rt realTicker) C() <-chan time.Time { return rt.t.C }
func (rt realTicker) Stop()               { rt.t.Stop() }

// Timer implements Clock.
func (Real) Timer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time { return rt.t.C }

// Reset relies on the Timer contract: the caller has already received the
// previous firing, called Stop, or the timer has not fired, so the channel is
// known to be drained.
func (rt realTimer) Reset(d time.Duration) { rt.t.Reset(d) }
func (rt realTimer) Stop()                 { rt.t.Stop() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	return time.AfterFunc(d, f).Stop
}

// Manual is a Clock whose time only moves when Advance is called. Sleepers
// and After-channels fire when the manual time passes their deadline.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
}

type waiter struct {
	deadline time.Time
	// A waiter delivers on ch or, if it came from AfterFunc, calls fn.
	ch chan time.Time
	fn func()
	// period is non-zero for ticker waiters, which re-arm after firing.
	period time.Duration
	// stopped waiters no longer fire: stopped by their owner or, for a
	// one-shot, because they already have.
	stopped bool
}

// NewManual returns a manual clock starting at the given time.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration {
	return m.Now().Sub(t)
}

// After implements Clock. The returned channel fires when Advance moves the
// clock at or past the deadline.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	w := &waiter{deadline: m.now.Add(d), ch: ch}
	if d <= 0 {
		ch <- m.now
		return ch
	}
	m.waiters = append(m.waiters, w)
	return ch
}

// Sleep implements Clock: it blocks until the manual time advances past the
// deadline. Another goroutine must call Advance for Sleep to return.
func (m *Manual) Sleep(d time.Duration) {
	<-m.After(d)
}

// Ticker implements Clock. Manual tickers fire at most once per Advance call
// (coalescing, like time.Ticker under a slow receiver) and re-arm relative to
// the advanced time.
func (m *Manual) Ticker(d time.Duration) Ticker {
	if d <= 0 {
		d = time.Nanosecond
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &waiter{deadline: m.now.Add(d), ch: make(chan time.Time, 1), period: d}
	m.waiters = append(m.waiters, w)
	return &manualTicker{m: m, w: w}
}

type manualTicker struct {
	m *Manual
	w *waiter
}

func (mt *manualTicker) C() <-chan time.Time { return mt.w.ch }

// Stop implements Ticker: the waiter is flagged and dropped from the waiter
// list on the next Advance.
func (mt *manualTicker) Stop() {
	mt.m.mu.Lock()
	mt.w.stopped = true
	mt.m.mu.Unlock()
}

// Timer implements Clock. Manual timers reuse the waiter machinery: each arm
// installs a fresh one-shot waiter delivering on the timer's channel.
func (m *Manual) Timer(d time.Duration) Timer {
	mt := &manualTimer{m: m, ch: make(chan time.Time, 1)}
	mt.arm(d)
	return mt
}

type manualTimer struct {
	m  *Manual
	ch chan time.Time
	w  *waiter
}

func (mt *manualTimer) C() <-chan time.Time { return mt.ch }

// arm queues a waiter for the next firing. A non-positive duration fires
// immediately, matching After.
func (mt *manualTimer) arm(d time.Duration) {
	mt.m.mu.Lock()
	defer mt.m.mu.Unlock()
	w := &waiter{deadline: mt.m.now.Add(d), ch: mt.ch}
	mt.w = w
	if d <= 0 {
		select {
		case mt.ch <- mt.m.now:
		default:
		}
		return
	}
	mt.m.waiters = append(mt.m.waiters, w)
}

// Reset implements Timer. Per the Timer contract the previous firing has been
// received, stopped, or not happened yet, so the stale waiter — if it has not
// fired yet — is flagged for removal and a fresh one is queued.
func (mt *manualTimer) Reset(d time.Duration) {
	mt.m.mu.Lock()
	if mt.w != nil {
		mt.w.stopped = true
	}
	mt.m.mu.Unlock()
	mt.arm(d)
}

// Stop implements Timer.
func (mt *manualTimer) Stop() {
	mt.m.mu.Lock()
	if mt.w != nil {
		mt.w.stopped = true
	}
	mt.m.mu.Unlock()
}

// AfterFunc implements Clock. f runs inside the Advance call that reaches its
// deadline, after the clock has moved; a non-positive d is due at the next
// Advance.
func (m *Manual) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &waiter{deadline: m.now.Add(d), fn: f}
	m.waiters = append(m.waiters, w)
	return func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		prevented := !w.stopped
		w.stopped = true
		return prevented
	}
}

// Advance moves the clock forward by d and fires any waiters whose deadline
// has been reached, in deadline order. One-shot waiters are removed; ticker
// waiters re-arm at now + period.
func (m *Manual) Advance(d time.Duration) {
	type firing struct {
		w  *waiter
		at time.Time
	}
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	var due []firing
	var remaining []*waiter
	for _, w := range m.waiters {
		if w.stopped {
			continue
		}
		if !w.deadline.After(now) {
			due = append(due, firing{w: w, at: w.deadline})
			if w.period > 0 {
				w.deadline = now.Add(w.period)
				remaining = append(remaining, w)
			} else {
				w.stopped = true
			}
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	m.mu.Unlock()

	sort.Slice(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	for _, f := range due {
		switch {
		case f.w.fn != nil:
			f.w.fn()
		case f.w.period > 0:
			// Coalescing delivery: drop the tick if the receiver is behind.
			select {
			case f.w.ch <- now:
			default:
			}
		default:
			f.w.ch <- now
		}
	}
}

// PendingWaiters reports how many sleepers, After channels, timers, tickers
// and AfterFunc calls are armed: not fired yet (a ticker always is) and not
// stopped.
func (m *Manual) PendingWaiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.waiters {
		if !w.stopped {
			n++
		}
	}
	return n
}

var _ Clock = Real{}
var _ Clock = (*Manual)(nil)
