package simclock

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestManualAfterFunc(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	calls := 0
	c.AfterFunc(10*time.Millisecond, func() { calls++ })
	stop := c.AfterFunc(10*time.Millisecond, func() { t.Error("a stopped AfterFunc ran") })
	if c.PendingWaiters() != 2 {
		t.Fatalf("PendingWaiters = %d, want 2", c.PendingWaiters())
	}
	if !stop() {
		t.Error("stop before the deadline should report that it prevented the call")
	}
	if stop() {
		t.Error("a second stop prevented nothing")
	}
	c.Advance(9 * time.Millisecond)
	if calls != 0 {
		t.Fatal("AfterFunc ran before its deadline")
	}
	c.Advance(time.Millisecond)
	if calls != 1 {
		t.Fatalf("AfterFunc ran %d times at its deadline, want 1", calls)
	}
	c.Advance(time.Hour)
	if calls != 1 || c.PendingWaiters() != 0 {
		t.Fatalf("after firing: %d calls, %d waiters", calls, c.PendingWaiters())
	}
}

func TestRealAfterFunc(t *testing.T) {
	ran := make(chan struct{})
	NewReal().AfterFunc(time.Millisecond, func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Real.AfterFunc never ran")
	}
	if stop := NewReal().AfterFunc(time.Hour, func() {}); !stop() {
		t.Error("stopping an hour early should prevent the call")
	}
}

// TestTimeoutContextIsLazy: a context nobody waits on arms nothing, and still
// reports the deadline once the clock has passed it.
func TestTimeoutContextIsLazy(t *testing.T) {
	clk := NewManual(time.Unix(100, 0))
	ctx, cancel := WithTimeout(clk, time.Second)
	defer cancel()
	if d, ok := ctx.Deadline(); !ok || !d.Equal(time.Unix(101, 0)) {
		t.Fatalf("Deadline() = %v, %v", d, ok)
	}
	if ctx.Value("key") != nil {
		t.Error("the context carries no values")
	}
	if err := ctx.Err(); err != nil {
		t.Fatalf("Err() = %v before the deadline", err)
	}
	clk.Advance(999 * time.Millisecond)
	if err := ctx.Err(); err != nil {
		t.Fatalf("Err() = %v one millisecond early", err)
	}
	if got := clk.PendingWaiters(); got != 0 {
		t.Fatalf("%d clock waiters for a context nobody waited on, want 0", got)
	}
	clk.Advance(time.Millisecond)
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v at the deadline, want DeadlineExceeded", err)
	}
	if !closed(ctx.Done()) {
		t.Fatal("Done() of an expired context is not closed")
	}
	if got := clk.PendingWaiters(); got != 0 {
		t.Fatalf("%d clock waiters after expiry, want 0", got)
	}
	cancel()
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancel after expiry changed Err() to %v", err)
	}
}

// TestTimeoutContextDone: the first Done arms exactly one timer, which closes
// the channel at the deadline and not before.
func TestTimeoutContextDone(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	ctx, cancel := WithTimeout(clk, time.Second)
	defer cancel()
	done := ctx.Done()
	if ctx.Done() != done {
		t.Fatal("Done() returned two different channels")
	}
	if got := clk.PendingWaiters(); got != 1 {
		t.Fatalf("%d clock waiters after Done(), want 1", got)
	}
	clk.Advance(999 * time.Millisecond)
	if closed(done) || ctx.Err() != nil {
		t.Fatal("the context ended before its deadline")
	}
	clk.Advance(time.Millisecond)
	if !closed(done) {
		t.Fatal("Done() is still open at the deadline")
	}
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want DeadlineExceeded", err)
	}
}

// TestTimeoutContextCancelReleasesTheTimer: cancel before the deadline ends
// the context with Canceled and takes its waiter off the clock.
func TestTimeoutContextCancelReleasesTheTimer(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	ctx, cancel := WithTimeout(clk, time.Second)
	done := ctx.Done()
	cancel()
	if !closed(done) {
		t.Fatal("cancel did not close Done()")
	}
	if err := ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want Canceled", err)
	}
	if got := clk.PendingWaiters(); got != 0 {
		t.Fatalf("%d clock waiters after cancel, want 0", got)
	}
	clk.Advance(time.Hour)
	if err := ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("the deadline overwrote Err() with %v", err)
	}

	// Cancelled before anybody asked: Done is born closed, nothing is armed.
	ctx, cancel = WithTimeout(clk, time.Second)
	cancel()
	if !closed(ctx.Done()) || clk.PendingWaiters() != 0 {
		t.Fatal("a context cancelled before its first Done() must return a closed channel and arm nothing")
	}
}

// TestDerivingFromTimeoutContextStartsNoGoroutine: package context finds the
// AfterFunc method, so a stdlib context derived from ours (tcpnet's dial does
// this) is cancelled through a registration instead of a watcher goroutine.
func TestDerivingFromTimeoutContextStartsNoGoroutine(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	parent, cancelParent := WithTimeout(clk, time.Second)
	defer cancelParent()
	before := runtime.NumGoroutine()
	child, cancelChild := context.WithTimeout(parent, time.Hour)
	grandchild, cancelGrandchild := context.WithCancel(child)
	defer cancelGrandchild()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("deriving two contexts took the process from %d goroutines to %d", before, after)
	}
	if got := clk.PendingWaiters(); got != 1 {
		t.Fatalf("%d clock waiters behind a derived context, want 1", got)
	}

	clk.Advance(time.Second)
	select {
	case <-grandchild.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the parent's deadline did not reach the derived contexts")
	}
	if err := child.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("child.Err() = %v, want the parent's DeadlineExceeded", err)
	}
	cancelChild()

	// A child that ends first takes its registration back.
	parent2, cancelParent2 := WithTimeout(clk, time.Second)
	defer cancelParent2()
	_, cancelChild2 := context.WithCancel(parent2)
	cancelChild2()
	if got := len(parent2.(*timeoutCtx).after); got != 0 {
		t.Fatalf("%d registrations left on the parent after its child was cancelled", got)
	}
}

func TestTimeoutContextOnTheWallClock(t *testing.T) {
	ctx, cancel := WithTimeout(NewReal(), 5*time.Millisecond)
	defer cancel()
	if ctx.Err() != nil {
		t.Fatal("expired at birth")
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("a 5 ms timeout did not fire in 5 s")
	}
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want DeadlineExceeded", err)
	}
}
