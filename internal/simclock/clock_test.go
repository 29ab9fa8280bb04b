package simclock

import (
	"testing"
	"time"
)

func TestRealClockMonotonicEnough(t *testing.T) {
	c := NewReal()
	a := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(a) <= 0 {
		t.Error("real clock did not advance across Sleep")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Error("real clock After never fired")
	}
}

func TestManualNowAndAdvance(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewManual(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", c.Now(), start)
	}
	c.Advance(5 * time.Second)
	if got := c.Since(start); got != 5*time.Second {
		t.Errorf("Since = %v, want 5s", got)
	}
}

func TestManualAfterFiresAtDeadline(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	ch := c.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before any Advance")
	default:
	}
	c.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before the deadline")
	default:
	}
	c.Advance(time.Second)
	select {
	case now := <-ch:
		if !now.Equal(time.Unix(10, 0)) {
			t.Errorf("After delivered %v, want %v", now, time.Unix(10, 0))
		}
	default:
		t.Fatal("After did not fire at the deadline")
	}
}

func TestManualAfterZeroFiresImmediately(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) should fire immediately")
	}
	select {
	case <-c.After(-time.Second):
	default:
		t.Fatal("After(negative) should fire immediately")
	}
}

func TestManualSleepUnblocksOnAdvance(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		c.Sleep(3 * time.Second)
		close(done)
	}()
	// Wait for the sleeper to register.
	deadline := time.Now().Add(time.Second)
	for c.PendingWaiters() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Advance(3 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep did not return after Advance")
	}
}

func TestManualMultipleWaitersFireInOrder(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	ch1 := c.After(1 * time.Second)
	ch2 := c.After(2 * time.Second)
	ch3 := c.After(10 * time.Second)
	c.Advance(5 * time.Second)
	for i, ch := range []<-chan time.Time{ch1, ch2} {
		select {
		case <-ch:
		default:
			t.Fatalf("waiter %d did not fire", i+1)
		}
	}
	select {
	case <-ch3:
		t.Fatal("waiter beyond the advanced time fired")
	default:
	}
	if c.PendingWaiters() != 1 {
		t.Errorf("PendingWaiters = %d, want 1", c.PendingWaiters())
	}
}

func TestManualTickerFiresRepeatedly(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	tk := c.Ticker(time.Second)
	defer tk.Stop()
	for i := 0; i < 3; i++ {
		c.Advance(time.Second)
		select {
		case <-tk.C():
		default:
			t.Fatalf("tick %d did not fire", i+1)
		}
	}
}

func TestManualTickerCoalescesMissedTicks(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	tk := c.Ticker(time.Second)
	defer tk.Stop()
	// Advancing far past several periods without draining delivers one tick.
	c.Advance(5 * time.Second)
	c.Advance(5 * time.Second)
	select {
	case <-tk.C():
	default:
		t.Fatal("ticker did not fire")
	}
	select {
	case <-tk.C():
		t.Fatal("missed ticks should coalesce into a single delivery")
	default:
	}
	// After draining, the ticker is re-armed relative to the advanced time.
	c.Advance(time.Second)
	select {
	case <-tk.C():
	default:
		t.Fatal("ticker did not re-arm after a coalesced delivery")
	}
}

func TestManualTickerStop(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	tk := c.Ticker(time.Second)
	tk.Stop()
	c.Advance(3 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
	if c.PendingWaiters() != 0 {
		t.Errorf("PendingWaiters = %d, want 0 after stop", c.PendingWaiters())
	}
}

func TestRealTicker(t *testing.T) {
	tk := NewReal().Ticker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(time.Second):
		t.Fatal("real ticker did not fire")
	}
}

func TestManualTimerFiresOnceAndResets(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	tm := c.Timer(time.Second)
	c.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("timer did not fire at its deadline")
	}
	// One-shot: no further firings without a Reset.
	c.Advance(5 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("one-shot timer fired twice")
	default:
	}
	// Reset re-arms with a different duration, relative to the current time.
	tm.Reset(2 * time.Second)
	c.Advance(time.Second)
	select {
	case <-tm.C():
		t.Fatal("reset timer fired before its new deadline")
	default:
	}
	c.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset timer did not fire at its new deadline")
	}
}

func TestManualTimerStop(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	tm := c.Timer(time.Second)
	tm.Stop()
	c.Advance(3 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	// Reset after Stop re-arms.
	tm.Reset(time.Second)
	c.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("timer did not fire after Reset following Stop")
	}
}

// TestManualTimerStopDrainReset re-arms a timer the way a driver with one
// timer does — Stop, drop a firing not yet received, Reset. A firing that was
// delivered but not received is dropped, not seen after the re-arm; the
// timer never holds more than one waiter; and re-arming while another
// goroutine advances the clock past its deadlines never leaves Advance
// blocked on the timer's channel for longer than the next re-arm.
func TestManualTimerStopDrainReset(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	tm := c.Timer(time.Second)
	rearm := func(d time.Duration) {
		tm.Stop()
		select {
		case <-tm.C():
		default:
		}
		tm.Reset(d)
	}
	c.Advance(time.Second) // delivered, not received
	rearm(5 * time.Second)
	c.Advance(4 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("a firing from before the re-arm was received after it")
	default:
	}
	c.Advance(time.Second)
	select {
	case at := <-tm.C():
		if want := time.Unix(6, 0); !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("the re-armed timer did not fire at its deadline")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			c.Advance(time.Millisecond)
		}
	}()
	for i := 0; i < 2000; i++ {
		rearm(time.Duration(1+i%3) * time.Millisecond)
		if n := c.PendingWaiters(); n > 1 {
			t.Fatalf("%d waiters after a re-arm, want at most 1", n)
		}
	}
	for {
		select {
		case <-tm.C():
		case <-done:
			return
		}
	}
}

func TestManualTimerZeroFiresImmediately(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	tm := c.Timer(0)
	select {
	case <-tm.C():
	default:
		t.Fatal("zero-duration timer should fire immediately")
	}
}

func TestRealTimer(t *testing.T) {
	tm := NewReal().Timer(time.Millisecond)
	defer tm.Stop()
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire")
	}
	tm.Reset(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire after Reset")
	}
}
