package core

import (
	"context"
	"time"
)

// A context deadline arms the same wall-clock timer time.NewTimer does.
func bounded() {
	ctx, cancel := context.WithTimeout(context.Background(), tick) // want `context.WithTimeout in protocol package fixture/core: use simclock.WithTimeout`
	defer cancel()
	_, stop := context.WithDeadline(ctx, time.Time{}) // want `context.WithDeadline in protocol package`
	stop()
}

// The rest of package context arms nothing and stays legal.
func unbounded() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func allowed() {
	//lint:allow simclock fixture demonstrates the escape hatch on a context deadline
	_, cancel := context.WithTimeout(context.Background(), tick)
	cancel()
}
