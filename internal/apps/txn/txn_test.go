package txn

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/simclock"
)

func servers(n int) []node.Addr {
	out := make([]node.Addr, n)
	for i := range out {
		out[i] = node.Addr(fmt.Sprintf("data-%02d:1", i))
	}
	return out
}

func fastOpts() Options { return DefaultOptions().Scaled(20) }

func TestSerializationServerIsLowestAddress(t *testing.T) {
	s := servers(5)
	src := NewStaticMembership(s)
	p := NewPlatform(s, src, fastOpts())
	defer p.Stop()
	if p.SerializationServer() != s[0] {
		t.Fatalf("serialization server = %v, want %v", p.SerializationServer(), s[0])
	}
}

// TestStableMembershipNoFailovers runs on a manual clock, stepped only while
// both clients are asleep, so a transaction's latency is the model's and not
// the host's: a 1 ms service time that a loaded host stretches past the
// bound would otherwise read as a failover pause.
func TestStableMembershipNoFailovers(t *testing.T) {
	s := servers(4)
	src := NewStaticMembership(s)
	clk := simclock.NewManual(time.Unix(0, 0))
	opts := fastOpts()
	opts.Clock = clk
	p := NewPlatform(s, src, opts)
	defer p.Stop()
	const clients = 2
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			// The watch loop's ticker is always armed; each client adds
			// one waiter while it sleeps.
			if clk.PendingWaiters() == 1+clients {
				clk.Advance(opts.BaseLatency)
			}
			runtime.Gosched()
		}
	}()
	results := p.RunWorkload(clients, 300*time.Millisecond)
	close(done)
	if len(results) == 0 {
		t.Fatal("no transactions completed")
	}
	if p.Failovers() != 0 {
		t.Fatalf("failovers = %d, want 0 under stable membership", p.Failovers())
	}
	for _, r := range results {
		if r.Latency > 10*fastOpts().BaseLatency {
			t.Fatalf("transaction latency %v is excessive under stable membership", r.Latency)
		}
	}
}

// TestPushDrivenMembership exercises the subscriber-stream entry point: a
// platform built without a polling source reacts to ApplyMembership pushes
// immediately, with no watch loop running.
func TestPushDrivenMembership(t *testing.T) {
	s := servers(4)
	p := NewPlatform(s, nil, fastOpts())
	defer p.Stop()
	if p.SerializationServer() != s[0] {
		t.Fatalf("serialization server = %v, want %v", p.SerializationServer(), s[0])
	}
	// Pushing the removal of the serialization server fails over synchronously.
	p.ApplyMembership(s[1:])
	if p.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1 after pushed removal", p.Failovers())
	}
	if p.SerializationServer() != s[1] {
		t.Fatalf("serialization server = %v, want %v", p.SerializationServer(), s[1])
	}
	if p.MembershipFlaps() != 1 {
		t.Fatalf("flaps = %d, want 1", p.MembershipFlaps())
	}
	// An identical push is a no-op.
	p.ApplyMembership(s[1:])
	if p.Failovers() != 1 || p.MembershipFlaps() != 1 {
		t.Fatalf("idempotent push changed state: failovers=%d flaps=%d", p.Failovers(), p.MembershipFlaps())
	}
}

// TestSeedEndpointsYieldsToPushes pins the subscribe-then-seed contract: a
// seed read applies when it arrives first, but never overwrites state a
// pushed view change has already installed.
func TestSeedEndpointsYieldsToPushes(t *testing.T) {
	s := servers(3)
	eps := make([]node.Endpoint, len(s))
	for i, a := range s {
		eps[i] = node.Endpoint{Addr: a}
	}

	// Seed first: it applies (here the removal of the serialization server).
	p := NewPlatform(s, nil, fastOpts())
	defer p.Stop()
	p.SeedEndpoints(eps[1:])
	if p.SerializationServer() != s[1] {
		t.Fatalf("seed before any push should apply, server=%v", p.SerializationServer())
	}

	// Push first: the (stale) seed must be discarded.
	q := NewPlatform(s, nil, fastOpts())
	defer q.Stop()
	q.ApplyEndpoints(eps[1:]) // pushed view: s[0] is gone
	q.SeedEndpoints(eps)      // stale seed read claims s[0] is alive
	if q.SerializationServer() != s[1] {
		t.Fatalf("stale seed overwrote a pushed view, server=%v", q.SerializationServer())
	}
}

func TestMembershipRemovalTriggersFailoverAndPause(t *testing.T) {
	s := servers(4)
	src := NewStaticMembership(s)
	opts := fastOpts()
	p := NewPlatform(s, src, opts)
	defer p.Stop()

	// Remove the serialization server from the membership.
	src.Set(s[1:])
	deadline := time.Now().Add(5 * time.Second)
	for p.Failovers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", p.Failovers())
	}
	if p.SerializationServer() != s[1] {
		t.Fatalf("new serialization server = %v, want %v", p.SerializationServer(), s[1])
	}
	// A transaction submitted during the failover pause takes much longer
	// than the base latency.
	r := p.SubmitTransaction()
	if r.Latency < opts.FailoverPause/2 {
		t.Fatalf("transaction during failover took %v, expected a pause near %v", r.Latency, opts.FailoverPause)
	}
}

func TestFlappingMembershipCausesRepeatedFailovers(t *testing.T) {
	s := servers(4)
	src := NewStaticMembership(s)
	opts := fastOpts()
	p := NewPlatform(s, src, opts)
	defer p.Stop()

	// Flap the serialization server in and out of the membership.
	for i := 0; i < 3; i++ {
		src.Set(s[1:])
		time.Sleep(4 * opts.CheckInterval)
		src.Set(s)
		time.Sleep(4 * opts.CheckInterval)
	}
	if p.Failovers() < 2 {
		t.Fatalf("failovers = %d, want repeated failovers under a flapping membership", p.Failovers())
	}
	if p.MembershipFlaps() < 4 {
		t.Fatalf("membership flaps = %d, want several", p.MembershipFlaps())
	}
}

func TestThroughputDropsUnderFlapping(t *testing.T) {
	s := servers(4)
	opts := fastOpts()

	stableSrc := NewStaticMembership(s)
	stable := NewPlatform(s, stableSrc, opts)
	stableResults := stable.RunWorkload(2, 400*time.Millisecond)
	stable.Stop()

	flappySrc := NewStaticMembership(s)
	flappy := NewPlatform(s, flappySrc, opts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			flappySrc.Set(s[1:])
			time.Sleep(50 * time.Millisecond)
			flappySrc.Set(s)
			time.Sleep(50 * time.Millisecond)
		}
	}()
	flappyResults := flappy.RunWorkload(2, 400*time.Millisecond)
	<-done
	flappy.Stop()

	if len(flappyResults) >= len(stableResults) {
		t.Fatalf("throughput under flapping membership (%d txns) should be lower than stable (%d txns)",
			len(flappyResults), len(stableResults))
	}
}
