package harness

import (
	"context"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
)

func launch(t *testing.T, system System, n int) *Fleet {
	t.Helper()
	f, err := Launch(Options{System: system, N: n, TimeScale: 50, Seed: int64(n) * 7})
	if err != nil {
		t.Fatalf("Launch(%s, %d): %v", system, n, err)
	}
	return f
}

func TestLaunchRapidFleetConverges(t *testing.T) {
	f := launch(t, SystemRapid, 8)
	defer f.Stop()
	if _, ok := f.WaitForSizeExcluding(8, nil, 30*time.Second); !ok {
		t.Fatal("rapid fleet did not converge")
	}
	if len(f.Agents()) != 8 {
		t.Fatalf("agents = %d, want 8", len(f.Agents()))
	}
	// Give the sampler a few ticks after convergence before inspecting series.
	time.Sleep(100 * time.Millisecond)
	if got := f.UniqueReportedSizes(nil, f.Started()); got < 1 {
		t.Fatalf("UniqueReportedSizes = %d", got)
	}
	latencies := f.JoinLatencies()
	if len(latencies) != 8 {
		t.Fatalf("join latencies recorded for %d agents, want 8", len(latencies))
	}
	per := f.PerAgentConvergence(8)
	if len(per) != 8 {
		t.Fatalf("per-agent convergence has %d entries, want 8", len(per))
	}
}

func TestLaunchMemberlistFleetConverges(t *testing.T) {
	f := launch(t, SystemMemberlist, 8)
	defer f.Stop()
	if _, ok := f.WaitForSizeExcluding(8, nil, 30*time.Second); !ok {
		t.Fatal("memberlist fleet did not converge")
	}
}

func TestLaunchZooKeeperFleetConverges(t *testing.T) {
	f := launch(t, SystemZooKeeper, 8)
	defer f.Stop()
	if _, ok := f.WaitForSizeExcluding(8, nil, 30*time.Second); !ok {
		t.Fatal("zookeeper fleet did not converge")
	}
}

func TestLaunchRapidCFleetConverges(t *testing.T) {
	f := launch(t, SystemRapidC, 6)
	defer f.Stop()
	if _, ok := f.WaitForSizeExcluding(6, nil, 30*time.Second); !ok {
		t.Fatal("rapid-c fleet did not converge")
	}
}

func TestCrashAndWaitExcluding(t *testing.T) {
	f := launch(t, SystemRapid, 8)
	defer f.Stop()
	if _, ok := f.WaitForSizeExcluding(8, nil, 30*time.Second); !ok {
		t.Fatal("fleet did not converge")
	}
	victim := f.Agents()[3].Addr()
	f.Net.Crash(victim)
	excluded := map[node.Addr]bool{victim: true}
	if _, ok := f.WaitForSizeExcluding(7, excluded, 30*time.Second); !ok {
		t.Fatal("survivors did not remove the crashed agent")
	}
}

// TestUniqueSizesCountFromInjection: Figure 8's claim is that Rapid goes
// N -> N-F in one step. Counting sizes from fleet launch buries that under
// the bootstrap's intermediate sizes; counting from the injection instant
// must read exactly two (10 and 8).
func TestUniqueSizesCountFromInjection(t *testing.T) {
	f := launch(t, SystemRapid, 10)
	defer f.Stop()
	if _, ok := f.WaitForSizeExcluding(10, nil, 30*time.Second); !ok {
		t.Fatal("fleet did not converge")
	}
	injected := time.Now()
	victims, err := f.Inject(FaultCrash, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitForSizeExcluding(8, victims, 30*time.Second); !ok {
		t.Fatal("survivors did not remove the crashed agents")
	}
	time.Sleep(100 * time.Millisecond) // a few sampler ticks at the new size
	if got := f.UniqueReportedSizes(victims, injected); got != 2 {
		t.Fatalf("distinct sizes after injection = %d, want 2 (10 and 8)", got)
	}
	if all := f.UniqueReportedSizes(victims, f.Started()); all < 2 {
		t.Fatalf("distinct sizes since launch = %d, want at least the post-injection 2", all)
	}
}

// TestFaultTable: every kind of the one fault vocabulary installs on a small
// fleet, whole-network kinds take no victims, ClearFaults restores delivery
// from a victim to a healthy member, and an unknown name is rejected.
func TestFaultTable(t *testing.T) {
	f := launch(t, SystemRapid, 6)
	defer f.Stop()
	if _, ok := f.WaitForSizeExcluding(6, nil, 30*time.Second); !ok {
		t.Fatal("fleet did not converge")
	}
	agents := f.Agents()
	victim, healthy := agents[len(agents)-1].Addr(), agents[0].Addr()
	probe := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_, err := f.Net.Client(victim).Send(ctx, healthy, &remoting.Request{Probe: &remoting.ProbeRequest{Sender: victim}})
		return err
	}
	kinds := Faults()
	if len(kinds) != 10 {
		t.Fatalf("fault vocabulary has %d kinds, want the matrix's 8 plus none and ingress-block", len(kinds))
	}
	inject := func(kind Fault) {
		hit, err := f.Inject(kind, 1)
		if err != nil {
			t.Fatalf("Inject(%s): %v", kind, err)
		}
		if kind.global() && len(hit) != 0 {
			t.Errorf("whole-network kind %s took victims %v", kind, hit)
		}
		if !kind.global() && (len(hit) != 1 || !hit[victim]) {
			t.Errorf("Inject(%s, 1) hit %v, want the last member of the launch order", kind, hit)
		}
	}
	for _, kind := range kinds {
		if kind == FaultCrash {
			continue // the one kind ClearFaults does not revert: last, below
		}
		inject(kind)
		if kind == FaultIngressBlock && probe() == nil {
			t.Errorf("a victim that drops all ingress still got a probe response")
		}
		f.ClearFaults()
		if err := probe(); err != nil {
			t.Errorf("after %s cleared, victim -> healthy probe failed: %v", kind, err)
		}
	}
	inject(FaultCrash)
	if probe() == nil {
		t.Errorf("a crashed victim still got a probe response")
	}
	if _, err := f.Inject(Fault("deaf"), 1); err == nil {
		t.Error("an unknown fault name should be rejected")
	}
}

func TestUnknownSystemRejected(t *testing.T) {
	if _, err := Launch(Options{System: System("nope"), N: 3}); err == nil {
		t.Fatal("unknown system should be rejected")
	}
}

func TestZeroSizeRejected(t *testing.T) {
	if _, err := Launch(Options{System: SystemRapid, N: 0}); err == nil {
		t.Fatal("zero-size fleet should be rejected")
	}
}
