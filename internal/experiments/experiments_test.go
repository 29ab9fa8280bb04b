package experiments

import (
	"testing"
	"time"

	"repro/internal/harness"
)

func testConfig() Config {
	return Config{TimeScale: 100, Seed: 42}
}

// runCell runs one scenario cell under the suite's bounded timeouts.
func runCell(t *testing.T, cfg Config, system harness.System, kind harness.Fault, n int, opts ScenarioOptions) ScenarioCell {
	t.Helper()
	bounded := scenarioTestOptions()
	bounded.VictimPercent, bounded.AccountBandwidth = opts.VictimPercent, opts.AccountBandwidth
	if opts.FormationTimeout > 0 {
		bounded.FormationTimeout = opts.FormationTimeout
	}
	cell, err := RunScenarioCell(cfg, system, kind, n, bounded)
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

func TestRunBootstrapRapidSmall(t *testing.T) {
	r := runCell(t, testConfig(), harness.SystemRapid, harness.FaultNone, 8, ScenarioOptions{})
	if !r.FormationOK {
		t.Fatal("bootstrap did not converge")
	}
	if r.FullView != 8 {
		t.Fatalf("members that reached the full view = %d, want 8", r.FullView)
	}
	if r.UniqueSizes < 1 {
		t.Fatal("no sizes recorded")
	}
}

func TestRunBootstrapMemberlistSmall(t *testing.T) {
	r := runCell(t, testConfig(), harness.SystemMemberlist, harness.FaultNone, 8, ScenarioOptions{})
	if !r.FormationOK {
		t.Fatal("memberlist bootstrap did not converge")
	}
}

func TestRunCrashRapidSmall(t *testing.T) {
	r := runCell(t, testConfig(), harness.SystemRapid, harness.FaultCrash, 10, ScenarioOptions{VictimPercent: 20})
	if r.Victims != 2 {
		t.Fatalf("victims = %d, want 2 of 10", r.Victims)
	}
	if !r.Detected {
		t.Fatal("crash experiment did not recover")
	}
}

func TestRunFaultEgressLossRapid(t *testing.T) {
	r := runCell(t, testConfig(), harness.SystemRapid, harness.FaultEgressLoss, 12, ScenarioOptions{})
	if !r.Detected {
		t.Fatal("rapid did not remove the lossy member")
	}
}

// TestStabilityFlipFlopLargeN reruns the Figure 9 scenario at N=60, where the
// paper's n >> K precondition holds: the flip-flopping victim must be removed
// and — unlike the retired N=20 variant, which flaked ~2/12 runs because the
// victim's own noise alerts could evict a healthy subject (see the
// harness.FaultFlap doc comment) — every healthy member must be retained.
func TestStabilityFlipFlopLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("60-node stability run skipped in -short mode")
	}
	r := runCell(t, testConfig(), harness.SystemRapid, harness.FaultFlap, 60, ScenarioOptions{})
	if !r.Detected {
		t.Fatal("flip-flopping victim was not removed")
	}
	if r.UnnecessaryEvictions != 0 {
		t.Fatalf("%d healthy members were evicted: n >> K stability violated", r.UnnecessaryEvictions)
	}
}

func TestRunBandwidthRapidSmall(t *testing.T) {
	r := runCell(t, testConfig(), harness.SystemRapid, harness.FaultCrash, 8, ScenarioOptions{AccountBandwidth: true})
	if r.Received.MaxKBps <= 0 || r.Sent.MaxKBps <= 0 {
		t.Fatalf("bandwidth accounting produced zeros: %+v / %+v", r.Received, r.Sent)
	}
}

func TestSensitivityConflictRatesBehaveLikeFigure11(t *testing.T) {
	cfg := testConfig()
	// Small-but-meaningful version of the Figure 11 grid.
	points := RunCutDetectionSensitivity(cfg, 10, []int{6, 9}, []int{1, 4}, []int{2, 8}, 10, 3)
	if len(points) == 0 {
		t.Fatal("no sensitivity points produced")
	}
	rate := func(h, l, f int) float64 {
		for _, p := range points {
			if p.H == h && p.L == l && p.F == f {
				return p.ConflictRate
			}
		}
		t.Fatalf("missing point H=%d L=%d F=%d", h, l, f)
		return 0
	}
	// The paper's qualitative findings: the conflict rate is highest when the
	// H-L gap is smallest, and a wide gap (H=9, L=1) essentially eliminates
	// conflicts.
	if rate(9, 1, 2) > rate(6, 4, 2) {
		t.Errorf("wide watermark gap should conflict no more than narrow gap: %v vs %v",
			rate(9, 1, 2), rate(6, 4, 2))
	}
	if rate(9, 1, 2) > 10 {
		t.Errorf("H=9, L=1 should give a near-zero conflict rate, got %v%%", rate(9, 1, 2))
	}
}

func TestRunExpansion(t *testing.T) {
	res := RunExpansion(testConfig(), 10, []int{100}, 3)
	if len(res) != 1 {
		t.Fatal("expected one expansion result")
	}
	if res[0].NormalizedL2 >= 0.6 {
		t.Fatalf("lambda/d = %v, expected an expander", res[0].NormalizedL2)
	}
	if res[0].DetectableBetaL <= 0.1 {
		t.Fatalf("detectable beta = %v, expected a usable detection margin", res[0].DetectableBetaL)
	}
}

func TestTransactionWorkloadShapeMatchesFigure12(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end workload skipped in -short mode")
	}
	cfg := testConfig()
	results, err := RunTransactionWorkload(cfg, 10, 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("expected 2 providers, got %d", len(results))
	}
	baseline, rapid := results[0], results[1]
	if rapid.Failovers != 0 {
		t.Errorf("rapid should not fail over under the blackhole, got %d failovers", rapid.Failovers)
	}
	if baseline.Failovers == 0 {
		t.Errorf("the gossip-FD baseline should fail over at least once")
	}
	if baseline.Transactions >= rapid.Transactions {
		t.Errorf("baseline throughput (%d txns) should be below rapid's (%d txns)",
			baseline.Transactions, rapid.Transactions)
	}
}

func TestServiceDiscoveryShapeMatchesFigure13(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end workload skipped in -short mode")
	}
	cfg := testConfig()
	results, err := RunServiceDiscovery(cfg, 12, 3, 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("expected 2 providers, got %d", len(results))
	}
	memberlist, rapid := results[0], results[1]
	if rapid.Reloads > 2 {
		t.Errorf("rapid should reconfigure the load balancer in a single batch, got %d reloads", rapid.Reloads)
	}
	if memberlist.Reloads < rapid.Reloads {
		t.Errorf("memberlist should cause at least as many reloads as rapid (%d vs %d)",
			memberlist.Reloads, rapid.Reloads)
	}
}
