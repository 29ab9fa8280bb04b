package experiments

import (
	"testing"
	"time"

	"repro/internal/harness"
)

// scenarioTestOptions bounds every scenario-cell test run: small timeouts so
// a cell where detection legitimately fails (part of what the matrix
// measures) cannot stall the suite.
func scenarioTestOptions() ScenarioOptions {
	return ScenarioOptions{
		FormationTimeout: 120 * time.Second,
		DetectTimeout:    30 * time.Second,
		AgreeTimeout:     40 * time.Second,
		FaultWindow:      30 * time.Second,
	}
}

// TestScenarioConformanceAfterFaultClears is the protocol-conformance suite:
// for every system, after a scenario-matrix fault is injected and then
// cleared, all live members must converge back to one agreed membership
// within the bounded agreement window. Detection is *measured* by the matrix
// but deliberately not asserted here — whether a baseline evicts a gray
// victim is a finding, not a invariant; settling on a single view afterwards
// is the invariant every membership service must keep.
func TestScenarioConformanceAfterFaultClears(t *testing.T) {
	systems := []harness.System{harness.SystemRapid, harness.SystemMemberlist, harness.SystemRapidC}
	kinds := []harness.Fault{harness.FaultCrash, harness.FaultSlow, harness.FaultAsym, harness.FaultEgressLoss, harness.FaultWAN, harness.FaultChaos}
	if testing.Short() {
		// The short lanes (plain smoke and -race) keep one gray cell per
		// system; the full grid runs in the plain `go test ./...` tier.
		kinds = []harness.Fault{harness.FaultSlow}
	}
	cfg := Config{TimeScale: 100, Seed: 42}
	for _, system := range systems {
		for _, kind := range kinds {
			system, kind := system, kind
			t.Run(string(system)+"/"+string(kind), func(t *testing.T) {
				cell, err := RunScenarioCell(cfg, system, kind, 30, scenarioTestOptions())
				if err != nil {
					t.Fatal(err)
				}
				if !cell.FormationOK {
					t.Fatalf("%s did not form a 30-member cluster before the fault", system)
				}
				if !cell.Agreed {
					t.Fatalf("%s: live members did not agree on one membership after %s cleared (size range [%d, %d])",
						system, kind, cell.MinReported, cell.MaxReported)
				}
				if cell.AgreedSize < cell.N-cell.Victims {
					t.Fatalf("%s: agreed size %d after %s implies %d unnecessary evictions",
						system, cell.AgreedSize, kind, cell.UnnecessaryEvictions)
				}
				t.Logf("%s/%s: detected=%v in %.1f paper-s, agreed on %d in %.1f paper-s, %0.f msgs/node",
					system, kind, cell.Detected, cell.DetectS,
					cell.AgreedSize, cell.AgreeS, float64(cell.Messages)/float64(cell.N))
			})
		}
	}
}

// TestScenarioMatrixShortSmoke is the CI smoke for the full matrix plumbing:
// one Rapid cell per fault kind at laptop size, -short lane only (CI invokes
// it as a dedicated step), skipped under race (the race lane gets its own
// gray cell below).
func TestScenarioMatrixShortSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("matrix smoke skipped under -race (TestScenarioGrayFailureRaceSmoke covers the gray cell)")
	}
	if !testing.Short() {
		t.Skip("matrix smoke runs in the dedicated -short lane: go test -short -run TestScenarioMatrixShortSmoke ./internal/experiments/")
	}
	cfg := Config{TimeScale: 100, Seed: 42}
	fig := figureNamed(t, "scenarios")
	opts := scenarioTestOptions()
	opts.Kinds = fig.Kinds
	opts.Systems = []harness.System{harness.SystemRapid}
	// N=60, not 30: the one-way, flap and deaf kinds need N >> K so the
	// victim's noise alerts cannot evict a healthy member (see
	// harness.FaultOneWay and the Figure 9 note in docs/EXPERIMENTS.md).
	opts.Sizes = []int{60}
	fig.ScenarioOptions = opts
	// Even at N=60 that precondition is only marginally satisfied: a victim
	// whose egress still works keeps alerting against healthy members, and
	// under host-scheduler jitter one healthy member is occasionally cut
	// before the victim itself. The committed N=1000 capture shows zero
	// unnecessary evictions for every kind, so the smoke tolerates a single
	// such eviction for the victim-noise kinds only — everything else
	// (formation, post-clear agreement, all other kinds) stays strict.
	victimNoise := map[harness.Fault]bool{harness.FaultOneWay: true, harness.FaultFlap: true, harness.FaultAsym: true}
	res, err := RunFigure(cfg, fig, []int64{cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Kinds) != 8 || len(res.Cells) != len(fig.Kinds) {
		t.Fatalf("matrix produced %d cells for %d fault kinds, want 8 and 8", len(res.Cells), len(fig.Kinds))
	}
	for _, c := range res.Cells {
		if !c.FormationOK {
			t.Errorf("%s: formation failed", c.Fault)
			continue
		}
		if !c.Agreed {
			t.Errorf("%s: no post-clear agreement (size range [%d, %d])", c.Fault, c.MinReported, c.MaxReported)
		}
		noiseEviction := victimNoise[c.Fault] && c.UnnecessaryEvictions == 1
		if c.UnnecessaryEvictions > 0 {
			if noiseEviction {
				t.Logf("%s: tolerated one noise-alert eviction at laptop N (zero at N=1000; see docs/EXPERIMENTS.md)", c.Fault)
			} else {
				t.Errorf("%s: Rapid evicted %d healthy members", c.Fault, c.UnnecessaryEvictions)
			}
		}
		if c.RemovalExpected && !c.Detected && !noiseEviction {
			t.Errorf("%s: Rapid did not evict the faulty member within the bound", c.Fault)
		}
	}
}

// TestScenarioGrayFailureRaceSmoke runs one gray-failure cell (slow-but-alive
// victim) under the race detector: the delay pumps, flap evaluation and
// chaos draws added to simnet all sit on the hot delivery path, so one cell
// exercising them end-to-end belongs in the race lane.
func TestScenarioGrayFailureRaceSmoke(t *testing.T) {
	if !raceEnabled {
		t.Skip("gray race cell exists for the -race lane; the plain lane runs the full short smoke")
	}
	if !testing.Short() {
		t.Skip("race smoke runs in the -race -short lane")
	}
	cfg := Config{TimeScale: 100, Seed: 42}
	cell, err := RunScenarioCell(cfg, harness.SystemRapid, harness.FaultSlow, 30, scenarioTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !cell.FormationOK || !cell.Agreed {
		t.Fatalf("gray cell unhealthy under -race: formed=%v agreed=%v", cell.FormationOK, cell.Agreed)
	}
	if cell.UnnecessaryEvictions > 0 {
		t.Fatalf("Rapid evicted %d healthy members under a slow-node fault", cell.UnnecessaryEvictions)
	}
}
