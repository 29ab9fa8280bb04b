package experiments

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

// TestRunBootstrapConvergenceSmall exercises the paper-scale sweep machinery
// at laptop size: the sweep must converge, record a join latency for every
// member, and produce ordered percentiles.
func TestRunBootstrapConvergenceSmall(t *testing.T) {
	p := runCell(t, testConfig(), harness.SystemRapid, harness.FaultNone, 20, ScenarioOptions{})
	if !p.FormationOK {
		t.Fatal("20-node bootstrap did not converge")
	}
	if p.JoinP50S <= 0 || p.JoinP50S > p.JoinP90S || p.JoinP90S > p.JoinP99S {
		t.Fatalf("join percentiles not ordered: p50=%v p90=%v p99=%v", p.JoinP50S, p.JoinP90S, p.JoinP99S)
	}
	if p.BootMessages <= 0 {
		t.Fatal("no messages recorded")
	}
}

// TestBootstrapConvergence1000Smoke is the CI gate for the paper-scale
// simnet: a 1000-node Rapid fleet must bootstrap to a converged view inside
// one test binary (no sockets) within the bound below. It runs only in
// -short mode — CI invokes it as a dedicated smoke step, and gating it keeps
// the multi-minute fleet out of every plain `go test ./...` (where it would
// run a second time for no extra signal). It also skips under the race
// detector, whose ~10x instrumentation cost would turn a scale check into a
// timeout lottery.
func TestBootstrapConvergence1000Smoke(t *testing.T) {
	if raceEnabled {
		t.Skip("paper-scale smoke skipped under -race (covered at 100 nodes by the churn scenario)")
	}
	if !testing.Short() {
		t.Skip("paper-scale smoke runs in the dedicated -short lane: go test -short -run TestBootstrapConvergence1000Smoke ./internal/experiments/")
	}
	cfg := Config{TimeScale: 20, Seed: 1}
	start := time.Now()
	p := runCell(t, cfg, harness.SystemRapid, harness.FaultNone, 1000, ScenarioOptions{FormationTimeout: 4 * time.Minute})
	if !p.FormationOK {
		t.Fatal("1000-node bootstrap did not converge")
	}
	// Control-plane health gates: a clean bootstrap must finish with
	// (essentially) zero overload shedding, and every member's adaptive
	// window must sit inside the configured floor/ceiling. Shedding on this
	// workload means the adaptive window stopped absorbing the storm — a
	// controller regression sheds five to six orders of magnitude more than
	// the tolerance here (a stuck-at-floor controller was observed at 10^5
	// sheds), while a healthy run sheds zero almost always and at most a
	// handful when the host scheduler starves a member mid-storm, so the
	// tiny allowance keeps the gate meaningful without coupling CI green to
	// machine load.
	if p.ShedBatches*1000 > p.BootMessages {
		t.Errorf("bootstrap shed %d batches of %d messages; the adaptive window should keep the event queues from filling",
			p.ShedBatches, p.BootMessages)
	}
	bounds := core.ScaledSettings(cfg.TimeScale)
	if lo, hi := cfg.scaledSeconds(bounds.BatchingWindowMin), cfg.scaledSeconds(bounds.BatchingWindowMax); p.MinBatchWindowS < lo || p.MaxBatchWindowS > hi {
		t.Errorf("adaptive window left its bounds: fleet [%v, %v] vs configured [%v, %v] paper-s",
			p.MinBatchWindowS, p.MaxBatchWindowS, lo, hi)
	}
	// JoinsTimedOut is reported, not gated, at this size: at TimeScale 20
	// JoinPhase2Timeout is 0.6 s of wall time, and one or two cores need
	// longer than that just to start 999 joiners, so the big admission wave
	// legitimately stays open past the first parkers' timeout.
	// TestBootstrapStormTimesOutNoJoin gates it at a size that fits.
	t.Logf("1000 nodes converged in %s wall (%.0f paper-s); join p50/p90/p99 = %.0f/%.0f/%.0f paper-s; %d msgs; shed=%d window=[%v,%v] paper-s joinsTimedOut=%d",
		time.Since(start).Round(time.Second), p.ConvergeS, p.JoinP50S, p.JoinP90S, p.JoinP99S,
		p.BootMessages, p.ShedBatches, p.MinBatchWindowS, p.MaxBatchWindowS, p.JoinsTimedOut)
}

// TestBootstrapStormTimesOutNoJoin is the gate against the join stall coming
// back: view changes redirect the joiners they race past, so no phase-2
// request may run out JoinPhase2Timeout. When observers instead kept such
// joiners parked and re-filed partial JOIN alerts for them, this same
// 100-node storm took 14-16 paper-seconds, all of them spent waiting for that
// timeout; it takes under one. The fleet is sized to need a tenth of the
// timeout (1.2 s of wall time here) on a two-core host, so a non-zero count
// means a stall, not a slow machine; the race detector's tenfold slowdown
// takes that margin away, and the paper-scale smokes only report the count.
func TestBootstrapStormTimesOutNoJoin(t *testing.T) {
	if raceEnabled {
		t.Skip("the zero-timeouts gate needs its wall-clock margin; the race lane runs the 200-node smoke")
	}
	cfg := Config{TimeScale: 10, Seed: 1}
	p := runCell(t, cfg, harness.SystemRapid, harness.FaultNone, 100, ScenarioOptions{})
	if !p.FormationOK {
		t.Fatal("100-node bootstrap did not converge")
	}
	if p.JoinsTimedOut != 0 {
		t.Errorf("%d phase-2 join requests ran out JoinPhase2Timeout in a 100-node storm that converged in %.1f paper-s; joiners must be redirected, not left to time out",
			p.JoinsTimedOut, p.ConvergeS)
	}
}

// TestBootstrapConvergence200RaceSmoke is the race lane's counterpart to the
// paper-scale smoke. The 1000-node gate must skip under the race detector
// (its ~10x instrumentation turns a scale check into a timeout lottery), which
// previously left the full bootstrap path — expander joins, alert batching,
// the adaptive window controller — race-checked only at the 100-node churn
// scenario's intensity. A 200-node bootstrap is the same storm shape at a
// size the instrumented scheduler finishes comfortably inside the race lane's
// budget, so the single-writer engine gets race coverage on its heaviest
// workload too.
func TestBootstrapConvergence200RaceSmoke(t *testing.T) {
	if !raceEnabled {
		t.Skip("medium-N smoke exists for the race lane; the plain lane gates at 1000 nodes")
	}
	if !testing.Short() {
		t.Skip("race smoke runs in the -race -short lane")
	}
	cfg := Config{TimeScale: 20, Seed: 1}
	start := time.Now()
	p := runCell(t, cfg, harness.SystemRapid, harness.FaultNone, 200, ScenarioOptions{FormationTimeout: 4 * time.Minute})
	if !p.FormationOK {
		t.Fatal("200-node bootstrap did not converge under the race detector")
	}
	// Same control-plane gates as the 1000-node smoke, with the same tiny
	// shedding allowance for instrumented-scheduler hiccups.
	if p.ShedBatches*1000 > p.BootMessages {
		t.Errorf("bootstrap shed %d batches of %d messages; the adaptive window should keep the event queues from filling",
			p.ShedBatches, p.BootMessages)
	}
	bounds := core.ScaledSettings(cfg.TimeScale)
	if lo, hi := cfg.scaledSeconds(bounds.BatchingWindowMin), cfg.scaledSeconds(bounds.BatchingWindowMax); p.MinBatchWindowS < lo || p.MaxBatchWindowS > hi {
		t.Errorf("adaptive window left its bounds: fleet [%v, %v] vs configured [%v, %v] paper-s",
			p.MinBatchWindowS, p.MaxBatchWindowS, lo, hi)
	}
	// Reported, not gated, for the same reason as in the 1000-node smoke: the
	// instrumented fleet needs 0.5-4 s of wall time against a 0.6 s timeout.
	t.Logf("200 nodes converged under -race in %s wall (%.0f paper-s); %d msgs; shed=%d joinsTimedOut=%d",
		time.Since(start).Round(time.Second), p.ConvergeS, p.BootMessages, p.ShedBatches, p.JoinsTimedOut)
}
