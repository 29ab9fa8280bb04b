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
// one test binary (no sockets) within the bound below, in one view change and
// with no join timed out. It runs only in -short mode — CI invokes it as a
// dedicated smoke step, and gating it keeps the 1000-member fleet out of
// every plain `go test ./...` (where it would
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
	// The lone seed gathers the whole storm, so one view change forms the
	// fleet: a second would mean joiners redirected out of the first and voted
	// in again by relayed votes.
	if p.SeedViewChanges != 1 {
		t.Errorf("the seed installed %d configurations after its first, want 1", p.SeedViewChanges)
	}
	checkControlPlane(t, cfg, p)
	// At TimeScale 20 JoinPhase2Timeout is 0.6 s of wall time. A storm the
	// seed decides in one view change parks every joiner once, for ≈ 0.05 s
	// of wall time on a two-core host (20 consecutive runs: 1-2 paper-s, 1 999
	// messages, no timeout), so a timed-out request means the seed cut the
	// storm early and a second wave is back.
	if p.JoinsTimedOut != 0 {
		t.Errorf("%d phase-2 join requests ran out JoinPhase2Timeout", p.JoinsTimedOut)
	}
	t.Logf("1000 nodes converged in %s wall (%.0f paper-s) in %d view changes; join p50/p90/p99 = %.0f/%.0f/%.0f paper-s; %d msgs; queue-full=%v window=[%v,%v] paper-s joinsTimedOut=%d",
		time.Since(start).Round(time.Second), p.ConvergeS, p.SeedViewChanges, p.JoinP50S, p.JoinP90S, p.JoinP99S,
		p.BootMessages, p.QueueFullS, p.MinBatchWindowS, p.MaxBatchWindowS, p.JoinsTimedOut)
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
	checkControlPlane(t, cfg, p)
	// Reported, not gated: the instrumented fleet's wall time is what the
	// 0.6 s timeout runs against, and the race lane's host varies. With the
	// storm decided in one view change it read 1 paper-s, 399 messages and
	// no timeout in three runs on a two-core host (0.1 s of wall time each).
	t.Logf("200 nodes converged under -race in %s wall (%.0f paper-s); %d msgs; queue-full=%v paper-s joinsTimedOut=%d",
		time.Since(start).Round(time.Second), p.ConvergeS, p.BootMessages, p.QueueFullS, p.JoinsTimedOut)
}

// queueFullAllowanceS is the time, in paper-seconds summed over the fleet,
// that the paper-scale smokes allow producers to spend blocked on full event
// queues: 0.05 s of wall time at TimeScale 20, a member starved for a moment.
// On a two-core host the 1000-node smoke read 0 in 41 of 42 runs (30 of them
// two copies at once) and the 200-node race smoke 0 in 52; the other
// 1000-node run read 5 109 with 12 584 timed-out joins. The lone seed gathers
// the storm, so a window controller pinned at its floor reads 0 as well; with
// the seed's gathering off too it read 1 708 to 7 175 in three of four runs,
// and with gathering off alone 0 to 243.
const queueFullAllowanceS = 1.0

// checkControlPlane gates a bootstrap's control-plane health: its event queues
// must not fill, and every member's adaptive window must sit inside the floor
// and ceiling core derives from the probe interval (1/100 and 2/5 of it, at
// least 1 ms each).
func checkControlPlane(t *testing.T, cfg Config, p ScenarioCell) {
	t.Helper()
	if p.QueueFullS > queueFullAllowanceS {
		t.Errorf("producers spent %.1f paper-s blocked on full event queues (allowance %v); the adaptive window should keep the queues from filling",
			p.QueueFullS, queueFullAllowanceS)
	}
	interval := core.ScaledSettings(cfg.TimeScale).ProbeInterval
	lo := cfg.scaledSeconds(max(interval/100, time.Millisecond))
	hi := cfg.scaledSeconds(max(2*interval/5, time.Millisecond))
	if p.MinBatchWindowS < lo || p.MaxBatchWindowS > hi {
		t.Errorf("adaptive window left its bounds: fleet [%v, %v] vs derived [%v, %v] paper-s",
			p.MinBatchWindowS, p.MaxBatchWindowS, lo, hi)
	}
}
