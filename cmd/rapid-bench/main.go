// Command rapid-bench regenerates the paper's evaluation tables and figures
// (§2.1, §7, §8) using the in-process experiment harness. Each experiment
// prints the same rows or series the paper reports, scaled down to sizes that
// run on a single machine.
//
// Usage:
//
//	rapid-bench -exp all
//	rapid-bench -exp fig5 -sizes 30,60,100
//	rapid-bench -exp fig11
//	rapid-bench -exp fig12 -scale 100
//	rapid-bench -exp bootstrap -sizes 100,500,1000 -scale 10
//	rapid-bench -exp scenarios -sizes 1000 -bench-json BENCH_scenarios.json
//	rapid-bench -exp scenarios -sizes 60 -faults slow,flap -systems rapid
//
// Experiments: fig1, fig5 (also covers fig6/fig7/table1), fig8, fig9, fig10,
// table2, fig11, fig12, fig13, eigen, all, plus two that must be
// selected explicitly because they run minutes, not seconds, and are
// therefore not part of "all": bootstrap — the paper-scale (1000+ node)
// Figure 5 rerun — and scenarios — the adversarial scenario matrix (fault
// kind x system x N extended Table 2, with gray failures: slow-but-alive
// nodes, one-way links, flapping, asymmetric partitions, WAN latency
// classes, duplicate/reorder delivery).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
)

func main() {
	var (
		expName   = flag.String("exp", "all", "experiment to run (fig1,fig5,fig8,fig9,fig10,table2,fig11,fig12,fig13,eigen,all,bootstrap,scenarios)")
		scale     = flag.Float64("scale", 50, "time compression factor (50 = 1 paper-second -> 20ms)")
		n         = flag.Int("n", 60, "cluster size for failure experiments")
		sizes     = flag.String("sizes", "30,60,100", "comma-separated cluster sizes for bootstrap experiments (bootstrap default: 100,500,1000,2000)")
		seed      = flag.Int64("seed", 1, "random seed")
		shards    = flag.Int("shards", 0, "bootstrap/scenarios experiments only: simnet delivery shards (0 = default); raise with available cores for 1000+ node runs")
		joinconc  = flag.Int("joinconc", 0, "bootstrap experiment only: max concurrent joins (0 = all at once)")
		benchJSON = flag.String("bench-json", "", "bootstrap/scenarios experiments only: write the results as JSON to this path")
		faults    = flag.String("faults", "all", "scenarios experiment only: comma-separated fault kinds (crash,slow,oneway-links,flap,asym-partition,wan-zones,dup-reorder,egress-loss-80) or all")
		systems   = flag.String("systems", "rapid,memberlist,rapid-c", "scenarios experiment only: comma-separated systems (rapid,memberlist,rapid-c,zookeeper)")
	)
	flag.Parse()

	cfg := experiments.Config{TimeScale: *scale, Seed: *seed, Out: os.Stdout}
	bootstrapSizes, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invalid -sizes: %v\n", err)
		os.Exit(2)
	}

	allSystems := []harness.System{
		harness.SystemZooKeeper, harness.SystemMemberlist, harness.SystemRapidC, harness.SystemRapid,
	}
	comparisonSystems := []harness.System{
		harness.SystemZooKeeper, harness.SystemMemberlist, harness.SystemRapid,
	}

	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Printf("\n--- %s ---\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %s)\n", name, time.Since(start).Round(time.Millisecond))
	}

	selected := strings.ToLower(*expName)
	want := func(name string) bool { return selected == "all" || selected == name }

	if want("fig1") {
		run("Figure 1: instability under 80% packet loss at 1% of nodes", func() error {
			_, err := experiments.FaultSweep(cfg, comparisonSystems, experiments.FaultEgressLoss80, *n)
			return err
		})
	}
	if want("fig5") || want("fig6") || want("fig7") || want("table1") {
		run("Figures 5-7 and Table 1: bootstrap", func() error {
			_, err := experiments.BootstrapSweep(cfg, allSystems, bootstrapSizes)
			return err
		})
	}
	if want("fig8") {
		run("Figure 8: concurrent crash failures", func() error {
			failures := *n / 100
			if failures < 2 {
				failures = *n / 10
			}
			if failures < 1 {
				failures = 1
			}
			_, err := experiments.CrashSweep(cfg, comparisonSystems, *n, failures)
			return err
		})
	}
	if want("fig9") {
		run("Figure 9: flip-flopping one-way (ingress) partitions", func() error {
			_, err := experiments.FaultSweep(cfg, comparisonSystems, experiments.FaultIngressFlipFlop, *n)
			return err
		})
	}
	if want("fig10") {
		run("Figure 10: 80% egress packet loss", func() error {
			_, err := experiments.FaultSweep(cfg, comparisonSystems, experiments.FaultEgressLoss80, *n)
			return err
		})
	}
	if want("table2") {
		run("Table 2: per-process bandwidth", func() error {
			failures := *n / 10
			if failures < 1 {
				failures = 1
			}
			_, err := experiments.BandwidthSweep(cfg, comparisonSystems, *n, failures)
			return err
		})
	}
	if want("fig11") {
		run("Figure 11: K, H, L sensitivity", func() error {
			experiments.SensitivitySweep(cfg, 10, 100, 20)
			return nil
		})
	}
	if want("fig12") {
		run("Figure 12: transactional platform", func() error {
			_, err := experiments.RunTransactionWorkload(cfg, 12, 3*time.Second)
			return err
		})
	}
	if want("fig13") {
		run("Figure 13: service discovery", func() error {
			_, err := experiments.RunServiceDiscovery(cfg, 20, 5, 3*time.Second)
			return err
		})
	}
	// The paper-scale bootstrap sweep is opt-in only: at the default sizes it
	// reruns Figure 5 at N up to 2000 and takes minutes.
	if selected == "bootstrap" {
		run("Figure 5 at paper scale: Rapid bootstrap convergence", func() error {
			// An explicitly passed -sizes wins (even if it equals the
			// laptop-scale default string); otherwise sweep the paper's sizes.
			sizesSet := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "sizes" {
					sizesSet = true
				}
			})
			sweep := bootstrapSizes
			if !sizesSet {
				sweep = []int{100, 500, 1000, 2000}
			}
			points, err := experiments.RunBootstrapConvergence(cfg, sweep, experiments.ConvergenceOptions{
				JoinConcurrency: *joinconc,
				Shards:          *shards,
			})
			if err != nil {
				return err
			}
			if *benchJSON != "" {
				if err := writeBenchJSON(*benchJSON, cfg, points); err != nil {
					return fmt.Errorf("write -bench-json: %w", err)
				}
				fmt.Printf("wrote %s\n", *benchJSON)
			}
			return nil
		})
	}
	// The adversarial scenario matrix is opt-in only: at the default size it
	// runs fault kind x system cells at N=1000 and takes minutes.
	if selected == "scenarios" {
		run("Adversarial scenario matrix: extended Table 2", func() error {
			kinds, err := parseFaults(*faults)
			if err != nil {
				return err
			}
			sys, err := parseSystems(*systems)
			if err != nil {
				return err
			}
			// An explicitly passed -sizes wins; otherwise run at paper scale.
			sizesSet := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "sizes" {
					sizesSet = true
				}
			})
			sweep := bootstrapSizes
			if !sizesSet {
				sweep = []int{1000}
			}
			cells, err := experiments.RunScenarioMatrix(cfg, experiments.ScenarioOptions{
				Systems: sys,
				Kinds:   kinds,
				Sizes:   sweep,
				Shards:  *shards,
			})
			if err != nil {
				return err
			}
			if *benchJSON != "" {
				if err := writeScenarioJSON(*benchJSON, cfg, cells); err != nil {
					return fmt.Errorf("write -bench-json: %w", err)
				}
				fmt.Printf("wrote %s\n", *benchJSON)
			}
			return nil
		})
	}
	if want("eigen") {
		run("Section 8: expander analysis", func() error {
			experiments.RunExpansion(cfg, 10, []int{100, 250, 500, 1000}, 3)
			return nil
		})
	}
}

// parseFaults resolves the -faults flag into scenario kinds.
func parseFaults(s string) ([]experiments.ScenarioKind, error) {
	if strings.TrimSpace(strings.ToLower(s)) == "all" || strings.TrimSpace(s) == "" {
		return experiments.AllScenarioKinds(), nil
	}
	known := make(map[experiments.ScenarioKind]bool)
	for _, k := range experiments.AllScenarioKinds() {
		known[k] = true
	}
	var out []experiments.ScenarioKind
	for _, part := range strings.Split(s, ",") {
		k := experiments.ScenarioKind(strings.TrimSpace(strings.ToLower(part)))
		if k == "" {
			continue
		}
		if !known[k] {
			return nil, fmt.Errorf("unknown fault kind %q", k)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no fault kinds given")
	}
	return out, nil
}

// parseSystems resolves the -systems flag.
func parseSystems(s string) ([]harness.System, error) {
	known := map[harness.System]bool{
		harness.SystemRapid: true, harness.SystemRapidC: true,
		harness.SystemMemberlist: true, harness.SystemZooKeeper: true,
	}
	var out []harness.System
	for _, part := range strings.Split(s, ",") {
		sys := harness.System(strings.TrimSpace(strings.ToLower(part)))
		if sys == "" {
			continue
		}
		if !known[sys] {
			return nil, fmt.Errorf("unknown system %q", sys)
		}
		out = append(out, sys)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no systems given")
	}
	return out, nil
}

// benchPoint is the machine-readable form of one bootstrap sweep row.
// Latencies are reported in paper-seconds (wall time times the run's time
// scale) so files from runs at different -scale values stay comparable;
// wall_seconds carries the uncompressed duration.
type benchPoint struct {
	N                int     `json:"n"`
	Converged        bool    `json:"converged"`
	ConvergePaperS   float64 `json:"converge_paper_s"`
	JoinP50PaperS    float64 `json:"join_p50_paper_s"`
	JoinP90PaperS    float64 `json:"join_p90_paper_s"`
	JoinP99PaperS    float64 `json:"join_p99_paper_s"`
	WallSeconds      float64 `json:"wall_seconds"`
	Messages         int64   `json:"messages"`
	MsgsPerNode      float64 `json:"msgs_per_node"`
	ShedBatches      int64   `json:"shed_batches"`
	QueueFullSeconds float64 `json:"queue_full_seconds"`
	JoinsTimedOut    int64   `json:"joins_timed_out"`
	MinBatchWindowMs float64 `json:"min_batch_window_ms"`
	MaxBatchWindowMs float64 `json:"max_batch_window_ms"`
}

// benchFile is the envelope written by -bench-json.
type benchFile struct {
	Experiment string       `json:"experiment"`
	TimeScale  float64      `json:"time_scale"`
	Seed       int64        `json:"seed"`
	Points     []benchPoint `json:"points"`
}

// writeBenchJSON records the bootstrap sweep so future changes have a
// machine-readable performance trajectory to diff against.
func writeBenchJSON(path string, cfg experiments.Config, points []experiments.BootstrapConvergencePoint) error {
	out := benchFile{Experiment: "bootstrap", TimeScale: cfg.TimeScale, Seed: cfg.Seed}
	for _, p := range points {
		out.Points = append(out.Points, benchPoint{
			N:                p.N,
			Converged:        p.Converged,
			ConvergePaperS:   p.ConvergenceTime.Seconds() * cfg.TimeScale,
			JoinP50PaperS:    p.JoinP50.Seconds() * cfg.TimeScale,
			JoinP90PaperS:    p.JoinP90.Seconds() * cfg.TimeScale,
			JoinP99PaperS:    p.JoinP99.Seconds() * cfg.TimeScale,
			WallSeconds:      p.ConvergenceTime.Seconds(),
			Messages:         p.Messages,
			MsgsPerNode:      float64(p.Messages) / float64(p.N),
			ShedBatches:      p.ShedBatches,
			QueueFullSeconds: p.QueueFullTime.Seconds(),
			JoinsTimedOut:    p.JoinsTimedOut,
			MinBatchWindowMs: float64(p.MinBatchWindow) / float64(time.Millisecond),
			MaxBatchWindowMs: float64(p.MaxBatchWindow) / float64(time.Millisecond),
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// scenarioPoint is the machine-readable form of one scenario-matrix cell.
// Times are paper-seconds so files from different -scale runs stay
// comparable.
type scenarioPoint struct {
	Fault                string  `json:"fault"`
	System               string  `json:"system"`
	N                    int     `json:"n"`
	Victims              int     `json:"victims"`
	FormationOK          bool    `json:"formation_ok"`
	RemovalExpected      bool    `json:"removal_expected"`
	Detected             bool    `json:"detected"`
	DetectPaperS         float64 `json:"detect_paper_s"`
	Agreed               bool    `json:"agreed"`
	AgreedSize           int     `json:"agreed_size"`
	AgreePaperS          float64 `json:"agree_paper_s"`
	MinReported          int     `json:"min_reported"`
	MaxReported          int     `json:"max_reported"`
	UnnecessaryEvictions int     `json:"unnecessary_evictions"`
	UniqueSizes          int     `json:"unique_sizes"`
	Messages             int64   `json:"messages"`
	MsgsPerNode          float64 `json:"msgs_per_node"`
	Duplicates           int64   `json:"duplicates"`
}

// scenarioFile is the envelope written by -exp scenarios -bench-json.
type scenarioFile struct {
	Experiment string          `json:"experiment"`
	TimeScale  float64         `json:"time_scale"`
	Seed       int64           `json:"seed"`
	Cells      []scenarioPoint `json:"cells"`
}

// writeScenarioJSON records the matrix so the extended Table 2 has a
// machine-readable form to diff across changes.
func writeScenarioJSON(path string, cfg experiments.Config, cells []experiments.ScenarioCell) error {
	out := scenarioFile{Experiment: "scenarios", TimeScale: cfg.TimeScale, Seed: cfg.Seed}
	for _, c := range cells {
		out.Cells = append(out.Cells, scenarioPoint{
			Fault:                string(c.Kind),
			System:               string(c.System),
			N:                    c.N,
			Victims:              c.Victims,
			FormationOK:          c.FormationOK,
			RemovalExpected:      c.RemovalExpected,
			Detected:             c.Detected,
			DetectPaperS:         c.DetectTime.Seconds() * cfg.TimeScale,
			Agreed:               c.Agreed,
			AgreedSize:           c.AgreedSize,
			AgreePaperS:          c.AgreeTime.Seconds() * cfg.TimeScale,
			MinReported:          c.MinReported,
			MaxReported:          c.MaxReported,
			UnnecessaryEvictions: c.UnnecessaryEvictions,
			UniqueSizes:          c.UniqueSizes,
			Messages:             c.Messages,
			MsgsPerNode:          c.MsgsPerNode,
			Duplicates:           c.Duplicates,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if v < 2 {
			return nil, fmt.Errorf("cluster size %d too small", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}
