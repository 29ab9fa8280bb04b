// Command rapid-bench regenerates the paper's evaluation tables and figures
// (§2.1, §7, §8) using the in-process experiment harness. Every figure that
// needs a fleet is a row of experiments.Figures(): a grid of (fault, system,
// size) scenario cells, each run once per seed and printed as one row —
// bare values for a single seed, median [q1 q3] and k/n for several.
//
// Usage:
//
//	rapid-bench -exp all
//	rapid-bench -exp fig5 -sizes 30,60,100
//	rapid-bench -exp fig8 -sizes 40 -seeds 1,2,3
//	rapid-bench -exp fig11
//	rapid-bench -exp fig12 -scale 100
//	rapid-bench -exp bootstrap -sizes 100,500,1000 -scale 10
//	rapid-bench -exp scenarios -sizes 200 -seeds 1,2,3 -json matrix.json
//	rapid-bench -exp scenarios -sizes 60 -faults slow,flap -systems rapid
//
// Experiments: fig5 (= fig6, fig7, table1: same runs), fig8, fig9, fig10
// (= fig1), table2, fig11, fig12, fig13, eigen, all, plus two that must be
// selected explicitly because they run minutes, not seconds, and are
// therefore not part of "all": bootstrap — the paper-scale (1000+ node)
// Figure 5 rerun — and scenarios — the adversarial scenario matrix (fault
// kind x system x N extended Table 2, with gray failures: slow-but-alive
// nodes, one-way links, flapping, asymmetric partitions, WAN latency
// classes, duplicate/reorder delivery). A fleet that fails to form is a
// recorded cell (formed = false), not an abort.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
)

// figuresFile is what -json writes: every run of every fleet figure, plus
// one grouped row per cell.
type figuresFile struct {
	TimeScale float64                    `json:"time_scale"`
	Seeds     []int64                    `json:"seeds"`
	Figures   []experiments.FigureResult `json:"figures"`
}

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment to run (fig1,fig5,fig6,fig7,table1,fig8,fig9,fig10,table2,fig11,fig12,fig13,eigen,all,bootstrap,scenarios)")
		scale    = flag.Float64("scale", 50, "time compression factor (50 = 1 paper-second -> 20ms)")
		sizes    = flag.String("sizes", "", "comma-separated cluster sizes for the fleet figures (default per figure: fig5 30,60,100; fig8-10 and table2 60; bootstrap 100,500,1000,2000; scenarios 1000)")
		seeds    = flag.String("seeds", "1", "comma-separated random seeds; every cell runs once per seed and reports median [q1 q3]")
		shards   = flag.Int("shards", 0, "fleet figures: simnet delivery shards (0 = default); raise with available cores for 1000+ node runs")
		jsonPath = flag.String("json", "", "write every fleet figure's runs and grouped rows as JSON to this path")
		faults   = flag.String("faults", "", "scenarios experiment only: comma-separated fault kinds (crash,slow,oneway-links,flap,asym-partition,wan-zones,dup-reorder,egress-loss-80; default all eight)")
		systems  = flag.String("systems", "", "fleet figures: comma-separated systems (rapid,memberlist,rapid-c,zookeeper; default per figure)")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(2)
	}
	sizeList, err := parseList(*sizes, func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err == nil && v < 2 {
			err = fmt.Errorf("cluster size %d too small", v)
		}
		return v, err
	})
	if err != nil {
		fail("invalid -sizes: %v", err)
	}
	seedList, err := parseList(*seeds, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
	if err == nil && len(seedList) == 0 {
		err = fmt.Errorf("no seeds given")
	}
	if err != nil {
		fail("invalid -seeds: %v", err)
	}
	faultList, err := parseList(*faults, oneOf(harness.Faults()))
	if err != nil {
		fail("invalid -faults: %v", err)
	}
	systemList, err := parseList(*systems, oneOf([]harness.System{
		harness.SystemRapid, harness.SystemRapidC, harness.SystemMemberlist, harness.SystemZooKeeper,
	}))
	if err != nil {
		fail("invalid -systems: %v", err)
	}

	cfg := experiments.Config{TimeScale: *scale, Seed: seedList[0], Out: os.Stdout}
	out := figuresFile{TimeScale: *scale, Seeds: seedList}
	selected := strings.ToLower(*expName)
	ran := 0
	run := func(name string, fn func() error) {
		ran++
		start := time.Now()
		fmt.Printf("\n--- %s ---\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %s)\n", name, time.Since(start).Round(time.Millisecond))
	}

	for _, fig := range experiments.Figures() {
		if !slices.Contains(fig.Names, selected) && (selected != "all" || fig.OptIn) {
			continue
		}
		if len(sizeList) > 0 {
			fig.Sizes = sizeList
		}
		if len(systemList) > 0 {
			fig.Systems = systemList
		}
		if len(faultList) > 0 && fig.Names[0] == "scenarios" {
			fig.Kinds = faultList
		}
		fig.Shards = *shards
		run(fig.Title, func() error {
			res, err := experiments.RunFigure(cfg, fig, seedList)
			out.Figures = append(out.Figures, res)
			return err
		})
	}
	// The analytic figures launch no comparison fleet and take one seed.
	for _, a := range []struct {
		name, title string
		fn          func() error
	}{
		{"fig11", "Figure 11: K, H, L sensitivity", func() error {
			experiments.SensitivitySweep(cfg, 10, 100, 20)
			return nil
		}},
		{"fig12", "Figure 12: transactional platform", func() error {
			_, err := experiments.RunTransactionWorkload(cfg, 12, 3*time.Second)
			return err
		}},
		{"fig13", "Figure 13: service discovery", func() error {
			_, err := experiments.RunServiceDiscovery(cfg, 20, 5, 3*time.Second)
			return err
		}},
		{"eigen", "Section 8: expander analysis", func() error {
			experiments.RunExpansion(cfg, 10, []int{100, 250, 500, 1000}, 3)
			return nil
		}},
	} {
		if selected == "all" || selected == a.name {
			run(a.title, a.fn)
		}
	}
	if ran == 0 {
		fail("unknown -exp %q", *expName)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write -json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// parseList splits a comma-separated flag value; an empty value (or "all")
// is an empty list, which selects the per-figure default.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		part = strings.ToLower(strings.TrimSpace(part))
		if part == "" || part == "all" {
			continue
		}
		v, err := parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// oneOf parses a name that must be in the known vocabulary.
func oneOf[T ~string](known []T) func(string) (T, error) {
	return func(s string) (T, error) {
		if !slices.Contains(known, T(s)) {
			return "", fmt.Errorf("unknown name %q (known: %v)", s, known)
		}
		return T(s), nil
	}
}
