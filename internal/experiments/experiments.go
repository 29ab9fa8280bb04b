// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.1 and §7) on a single machine. Every figure that needs a
// fleet is one script, RunScenarioCell (scenarios.go: form, inject, detect,
// clear, agree), run under a different fault; Figures() declares each as a
// grid of (fault, system, size) cells and RunFigure runs a grid once per seed
// and reports median [q1 q3] per cell. The cross-system grids default to
// laptop sizes — 30–100 members with protocol intervals compressed by a
// configurable time scale — while the "bootstrap" and "scenarios" grids run at
// the paper's true scale (1000–2000 members in one process), which the
// sharded simulated network makes affordable. The analytic runners (Figure
// 11's cut-detection simulation, §8's expander analysis, and the Figure 12/13
// application workloads in workloads.go) launch no comparison fleet and stand
// alone. docs/EXPERIMENTS.md maps each figure and table to the exact command
// that reproduces it and records a captured run.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/cutdetect"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/view"
)

// Config carries the shared experiment parameters.
type Config struct {
	// TimeScale compresses protocol durations (50 = 1 paper-second -> 20 ms).
	TimeScale float64
	// Seed makes runs reproducible.
	Seed int64
	// Out receives the printed tables. If nil, printing is skipped.
	Out io.Writer
	// Clock paces the runners' waits and fault schedules; nil means the wall
	// clock, which is what the sweeps need in practice (they drive real fleets
	// whose protocol timers burn compressed real time).
	Clock simclock.Clock
}

func (c Config) printf(format string, args ...interface{}) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// scaledSeconds converts a wall-clock duration measured in a compressed-time
// run back into "paper seconds" for reporting.
func (c Config) scaledSeconds(d time.Duration) float64 {
	return d.Seconds() * c.TimeScale
}

// scaledAll is scaledSeconds over a slice.
func (c Config) scaledAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = c.scaledSeconds(d)
	}
	return out
}

// clock returns the configured clock, defaulting to the wall clock.
func (c Config) clock() simclock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return simclock.NewReal()
}

// --- Figure 11: K, H, L sensitivity ------------------------------------------

// SensitivityPoint is the conflict rate for one (H, L, F) combination.
type SensitivityPoint struct {
	K, H, L, F   int
	ConflictRate float64
}

// RunCutDetectionSensitivity reproduces the Figure 11 simulation: F processes
// fail simultaneously, their observers' alerts are delivered to every process
// in an independent uniform-random order, and a process "conflicts" when its
// first emitted proposal does not contain all F failed processes. The
// returned conflict rates are percentages.
func RunCutDetectionSensitivity(cfg Config, k int, hs, ls, fs []int, processes, repetitions int) []SensitivityPoint {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []SensitivityPoint
	for _, h := range hs {
		for _, l := range ls {
			if l > h {
				continue
			}
			for _, f := range fs {
				conflicts, total := 0, 0
				for rep := 0; rep < repetitions; rep++ {
					// Build the alert set: F subjects, each reported by K
					// distinct observers (one per ring).
					type alertEvent struct {
						alert   remoting.AlertMessage
						subject node.Endpoint
					}
					var alerts []alertEvent
					for i := 0; i < f; i++ {
						subject := node.Endpoint{
							Addr: node.Addr(fmt.Sprintf("failed-%d:1", i)),
							ID:   node.ID{High: uint64(i + 1), Low: uint64(rep + 1)},
						}
						for ring := 0; ring < k; ring++ {
							alerts = append(alerts, alertEvent{
								alert: remoting.AlertMessage{
									EdgeSrc:     node.Addr(fmt.Sprintf("obs-%d-%d:1", i, ring)),
									EdgeDst:     subject.Addr,
									Status:      remoting.EdgeDown,
									RingNumbers: []int{ring},
								},
								subject: subject,
							})
						}
					}
					for p := 0; p < processes; p++ {
						d := cutdetect.New(k, h, l)
						order := rng.Perm(len(alerts))
						var first []node.Endpoint
						for _, idx := range order {
							ev := alerts[idx]
							got := d.AggregateForProposal(ev.alert, ev.subject, time.Unix(0, 0))
							if len(got) > 0 && first == nil {
								first = got
							}
						}
						total++
						if len(first) != f {
							conflicts++
						}
					}
				}
				out = append(out, SensitivityPoint{
					K: k, H: h, L: l, F: f,
					ConflictRate: 100 * float64(conflicts) / float64(total),
				})
			}
		}
	}
	return out
}

// SensitivitySweep prints the Figure 11 grid.
func SensitivitySweep(cfg Config, k int, processes, repetitions int) []SensitivityPoint {
	hs := []int{6, 7, 8, 9}
	ls := []int{1, 2, 3, 4}
	fs := []int{2, 4, 8, 16}
	points := RunCutDetectionSensitivity(cfg, k, hs, ls, fs, processes, repetitions)
	cfg.printf("== Figure 11: almost-everywhere agreement conflict rate (%%), K=%d ==\n", k)
	cfg.printf("%4s %4s %6s %6s %6s %6s\n", "H", "L", "F=2", "F=4", "F=8", "F=16")
	byHL := make(map[[2]int]map[int]float64)
	for _, p := range points {
		key := [2]int{p.H, p.L}
		if byHL[key] == nil {
			byHL[key] = make(map[int]float64)
		}
		byHL[key][p.F] = p.ConflictRate
	}
	for _, h := range hs {
		for _, l := range ls {
			row, ok := byHL[[2]int{h, l}]
			if !ok {
				continue
			}
			cfg.printf("%4d %4d %6.1f %6.1f %6.1f %6.1f\n", h, l, row[2], row[4], row[8], row[16])
		}
	}
	return points
}

// --- §8: expander analysis ----------------------------------------------------

// ExpansionResult captures the spectral analysis of the K-ring topology.
type ExpansionResult struct {
	N               int
	K               int
	NormalizedL2    float64
	DetectableBetaL float64
}

// RunExpansion builds K-ring views of the given sizes and reports λ/d and the
// detectable failure density for L=3, verifying the §8 claims (λ/d < 0.45 for
// K=10, hence β < 0.25 is detectable with L=3).
func RunExpansion(cfg Config, k int, sizes []int, l int) []ExpansionResult {
	var out []ExpansionResult
	cfg.printf("== Section 8: expander analysis of the %d-ring topology ==\n", k)
	cfg.printf("%8s %4s %12s %16s\n", "N", "K", "lambda/d", "detectable-beta")
	for _, n := range sizes {
		eps := make([]node.Endpoint, n)
		for i := range eps {
			eps[i] = node.Endpoint{
				Addr: node.Addr(fmt.Sprintf("10.%d.%d.%d:9", i/65536, (i/256)%256, i%256)),
				ID:   node.ID{High: uint64(i + 1), Low: uint64(i + 7)},
			}
		}
		v := view.NewWithMembers(k, eps)
		rep, err := graph.Analyze(v, 300, cfg.Seed)
		if err != nil {
			continue
		}
		res := ExpansionResult{
			N:               n,
			K:               k,
			NormalizedL2:    rep.NormalizedL2,
			DetectableBetaL: rep.DetectableBetaL(l),
		}
		out = append(out, res)
		cfg.printf("%8d %4d %12.3f %16.3f\n", res.N, res.K, res.NormalizedL2, res.DetectableBetaL)
	}
	return out
}
