// The figure table: every fleet figure of the evaluation as a grid of
// scenario cells, the grouping of a cell's runs over seeds, and the one table
// printer.

package experiments

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// Figure declares one fleet figure: the -exp names that select it, and the
// grid of cells it runs.
type Figure struct {
	// Names are the -exp values that select the figure (figures drawn from
	// the same runs share one entry); the first names it in the JSON output.
	Names []string
	Title string
	// OptIn figures run minutes, not seconds, and are left out of "all".
	OptIn bool
	ScenarioOptions
	cols []column
}

// Figures returns the figure table in reporting order.
func Figures() []Figure {
	all := []harness.System{harness.SystemZooKeeper, harness.SystemMemberlist, harness.SystemRapidC, harness.SystemRapid}
	comparison := []harness.System{harness.SystemZooKeeper, harness.SystemMemberlist, harness.SystemRapid}
	rapid := []harness.System{harness.SystemRapid}
	kinds := func(k ...harness.Fault) []harness.Fault { return k }
	return []Figure{{
		Names:           []string{"fig5", "fig6", "fig7", "table1"},
		Title:           "Figures 5-7 and Table 1: bootstrap convergence",
		ScenarioOptions: ScenarioOptions{Kinds: kinds(harness.FaultNone), Systems: all, Sizes: []int{30, 60, 100}},
		cols:            viewCols,
	}, {
		Names:           []string{"fig8"},
		Title:           "Figure 8: concurrent crash failures at 10% of members",
		ScenarioOptions: ScenarioOptions{Kinds: kinds(harness.FaultCrash), Systems: comparison, Sizes: []int{60}, VictimPercent: 10},
		cols:            faultCols,
	}, {
		Names:           []string{"fig9"},
		Title:           "Figure 9: flip-flopping one-way (ingress) partitions at 1% of members",
		ScenarioOptions: ScenarioOptions{Kinds: kinds(harness.FaultFlap), Systems: comparison, Sizes: []int{60}},
		cols:            faultCols,
	}, {
		Names:           []string{"fig10", "fig1"},
		Title:           "Figures 1 and 10: 80% egress packet loss at 1% of members",
		ScenarioOptions: ScenarioOptions{Kinds: kinds(harness.FaultEgressLoss), Systems: comparison, Sizes: []int{60}},
		cols:            faultCols,
	}, {
		Names:           []string{"table2"},
		Title:           "Table 2: per-process bandwidth (KB/s) around a crash of 10% of members",
		ScenarioOptions: ScenarioOptions{Kinds: kinds(harness.FaultCrash), Systems: comparison, Sizes: []int{60}, VictimPercent: 10, AccountBandwidth: true},
		cols:            byteCols,
	}, {
		Names:           []string{"bootstrap"},
		Title:           "Figure 5 at paper scale: Rapid bootstrap convergence",
		OptIn:           true,
		ScenarioOptions: ScenarioOptions{Kinds: kinds(harness.FaultNone), Systems: rapid, Sizes: []int{100, 500, 1000, 2000}},
		cols:            joinCols,
	}, {
		Names: []string{"scenarios"},
		Title: "Adversarial scenario matrix (extended Table 2)",
		OptIn: true,
		ScenarioOptions: ScenarioOptions{
			Kinds: kinds(harness.FaultCrash, harness.FaultSlow, harness.FaultOneWay, harness.FaultFlap,
				harness.FaultAsym, harness.FaultWAN, harness.FaultChaos, harness.FaultEgressLoss),
			Systems: []harness.System{harness.SystemRapid, harness.SystemMemberlist, harness.SystemRapidC},
			Sizes:   []int{1000},
		},
		cols: faultCols,
	}}
}

// column is one printed and grouped quantity of a cell. A yes/no column holds
// 0 or 1; NaN means the quantity does not apply to the cell.
type column struct {
	head  string
	prec  int
	yesNo bool
	val   func(c *ScenarioCell) float64
}

func yes(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ifRemoval is v for cells whose fault has victims to evict, NaN otherwise.
func ifRemoval(c *ScenarioCell, v float64) float64 {
	if !c.RemovalExpected {
		return math.NaN()
	}
	return v
}

var (
	colConverge = column{head: "converge(s)", prec: 1, val: func(c *ScenarioCell) float64 { return c.ConvergeS }}
	colDetectS  = column{head: "detect(s)", prec: 1, val: func(c *ScenarioCell) float64 { return ifRemoval(c, c.DetectS) }}
	colSizes    = column{head: "sizes", val: func(c *ScenarioCell) float64 { return float64(c.UniqueSizes) }}

	// viewCols: Figure 5's convergence, Figure 6's per-member percentiles,
	// Table 1's unique sizes.
	viewCols = []column{
		colConverge,
		{head: "p50(s)", prec: 1, val: func(c *ScenarioCell) float64 { return c.ViewP50S }},
		{head: "p90(s)", prec: 1, val: func(c *ScenarioCell) float64 { return c.ViewP90S }},
		{head: "p99(s)", prec: 1, val: func(c *ScenarioCell) float64 { return c.ViewP99S }},
		colSizes,
	}
	// joinCols: the paper-scale bootstrap sweep.
	joinCols = []column{
		colConverge,
		{head: "join-p50(s)", prec: 1, val: func(c *ScenarioCell) float64 { return c.JoinP50S }},
		{head: "join-p90(s)", prec: 1, val: func(c *ScenarioCell) float64 { return c.JoinP90S }},
		{head: "join-p99(s)", prec: 1, val: func(c *ScenarioCell) float64 { return c.JoinP99S }},
		{head: "msgs/node", val: func(c *ScenarioCell) float64 { return float64(c.BootMessages) / float64(c.N) }},
		{head: "shed", val: func(c *ScenarioCell) float64 { return float64(c.ShedBatches) }},
		{head: "timed-out", val: func(c *ScenarioCell) float64 { return float64(c.JoinsTimedOut) }},
		{head: "max-window(s)", prec: 2, val: func(c *ScenarioCell) float64 { return c.MaxBatchWindowS }},
	}
	// faultCols: Figures 1 and 8-10 and the matrix. "unnec" is the healthy
	// members evicted; "sizes" counts from the injection.
	faultCols = []column{
		{head: "detect", yesNo: true, val: func(c *ScenarioCell) float64 { return ifRemoval(c, yes(c.Detected)) }},
		colDetectS,
		{head: "agreed", yesNo: true, val: func(c *ScenarioCell) float64 { return yes(c.Agreed) }},
		{head: "size", val: func(c *ScenarioCell) float64 { return float64(c.AgreedSize) }},
		{head: "agree(s)", prec: 1, val: func(c *ScenarioCell) float64 { return c.AgreeS }},
		{head: "unnec", val: func(c *ScenarioCell) float64 { return float64(c.UnnecessaryEvictions) }},
		{head: "msgs/node", val: func(c *ScenarioCell) float64 { return float64(c.Messages) / float64(c.N) }},
		colSizes,
		{head: "dups", val: func(c *ScenarioCell) float64 { return float64(c.Duplicates) }},
	}
	// byteCols: Table 2, received and transmitted.
	byteCols = []column{
		colDetectS,
		{head: "recv-mean", prec: 2, val: func(c *ScenarioCell) float64 { return c.Received.MeanKBps }},
		{head: "sent-mean", prec: 2, val: func(c *ScenarioCell) float64 { return c.Sent.MeanKBps }},
		{head: "recv-p99", prec: 2, val: func(c *ScenarioCell) float64 { return c.Received.P99KBps }},
		{head: "sent-p99", prec: 2, val: func(c *ScenarioCell) float64 { return c.Sent.P99KBps }},
		{head: "recv-max", prec: 2, val: func(c *ScenarioCell) float64 { return c.Received.MaxKBps }},
		{head: "sent-max", prec: 2, val: func(c *ScenarioCell) float64 { return c.Sent.MaxKBps }},
	}
)

// Spread is the median and quartiles of one column over a cell's runs
// (nearest rank, so with three runs the quartiles are the extremes).
type Spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Row groups the runs of one (fault, system, N) cell over the seeds. Only
// runs whose fleet formed enter Spread and Yes, both keyed by column heading;
// a column that applies to none of them is absent.
type Row struct {
	Fault  harness.Fault  `json:"fault"`
	System harness.System `json:"system"`
	N      int            `json:"n"`
	Runs   int            `json:"runs"`
	Formed int            `json:"formed"`
	// Spread holds each numeric column; Yes counts, for each yes/no column,
	// the formed runs that said yes.
	Spread map[string]Spread `json:"spread"`
	Yes    map[string]int    `json:"yes"`
}

// group summarises the runs of one cell and renders the row's columns: a
// single run prints bare values, several print "median [q1 q3]" and "k/n".
func group(runs []ScenarioCell, cols []column) (Row, []string) {
	row := Row{
		Fault: runs[0].Fault, System: runs[0].System, N: runs[0].N, Runs: len(runs),
		Spread: map[string]Spread{}, Yes: map[string]int{},
	}
	for _, c := range runs {
		if c.FormationOK {
			row.Formed++
		}
	}
	text := []string{string(row.Fault), string(row.System), fmt.Sprint(row.N), fmt.Sprintf("%d/%d", row.Formed, row.Runs)}
	if row.Runs == 1 {
		text[3] = fmt.Sprint(row.Formed == 1)
	}
	for _, col := range cols {
		var vals []float64
		for i := range runs {
			if v := col.val(&runs[i]); runs[i].FormationOK && !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		switch {
		case len(vals) == 0:
			text = append(text, "-")
		case col.yesNo:
			k := 0
			for _, v := range vals {
				k += int(v)
			}
			row.Yes[col.head] = k
			if row.Runs == 1 {
				text = append(text, fmt.Sprint(k == 1))
			} else {
				text = append(text, fmt.Sprintf("%d/%d", k, len(vals)))
			}
		default:
			s := Spread{Median: metrics.Percentile(vals, 50), Q1: metrics.Percentile(vals, 25), Q3: metrics.Percentile(vals, 75)}
			row.Spread[col.head] = s
			if row.Runs == 1 {
				text = append(text, fmt.Sprintf("%.*f", col.prec, s.Median))
			} else {
				text = append(text, fmt.Sprintf("%.*f [%.*f %.*f]", col.prec, s.Median, col.prec, s.Q1, col.prec, s.Q3))
			}
		}
	}
	return row, text
}

// FigureResult is one figure's outcome: every run, and one grouped row per
// cell. cmd/rapid-bench writes a list of these as its -json file.
type FigureResult struct {
	Name  string         `json:"name"`
	Title string         `json:"title"`
	Cells []ScenarioCell `json:"cells"`
	Rows  []Row          `json:"rows"`
}

// RunFigure runs every cell of the figure's grid once per seed and prints
// one grouped row per cell as it completes.
func RunFigure(cfg Config, fig Figure, seeds []int64) (FigureResult, error) {
	res := FigureResult{Name: fig.Names[0], Title: fig.Title}
	heads := []string{"fault", "system", "N", "formed"}
	for _, col := range fig.cols {
		heads = append(heads, col.head)
	}
	line := func(text []string) {
		var b strings.Builder
		for i, s := range text {
			w := len(heads[i]) + 2
			switch {
			case i < 2:
				w = -15 // fault and system names, left-aligned
			case i > 3 && len(seeds) > 1:
				w = max(w, 20) // room for "median [q1 q3]"
			}
			fmt.Fprintf(&b, "%*s ", w, s)
		}
		cfg.printf("%s\n", strings.TrimRight(b.String(), " "))
	}
	cfg.printf("== %s ==\n", fig.Title)
	line(heads)
	for _, n := range fig.Sizes {
		for _, kind := range fig.Kinds {
			for _, system := range fig.Systems {
				var runs []ScenarioCell
				for _, seed := range seeds {
					run := cfg
					run.Seed = seed
					cell, err := RunScenarioCell(run, system, kind, n, fig.ScenarioOptions)
					if err != nil {
						return res, err
					}
					runs = append(runs, cell)
					// Return the stopped fleet's memory to the OS before the
					// next cell boots: a paper-scale fleet leaves hundreds of
					// MB of fragmented spans, and the allocation slowdown from
					// reusing them is enough to tip the next run's
					// timing-sensitive dynamics into churn (plain runtime.GC
					// was not sufficient).
					debug.FreeOSMemory()
				}
				row, text := group(runs, fig.cols)
				res.Cells = append(res.Cells, runs...)
				res.Rows = append(res.Rows, row)
				line(text)
			}
		}
	}
	return res, nil
}
