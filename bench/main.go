// Command bench is the repository's benchmark: four membership workloads,
// four end-to-end metrics, and a traced run that adds per-layer numbers. It
// drives the system through its public functions only and lives in its own
// module, so nothing in the repository depends on it. See README.md.
//
// The driver's contract (BENCHMARK.json) is
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"time"
)

var processStart = time.Now()

// layerBudget is how long the layers pass times each isolated operation.
const layerBudget = time.Second

// benchmarkFile mirrors BENCHMARK.json at the root of the checkout.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		decl
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []decl `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func (b *benchmarkFile) bound(metric string) float64 {
	for _, m := range b.EndToEnd {
		if m.Name == metric {
			return m.Bound
		}
	}
	return 0
}

// options are the command line.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	traceOut    string
	validate    bool
	repeatCheck bool
	file        string
}

// report is everything one run of one workload produced.
type report struct {
	Workload   string             `json:"workload"`
	Why        string             `json:"why"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	N          int                `json:"n"`
	TimeScale  float64            `json:"time_scale"`
	Fleets     int                `json:"fleets"`
	NProc      int                `json:"nproc"`
	GoMaxProcs int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Untraced   *samples           `json:"untraced"`
	TracedRun  *samples           `json:"traced_run,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`

	bootConverge bool
}

func (r *report) correct() bool {
	ok := len(r.Untraced.Violations) == 0
	if r.TracedRun != nil {
		ok = ok && len(r.TracedRun.Violations) == 0
	}
	return ok
}

func (r *report) ops() (attempted, failed int) {
	attempted, failed = r.Untraced.Attempted, r.Untraced.Failed
	if r.TracedRun != nil {
		attempted, failed = attempted+r.TracedRun.Attempted, failed+r.TracedRun.Failed
	}
	return attempted, failed
}

// measure runs one workload. Untraced, the whole window is measured with
// tracing off and yields the end-to-end metrics. Traced, the window is split:
// the first half runs untraced as the reference, the second half with the
// tracing transport, and the difference between them is the tracing overhead;
// layers, the isolated timings of the layers pass, completes the per-layer
// metrics.
func measure(w *workload, o options, maxRounds int, layers map[string]float64) (*report, error) {
	r := &report{
		Workload: w.Name, Why: w.Why, Seed: o.seed, Seconds: o.seconds, Traced: o.trace == 1,
		N: w.N, TimeScale: w.TimeScale, Fleets: w.Fleets, bootConverge: w.BootConverge,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	window := time.Duration(o.seconds * float64(time.Second))
	cfg := runConfig{seed: o.seed, window: window, maxRounds: maxRounds}
	if !r.Traced {
		r.Untraced = run(w, cfg)
		r.EndToEnd = endToEnd(w, r.Untraced)
		return r, nil
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	// Each half gets half the window and half the guaranteed rounds.
	half := *w
	half.MinRounds = (w.MinRounds + 1) / 2
	cfg.window = window / 2
	r.Untraced = run(&half, cfg)
	r.EndToEnd = endToEnd(w, r.Untraced)
	cfg.tr = newTracer()
	r.TracedRun = run(&half, cfg)
	r.PerLayer = perLayer(w, r.Untraced, r.TracedRun, cfg.tr, &before)
	for name, v := range layers {
		r.PerLayer[name] = v
	}
	if o.traceOut != "" {
		if err := cfg.tr.writeSpans(o.traceOut); err != nil {
			return nil, fmt.Errorf("writing %s: %w", o.traceOut, err)
		}
	}
	return r, nil
}

// print writes the report (one JSON line), a table for people on standard
// error, and the driver's result line last.
func (r *report) print(b *benchmarkFile) {
	doc, _ := json.Marshal(r) // plain data: cannot fail
	fmt.Println(string(doc))

	decls, raw := endToEndDecls, r.EndToEnd
	if r.Traced {
		decls, raw = perLayerDecls, r.PerLayer
	}
	for _, d := range decls {
		line := fmt.Sprintf("%-16s %-38s %14.6g %-5s", r.Workload, d.Name, raw[d.Name], d.Unit)
		if !r.Traced {
			line += fmt.Sprintf(" samples=%-3d may worsen by %.0f %%", r.sampleCount(d.Name), 100*b.bound(d.Name))
		}
		fmt.Fprintln(os.Stderr, line)
	}
	for _, s := range []*samples{r.Untraced, r.TracedRun} {
		if s == nil {
			continue
		}
		for _, f := range s.Failures {
			fmt.Fprintln(os.Stderr, "FAILED OPERATION:", f)
		}
		for _, v := range s.Violations {
			fmt.Fprintln(os.Stderr, "CHECK VIOLATED:", v)
		}
	}
	attempted, failed := r.ops()
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), attempted, failed, withUnits(decls, raw)}
	line, _ := json.Marshal(result)
	fmt.Println(string(line))
}

// sampleCount is how many samples stand behind an end-to-end metric.
func (r *report) sampleCount(metric string) int {
	s := r.Untraced
	switch metric {
	case "setup_s":
		return len(s.SetupWallS)
	case "converge_p50_s":
		if r.bootConverge {
			return len(s.Boot)
		}
	}
	return len(s.Rounds)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "the only source of randomness: victims, sub-seeds, node IDs, simnet")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = split the window into an untraced reference and a traced half, and print the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans to this file as JSON")
	flag.BoolVar(&o.validate, "validate", false, "toy-size run of every workload that checks the output against BENCHMARK.json")
	flag.BoolVar(&o.repeatCheck, "repeat-check", false, "run the untraced suite on seeds s and s+1 and fail if a metric differs by more than its bound")
	flag.StringVar(&o.file, "benchmark-json", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.Parse()
	if flag.NArg() > 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> | -validate | -repeat-check")
		os.Exit(2)
	}
	b, err := readBenchmarkFile(o.file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.seconds <= 0 {
		o.seconds = float64(b.RunSeconds)
	}
	switch {
	case o.validate:
		err = validate(b, o)
	case o.repeatCheck:
		err = repeatCheck(b, o)
	default:
		err = runNamed(b, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runNamed runs one workload, or all four in sequence. The layers pass does
// not depend on the workload, so a traced process runs it once, first.
func runNamed(b *benchmarkFile, o options) error {
	list := workloads
	if o.workload != "all" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		list = []workload{*w}
	}
	var layers map[string]float64
	if o.trace == 1 {
		var err error
		if layers, err = runLayers(o.seed, layerBudget); err != nil {
			return err
		}
		firstFleet.Do(func() {}) // the pass is not part of the first fleet's set-up
	}
	bad := 0
	for i := range list {
		r, err := measure(&list[i], o, 0, layers)
		if err != nil {
			return err
		}
		r.print(b)
		if _, failed := r.ops(); failed > 0 || !r.correct() {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload(s) had failed operations or violated checks", bad)
	}
	return nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkDeclarations compares what BENCHMARK.json declares with what the
// program prints: workloads, metric names, units, directions, bounds.
func checkDeclarations(b *benchmarkFile) []string {
	var problems []string
	problem := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	compare := func(what string, declared []decl, code []decl) {
		want := make(map[string]decl)
		for _, d := range code {
			want[d.Name] = d
		}
		for _, d := range declared {
			if !nameRE.MatchString(d.Name) {
				problem("%s: name %q is outside [A-Za-z0-9_.-]", what, d.Name)
			}
			c, ok := want[d.Name]
			switch {
			case !ok:
				problem("%s: BENCHMARK.json declares %q, the program does not print it", what, d.Name)
			case c != d:
				problem("%s: %q is %v in BENCHMARK.json and %v in the program", what, d.Name, d, c)
			}
			delete(want, d.Name)
		}
		for name := range want {
			problem("%s: the program prints %q, BENCHMARK.json does not declare it", what, name)
		}
	}
	declared := make([]decl, 0, len(b.EndToEnd))
	for _, m := range b.EndToEnd {
		declared = append(declared, m.decl)
		if m.Bound <= 0 || m.Bound > 0.25 {
			problem("end_to_end: bound of %q is %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	compare("end_to_end", declared, endToEndDecls)
	compare("per_layer", b.PerLayer, perLayerDecls)
	if len(b.Workloads) != len(workloads) {
		problem("BENCHMARK.json declares %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, bw := range b.Workloads {
		if w := findWorkload(bw.Name); w == nil {
			problem("BENCHMARK.json declares workload %q, the program does not have it", bw.Name)
		} else if w.Why != bw.Why {
			problem("workload %q: the reason in BENCHMARK.json differs from the program's", bw.Name)
		}
	}
	return problems
}

// validate runs every workload at toy size, traced, and checks what the
// program prints against what BENCHMARK.json declares.
func validate(b *benchmarkFile, o options) error {
	problems := checkDeclarations(b)
	problem := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	// One round per fleet and pass; the window only has to be out of the way,
	// and the layers pass only has to produce every name.
	o.trace, o.seconds = 1, 120
	layers, err := runLayers(o.seed, 5*time.Millisecond)
	if err != nil {
		return err
	}
	for i := range workloads {
		toy := workloads[i].toy()
		r, err := measure(&toy, o, 1, layers)
		if err != nil {
			return err
		}
		r.print(b)
		if attempted, failed := r.ops(); failed > 0 || attempted == 0 {
			problem("%s: %d of %d operations failed", toy.Name, failed, attempted)
		}
		if !r.correct() {
			problem("%s: the correctness checker failed", toy.Name)
		}
		for _, set := range []struct {
			decls []decl
			raw   map[string]float64
		}{{endToEndDecls, r.EndToEnd}, {perLayerDecls, r.PerLayer}} {
			names := make(map[string]bool)
			for _, d := range set.decls {
				names[d.Name] = true
				v, ok := set.raw[d.Name]
				if !ok {
					problem("%s: %q is declared and was not computed", toy.Name, d.Name)
				} else if math.IsNaN(v) || math.IsInf(v, 0) {
					problem("%s: %q is %v", toy.Name, d.Name, v)
				}
			}
			for name := range set.raw {
				if !names[name] {
					problem("%s: %q was computed and is not declared", toy.Name, name)
				}
			}
		}
		for _, d := range endToEndDecls {
			if r.EndToEnd[d.Name] <= 0 {
				problem("%s: end-to-end metric %q is %v, want > 0", toy.Name, d.Name, r.EndToEnd[d.Name])
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "INVALID:", p)
		}
		return fmt.Errorf("validate: %d problem(s)", len(problems))
	}
	fmt.Fprintln(os.Stderr, "validate: ok")
	return nil
}

// repeatCheck measures the untraced suite twice on the same tree, on seeds s
// and s+1, and fails if any end-to-end metric of any workload differs between
// the two by more than the bound BENCHMARK.json gives it.
func repeatCheck(b *benchmarkFile, o options) error {
	o.trace = 0
	over := 0
	fmt.Printf("%-16s %-20s %12s %12s %8s %7s\n", "workload", "metric",
		fmt.Sprintf("seed %d", o.seed), fmt.Sprintf("seed %d", o.seed+1), "ratio", "bound")
	for i := range workloads {
		var sets [2]map[string]float64
		for j := range sets {
			oj := o
			oj.seed = o.seed + int64(j)
			r, err := measure(&workloads[i], oj, 0, nil)
			if err != nil {
				return err
			}
			if _, failed := r.ops(); failed > 0 || !r.correct() {
				r.print(b)
				return fmt.Errorf("%s seed %d: failed operations or violated checks", r.Workload, oj.seed)
			}
			sets[j] = r.EndToEnd
		}
		for _, d := range endToEndDecls {
			a, c := sets[0][d.Name], sets[1][d.Name]
			verdict := ""
			if math.Max(ratio(c, a), ratio(a, c))-1 > b.bound(d.Name) {
				verdict = "  OVER"
				over++
			}
			fmt.Printf("%-16s %-20s %12.4f %12.4f %8.3f %6.0f%%%s\n",
				workloads[i].Name, d.Name, a, c, ratio(c, a), 100*b.bound(d.Name), verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("repeat-check: %d metric(s) differ by more than their bound", over)
	}
	return nil
}
