// Package experiments contains the runners that regenerate every table and
// figure of the paper's evaluation (§2.1 and §7) on a single machine. The
// cross-system comparisons (BootstrapSweep, CrashSweep, FaultSweep,
// BandwidthSweep) run scaled down — 30–100 members with protocol intervals
// compressed by a configurable time scale — while RunBootstrapConvergence
// reruns the Figure 5 bootstrap workload for Rapid at the paper's true scale
// (1000–2000 members in one process), which the sharded simulated network
// makes affordable. The quantities reported per experiment are the same ones
// the paper plots; docs/EXPERIMENTS.md maps each figure and table to the
// exact command that reproduces it and records a captured run.
//
// Every runner takes a Config (time scale, seed, output writer) and builds
// its fleets through package harness, so experiments stay declarative: pick
// a system, a size, a fault, and read back convergence times, join-latency
// percentiles, message counts, or bandwidth summaries.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/cutdetect"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/metrics"
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

// DefaultConfig returns the configuration used by cmd/rapid-bench.
func DefaultConfig() Config {
	return Config{TimeScale: 50, Seed: 1}
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

// clock returns the configured clock, defaulting to the wall clock.
func (c Config) clock() simclock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return simclock.NewReal()
}

// --- Figures 5, 6, 7 and Table 1: bootstrap ---------------------------------

// BootstrapResult captures one (system, N) bootstrap run.
type BootstrapResult struct {
	System          harness.System
	N               int
	Converged       bool
	ConvergenceTime time.Duration
	// PerNodeLatency is each member's time-to-full-view (Figure 6's ECDF).
	PerNodeLatency []time.Duration
	// UniqueSizes is the number of distinct cluster sizes reported (Table 1).
	UniqueSizes int
}

// RunBootstrap boots a fleet of the given system and size and measures the
// time for every member to report the full cluster size (Figure 5), the
// per-node latency distribution (Figure 6), and the number of unique sizes
// reported along the way (Table 1, Figure 7).
func RunBootstrap(cfg Config, system harness.System, n int) (BootstrapResult, error) {
	fleet, err := harness.Launch(harness.Options{
		System:         system,
		N:              n,
		TimeScale:      cfg.TimeScale,
		Seed:           cfg.Seed,
		SampleInterval: 10 * time.Millisecond,
	})
	if err != nil {
		return BootstrapResult{}, err
	}
	defer fleet.Stop()
	elapsed, ok := fleet.WaitForSize(n, 120*time.Second)
	// Let the sampler capture the converged state before reading series.
	cfg.clock().Sleep(50 * time.Millisecond)
	res := BootstrapResult{
		System:          system,
		N:               n,
		Converged:       ok,
		ConvergenceTime: elapsed,
		PerNodeLatency:  fleet.PerAgentConvergence(n),
		UniqueSizes:     fleet.UniqueReportedSizes(nil),
	}
	sort.Slice(res.PerNodeLatency, func(i, j int) bool { return res.PerNodeLatency[i] < res.PerNodeLatency[j] })
	return res, nil
}

// BootstrapSweep runs RunBootstrap for every system and size and prints the
// Figure 5 table, the Figure 6 percentiles and the Table 1 unique-size counts.
func BootstrapSweep(cfg Config, systems []harness.System, sizes []int) ([]BootstrapResult, error) {
	var results []BootstrapResult
	cfg.printf("== Figure 5 / Figure 6 / Figure 7 / Table 1: bootstrap convergence ==\n")
	cfg.printf("%-12s %6s %14s %12s %12s %12s %8s\n",
		"system", "N", "converge(s)", "p50(s)", "p90(s)", "p99(s)", "sizes")
	for _, n := range sizes {
		for _, system := range systems {
			r, err := RunBootstrap(cfg, system, n)
			if err != nil {
				return results, fmt.Errorf("bootstrap %s N=%d: %w", system, n, err)
			}
			results = append(results, r)
			lat := make([]float64, len(r.PerNodeLatency))
			for i, d := range r.PerNodeLatency {
				lat[i] = cfg.scaledSeconds(d)
			}
			cfg.printf("%-12s %6d %14.1f %12.1f %12.1f %12.1f %8d\n",
				r.System, r.N, cfg.scaledSeconds(r.ConvergenceTime),
				metrics.Percentile(lat, 50), metrics.Percentile(lat, 90), metrics.Percentile(lat, 99),
				r.UniqueSizes)
		}
	}
	return results, nil
}

// --- Figure 5 at paper scale: 1000+ node bootstrap convergence ---------------

// BootstrapConvergencePoint captures one cluster size of the paper-scale
// Figure 5 sweep.
type BootstrapConvergencePoint struct {
	N               int
	Converged       bool
	ConvergenceTime time.Duration
	// JoinP50/P90/P99 are percentiles of each member's join-call latency
	// (the time from issuing the two-phase join until the admitting view
	// change's response arrived), which is the per-node quantity Figure 5
	// plots.
	JoinP50, JoinP90, JoinP99 time.Duration
	// Messages is the total simnet send count for the run, a proxy for the
	// dissemination cost of the bootstrap storm.
	Messages int64
	// ShedBatches sums overload shedding across the fleet: non-zero means
	// some member's event queue filled up during the run.
	ShedBatches int64
	// QueueFullTime sums the time producers spent blocked on full event
	// queues across the fleet (the backpressure shedding cannot remove).
	QueueFullTime time.Duration
	// JoinsTimedOut sums, across the fleet, the phase-2 join requests that
	// ran out JoinPhase2Timeout. The join pipeline is redirect-driven, so a
	// healthy bootstrap reads 0.
	JoinsTimedOut int64
	// MinBatchWindow/MaxBatchWindow bracket the adaptive flush windows the
	// fleet's members ended the run with; both must stay within the
	// configured floor/ceiling.
	MinBatchWindow time.Duration
	MaxBatchWindow time.Duration
}

// ConvergenceOptions tune the paper-scale bootstrap sweep.
type ConvergenceOptions struct {
	// JoinConcurrency bounds simultaneous join calls (0 = all at once, the
	// paper's bootstrap storm).
	JoinConcurrency int
	// Shards overrides the simnet delivery shard count (0 = default).
	Shards int
	// Timeout bounds each run's convergence wait (0 = 300s).
	Timeout time.Duration
}

// RunBootstrapConvergence reruns the Figure 5 bootstrap workload at the
// paper's true scale for Rapid fleets: for each N it boots a fleet with every
// member joining through one seed, waits until all members report the full
// size, and reports join-latency percentiles plus the total message cost.
// Unlike BootstrapSweep (which compares systems at laptop scale), this sweep
// exists to exercise N in {100, 500, 1000, 2000} in one process, which the
// sharded simnet makes affordable.
func RunBootstrapConvergence(cfg Config, sizes []int, opts ConvergenceOptions) ([]BootstrapConvergencePoint, error) {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 300 * time.Second
	}
	cfg.printf("== Figure 5 at paper scale: Rapid bootstrap convergence ==\n")
	cfg.printf("%6s %14s %12s %12s %12s %14s %8s %12s\n",
		"N", "converge(s)", "join-p50(s)", "join-p90(s)", "join-p99(s)", "msgs/node", "shed", "max-window")
	var out []BootstrapConvergencePoint
	for _, n := range sizes {
		// Bootstrap storms at large N admit joiners in waves; give joiners
		// enough attempts that the last wave still has budget.
		attempts := 10
		if n/25 > attempts {
			attempts = n / 25
		}
		fleet, err := harness.Launch(harness.Options{
			System:          harness.SystemRapid,
			N:               n,
			TimeScale:       cfg.TimeScale,
			Seed:            cfg.Seed,
			SampleInterval:  50 * time.Millisecond,
			JoinConcurrency: opts.JoinConcurrency,
			SimnetShards:    opts.Shards,
			JoinAttempts:    attempts,
		})
		if err != nil {
			return out, fmt.Errorf("bootstrap convergence N=%d: %w", n, err)
		}
		elapsed, ok := fleet.WaitForSize(n, timeout)
		point := BootstrapConvergencePoint{
			N:               n,
			Converged:       ok,
			ConvergenceTime: elapsed,
			Messages:        fleet.Net.TotalMessages(),
		}
		for i, st := range fleet.RapidStats() {
			point.ShedBatches += st.ShedBatches
			point.QueueFullTime += st.QueueFullTime
			point.JoinsTimedOut += st.JoinsTimedOut
			if st.BatchWindow > point.MaxBatchWindow {
				point.MaxBatchWindow = st.BatchWindow
			}
			if i == 0 || st.BatchWindow < point.MinBatchWindow {
				point.MinBatchWindow = st.BatchWindow
			}
		}
		lats := make([]float64, 0, n)
		for _, d := range fleet.JoinLatencies() {
			lats = append(lats, float64(d))
		}
		point.JoinP50 = time.Duration(metrics.Percentile(lats, 50))
		point.JoinP90 = time.Duration(metrics.Percentile(lats, 90))
		point.JoinP99 = time.Duration(metrics.Percentile(lats, 99))
		fleet.Stop()
		// Return the stopped fleet's memory to the OS before the next
		// (larger) size boots: a paper-scale fleet leaves hundreds of MB of
		// fragmented spans, and allocation slowdown from reusing them is
		// enough to tip the next run's timing-sensitive bootstrap dynamics
		// into churn — the dominant source of run-to-run variance in the
		// one-command sweep (plain runtime.GC was not sufficient).
		debug.FreeOSMemory()
		out = append(out, point)
		cfg.printf("%6d %14.1f %12.1f %12.1f %12.1f %14.0f %8d %12s\n",
			point.N, cfg.scaledSeconds(point.ConvergenceTime),
			cfg.scaledSeconds(point.JoinP50), cfg.scaledSeconds(point.JoinP90),
			cfg.scaledSeconds(point.JoinP99), float64(point.Messages)/float64(n),
			point.ShedBatches, point.MaxBatchWindow)
		if !ok {
			return out, fmt.Errorf("bootstrap convergence N=%d: did not converge within %s", n, timeout)
		}
	}
	return out, nil
}

// --- Figure 8: concurrent crash failures ------------------------------------

// CrashResult captures one crash-failure run.
type CrashResult struct {
	System         harness.System
	N, Failures    int
	Recovered      bool
	RecoveryTime   time.Duration
	UniqueSizes    int
	ViewChangesMax int
}

// RunCrash boots a fleet, waits for it to stabilise, crashes `failures`
// members simultaneously, and measures how long the survivors take to all
// report N-failures, plus how many intermediate sizes were observed.
func RunCrash(cfg Config, system harness.System, n, failures int) (CrashResult, error) {
	fleet, err := harness.Launch(harness.Options{
		System:         system,
		N:              n,
		TimeScale:      cfg.TimeScale,
		Seed:           cfg.Seed,
		SampleInterval: 10 * time.Millisecond,
	})
	if err != nil {
		return CrashResult{}, err
	}
	defer fleet.Stop()
	if _, ok := fleet.WaitForSize(n, 120*time.Second); !ok {
		return CrashResult{System: system, N: n, Failures: failures}, fmt.Errorf("cluster did not stabilise before the crash")
	}
	agents := fleet.Agents()
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(len(agents))
	excluded := make(map[node.Addr]bool, failures)
	var victims []node.Addr
	for _, idx := range perm {
		if len(victims) == failures {
			break
		}
		victims = append(victims, agents[idx].Addr())
		excluded[agents[idx].Addr()] = true
	}
	// Reset the "unique sizes" baseline by only counting from now on: record
	// the pre-crash sample count per agent is unnecessary — Table/Figure 8
	// looks at sizes observed around the crash, so we simply count distinct
	// sizes over the whole run, which is dominated by the transition.
	fleet.Crash(victims...)
	elapsed, ok := fleet.WaitForSizeExcluding(n-failures, excluded, 120*time.Second)
	cfg.clock().Sleep(50 * time.Millisecond)
	res := CrashResult{
		System:       system,
		N:            n,
		Failures:     failures,
		Recovered:    ok,
		RecoveryTime: elapsed,
		UniqueSizes:  fleet.UniqueReportedSizes(excluded),
	}
	return res, nil
}

// CrashSweep runs RunCrash for each system and prints the Figure 8 table.
func CrashSweep(cfg Config, systems []harness.System, n, failures int) ([]CrashResult, error) {
	cfg.printf("== Figure 8: %d concurrent crash failures (N=%d) ==\n", failures, n)
	cfg.printf("%-12s %12s %12s %10s\n", "system", "recover(s)", "recovered", "sizes")
	var out []CrashResult
	for _, system := range systems {
		r, err := RunCrash(cfg, system, n, failures)
		if err != nil {
			return out, fmt.Errorf("crash %s: %w", system, err)
		}
		out = append(out, r)
		cfg.printf("%-12s %12.1f %12v %10d\n", r.System, cfg.scaledSeconds(r.RecoveryTime), r.Recovered, r.UniqueSizes)
	}
	return out, nil
}

// --- Figures 1, 9, 10: asymmetric network failures --------------------------

// FaultKind selects which network fault to inject.
type FaultKind string

// The fault scenarios of the paper's robustness experiments.
const (
	// FaultIngressFlipFlop: victims drop all received packets for a window,
	// recover for a window, and repeat (Figure 9).
	//
	// Run this experiment with N >> K only. The paper's stability argument
	// assumes cluster size well above the ring count; at N close to K (e.g.
	// N=20, K=10) a flip-flop-partitioned victim observes a healthy subject
	// on >= L rings, so the victim's own noise REMOVE alerts can push that
	// healthy subject past the low watermark, reinforcement echoes pile on,
	// and the healthy subject is evicted — observed as a ~2/12 flake in
	// earlier PRs. With N >= 60 a single victim holds fewer than L of any
	// subject's K observer slots and the noise cannot cross the watermark.
	FaultIngressFlipFlop FaultKind = "ingress-flipflop"
	// FaultEgressLoss80: victims drop 80% of their outgoing packets
	// (Figure 10; Figure 1 is the same fault applied to the baselines).
	FaultEgressLoss80 FaultKind = "egress-loss-80"
)

// FaultResult captures one asymmetric-fault run.
type FaultResult struct {
	System          harness.System
	Fault           FaultKind
	N, Victims      int
	FaultyRemoved   bool
	RemovalTime     time.Duration
	HealthyRetained bool
	UniqueSizes     int
}

// RunFault boots a fleet, injects the asymmetric fault at 1% of members (at
// least one), and checks the paper's two stability criteria: the faulty
// processes are removed, and no healthy process is removed.
func RunFault(cfg Config, system harness.System, fault FaultKind, n int) (FaultResult, error) {
	fleet, err := harness.Launch(harness.Options{
		System:         system,
		N:              n,
		TimeScale:      cfg.TimeScale,
		Seed:           cfg.Seed,
		SampleInterval: 10 * time.Millisecond,
	})
	if err != nil {
		return FaultResult{}, err
	}
	defer fleet.Stop()
	if _, ok := fleet.WaitForSize(n, 120*time.Second); !ok {
		return FaultResult{System: system, Fault: fault, N: n}, fmt.Errorf("cluster did not stabilise before the fault")
	}

	victims := n / 100
	if victims < 1 {
		victims = 1
	}
	agents := fleet.Agents()
	excluded := make(map[node.Addr]bool, victims)
	var victimAddrs []node.Addr
	for i := 0; i < victims; i++ {
		a := agents[len(agents)-1-i].Addr()
		victimAddrs = append(victimAddrs, a)
		excluded[a] = true
	}

	stopFault := make(chan struct{})
	switch fault {
	case FaultIngressFlipFlop:
		window := harness.Scale(20*time.Second, cfg.TimeScale)
		go func() {
			on := true
			for {
				for _, v := range victimAddrs {
					if on {
						fleet.Net.SetIngressLoss(v, 1.0)
					} else {
						fleet.Net.SetIngressLoss(v, 0)
					}
				}
				on = !on
				select {
				case <-stopFault:
					return
				case <-cfg.clock().After(window):
				}
			}
		}()
	case FaultEgressLoss80:
		for _, v := range victimAddrs {
			fleet.Net.SetEgressLoss(v, 0.8)
		}
	default:
		return FaultResult{}, fmt.Errorf("unknown fault %q", fault)
	}

	removalTime, removed := fleet.WaitForSizeExcluding(n-victims, excluded, 90*time.Second)
	close(stopFault)

	// Stability check: every healthy member is still in every healthy view.
	healthyRetained := true
	for _, a := range fleet.Agents() {
		if excluded[a.Addr()] {
			continue
		}
		if a.ReportedSize() < n-victims {
			healthyRetained = false
			break
		}
	}
	res := FaultResult{
		System:          system,
		Fault:           fault,
		N:               n,
		Victims:         victims,
		FaultyRemoved:   removed,
		RemovalTime:     removalTime,
		HealthyRetained: healthyRetained,
		UniqueSizes:     fleet.UniqueReportedSizes(excluded),
	}
	return res, nil
}

// FaultSweep runs RunFault across systems and prints the Figure 1/9/10 table.
func FaultSweep(cfg Config, systems []harness.System, fault FaultKind, n int) ([]FaultResult, error) {
	cfg.printf("== %s on 1%% of members (N=%d) ==\n", fault, n)
	cfg.printf("%-12s %16s %12s %18s %8s\n", "system", "faulty-removed", "remove(s)", "healthy-retained", "sizes")
	var out []FaultResult
	for _, system := range systems {
		r, err := RunFault(cfg, system, fault, n)
		if err != nil {
			return out, fmt.Errorf("fault %s on %s: %w", fault, system, err)
		}
		out = append(out, r)
		cfg.printf("%-12s %16v %12.1f %18v %8d\n",
			r.System, r.FaultyRemoved, cfg.scaledSeconds(r.RemovalTime), r.HealthyRetained, r.UniqueSizes)
	}
	return out, nil
}

// --- Table 2: network bandwidth ----------------------------------------------

// BandwidthResult captures the Table 2 aggregates for one system.
type BandwidthResult struct {
	System   harness.System
	Received metrics.BandwidthSummary
	Sent     metrics.BandwidthSummary
}

// RunBandwidth repeats the crash experiment with byte accounting enabled and
// reports the per-process mean / p99 / max KB/s in each direction.
func RunBandwidth(cfg Config, system harness.System, n, failures int) (BandwidthResult, error) {
	fleet, err := harness.Launch(harness.Options{
		System:           system,
		N:                n,
		TimeScale:        cfg.TimeScale,
		Seed:             cfg.Seed,
		SampleInterval:   10 * time.Millisecond,
		AccountBandwidth: true,
	})
	if err != nil {
		return BandwidthResult{}, err
	}
	defer fleet.Stop()
	if _, ok := fleet.WaitForSize(n, 120*time.Second); !ok {
		return BandwidthResult{System: system}, fmt.Errorf("cluster did not stabilise")
	}
	agents := fleet.Agents()
	var victims []node.Addr
	for i := 0; i < failures && i < len(agents); i++ {
		victims = append(victims, agents[len(agents)-1-i].Addr())
	}
	excluded := make(map[node.Addr]bool)
	for _, v := range victims {
		excluded[v] = true
	}
	fleet.Crash(victims...)
	fleet.WaitForSizeExcluding(n-len(victims), excluded, 90*time.Second)
	// Let steady-state traffic accumulate for a short window.
	cfg.clock().Sleep(harness.Scale(10*time.Second, cfg.TimeScale))

	var recvRates, sentRates []float64
	for _, a := range agents {
		if excluded[a.Addr()] {
			continue
		}
		rec := fleet.Net.Bandwidth(a.Addr())
		recvRates = append(recvRates, rec.ReceivedRates()...)
		sentRates = append(sentRates, rec.SentRates()...)
	}
	return BandwidthResult{
		System:   system,
		Received: metrics.Summarize(recvRates),
		Sent:     metrics.Summarize(sentRates),
	}, nil
}

// BandwidthSweep prints the Table 2 comparison.
func BandwidthSweep(cfg Config, systems []harness.System, n, failures int) ([]BandwidthResult, error) {
	cfg.printf("== Table 2: per-process bandwidth (KB/s, received / transmitted) ==\n")
	cfg.printf("%-12s %18s %18s %18s\n", "system", "mean", "p99", "max")
	var out []BandwidthResult
	for _, system := range systems {
		r, err := RunBandwidth(cfg, system, n, failures)
		if err != nil {
			return out, fmt.Errorf("bandwidth %s: %w", system, err)
		}
		out = append(out, r)
		cfg.printf("%-12s %9.2f/%-9.2f %9.2f/%-9.2f %9.2f/%-9.2f\n", r.System,
			r.Received.MeanKBps, r.Sent.MeanKBps,
			r.Received.P99KBps, r.Sent.P99KBps,
			r.Received.MaxKBps, r.Sent.MaxKBps)
	}
	return out, nil
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
