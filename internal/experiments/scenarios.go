// The scenario cell: the one script every fleet figure of the evaluation is a
// view over — form the cluster, inject a fault, measure detection, clear the
// fault, require the live members to agree on one membership again — run
// against Rapid, the SWIM/Memberlist baseline and the centralized designs.
// Bootstrap (Figures 5-7, Table 1) is the cell with fault "none", Figure 8 is
// "crash", Figures 1/9/10 are "egress-loss-80" and "flap", Table 2 is "crash"
// with byte accounting on, and the adversarial matrix is the grid of all
// eight fault kinds, gray failures included, at paper scale (N=1000).
// figures.go declares those views and groups the runs of a cell over seeds.

package experiments

import (
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// ScenarioOptions declare which cells to run and bound each one.
type ScenarioOptions struct {
	// Systems, Kinds and Sizes span the grid of cells.
	Systems []harness.System
	Kinds   []harness.Fault
	Sizes   []int
	// VictimPercent is the share of members a fault hits, at least one
	// member (0 = 1%, the matrix's; Figure 8 and Table 2 crash 10%).
	// Whole-network kinds have no victims whatever it says.
	VictimPercent int
	// AccountBandwidth turns per-member byte accounting on and fills the
	// cell's Received and Sent (Table 2).
	AccountBandwidth bool
	// Shards overrides the simnet delivery shard count (0 = default).
	Shards int
	// FormationTimeout bounds the pre-fault bootstrap wait (wall clock;
	// 0 = 300s).
	FormationTimeout time.Duration
	// DetectTimeout bounds the wait for victims to be evicted (wall clock;
	// 0 = 90s).
	DetectTimeout time.Duration
	// AgreeTimeout bounds the post-clear agreement wait (wall clock;
	// 0 = 120s).
	AgreeTimeout time.Duration
	// FaultWindow is how long whole-network faults stay installed, in paper
	// time (0 = 30 paper-seconds).
	FaultWindow time.Duration
}

func (o ScenarioOptions) withDefaults() ScenarioOptions {
	if o.VictimPercent <= 0 {
		o.VictimPercent = 1
	}
	if o.FormationTimeout <= 0 {
		o.FormationTimeout = 300 * time.Second
	}
	if o.DetectTimeout <= 0 {
		o.DetectTimeout = 90 * time.Second
	}
	if o.AgreeTimeout <= 0 {
		o.AgreeTimeout = 120 * time.Second
	}
	if o.FaultWindow <= 0 {
		o.FaultWindow = 30 * time.Second
	}
	return o
}

// ScenarioCell is the measured outcome of one (fault, system, N, seed) run.
// Every time is in paper-seconds (wall time times the run's time scale), so
// cells from runs at different -scale values stay comparable, and the JSON
// encoding of a cell is the file format cmd/rapid-bench writes.
type ScenarioCell struct {
	Fault   harness.Fault  `json:"fault"`
	System  harness.System `json:"system"`
	N       int            `json:"n"`
	Seed    int64          `json:"seed"`
	Victims int            `json:"victims"`

	// FormationOK: the fleet reached full size. The formation fields below
	// are recorded either way; the fault-phase fields only when it did.
	FormationOK bool `json:"formation_ok"`
	// ConvergeS is the time from launch until every member reported N
	// (Figure 5), or the formation timeout.
	ConvergeS float64 `json:"converge_paper_s"`
	// FullView counts the members that ever reported N; ViewP50S/P90S/P99S
	// are percentiles of their time from launch to that first report
	// (Figure 6's ECDF).
	FullView int     `json:"full_view_members"`
	ViewP50S float64 `json:"view_p50_paper_s"`
	ViewP90S float64 `json:"view_p90_paper_s"`
	ViewP99S float64 `json:"view_p99_paper_s"`
	// JoinP50S/P90S/P99S are percentiles of each member's join-call latency
	// (from issuing the join until the admitting view change's response
	// arrived), the per-node quantity Figure 5 plots.
	JoinP50S float64 `json:"join_p50_paper_s"`
	JoinP90S float64 `json:"join_p90_paper_s"`
	JoinP99S float64 `json:"join_p99_paper_s"`
	// BootMessages counts simnet send attempts until the fleet formed, a
	// proxy for the dissemination cost of the bootstrap storm.
	BootMessages int64 `json:"boot_messages"`
	// Control-plane health of a Rapid fleet (zero for the baselines), summed
	// over its members: ShedBatches non-zero means some member's event queue
	// filled up; QueueFullS is the time producers spent blocked on full
	// queues; JoinsTimedOut counts phase-2 join requests that ran out
	// JoinPhase2Timeout (the join pipeline is redirect-driven, so a healthy
	// bootstrap reads 0). Min/MaxBatchWindowS bracket the adaptive flush
	// windows the members ended formation with.
	ShedBatches     int64   `json:"shed_batches"`
	QueueFullS      float64 `json:"queue_full_paper_s"`
	JoinsTimedOut   int64   `json:"joins_timed_out"`
	MinBatchWindowS float64 `json:"min_batch_window_paper_s"`
	MaxBatchWindowS float64 `json:"max_batch_window_paper_s"`

	// RemovalExpected: the fault has victims, so the stable outcome evicts
	// them; otherwise (whole-network kinds) it keeps everyone.
	RemovalExpected bool `json:"removal_expected"`
	// Detected: every healthy member converged to N-victims while the fault
	// was active; DetectS is how long that took from injection.
	Detected bool    `json:"detected"`
	DetectS  float64 `json:"detect_paper_s"`
	// Agreed: after the fault cleared, all live non-victim members reported
	// one identical stable size (AgreedSize) within AgreeS.
	Agreed     bool    `json:"agreed"`
	AgreeS     float64 `json:"agree_paper_s"`
	AgreedSize int     `json:"agreed_size"`
	// MinReported/MaxReported are the post-clear size spread (equal when
	// Agreed).
	MinReported int `json:"min_reported"`
	MaxReported int `json:"max_reported"`
	// UnnecessaryEvictions counts healthy members missing from the final
	// membership: max(0, N - Victims - observed size). The paper's stability
	// metric — zero for Rapid in every cell is the claim under test.
	UnnecessaryEvictions int `json:"unnecessary_evictions"`
	// UniqueSizes is the number of distinct sizes healthy members reported:
	// from launch for fault "none" (Table 1's instability proxy), from the
	// injection instant otherwise (Figure 8: Rapid goes N -> N-F in one step,
	// so it reads 2).
	UniqueSizes int `json:"unique_sizes"`
	// Messages counts send attempts during the fault phase only.
	Messages int64 `json:"messages"`
	// Duplicates counts chaos-layer duplicated deliveries (dup-reorder only).
	Duplicates int64 `json:"duplicates"`

	// Received and Sent are the healthy members' per-process KB/s over the
	// whole run (Table 2); zero unless AccountBandwidth was set.
	Received metrics.BandwidthSummary `json:"received_kbps"`
	Sent     metrics.BandwidthSummary `json:"sent_kbps"`
}

// RunScenarioCell runs one cell. It is the only code that launches a fleet
// for a figure. Failures to form or to detect are recorded in the cell, not
// returned as errors, so a sweep over systems that degrade differently still
// completes the grid; the error is for a fault kind that does not exist.
func RunScenarioCell(cfg Config, system harness.System, kind harness.Fault, n int, opts ScenarioOptions) (ScenarioCell, error) {
	opts = opts.withDefaults()
	clock := cfg.clock()
	cell := ScenarioCell{Fault: kind, System: system, N: n, Seed: cfg.Seed}
	sampleEvery := harness.Scale(500*time.Millisecond, cfg.TimeScale)

	fleet, err := harness.Launch(harness.Options{
		System:           system,
		N:                n,
		TimeScale:        cfg.TimeScale,
		Seed:             cfg.Seed,
		SampleInterval:   sampleEvery,
		AccountBandwidth: opts.AccountBandwidth,
		SimnetShards:     opts.Shards,
	})
	if err != nil {
		// A failed launch (e.g. a join storm exhausting its budget) is a
		// formation failure of this cell, not a reason to abort the sweep —
		// systems that cannot form at this N are part of the comparison.
		cfg.printf("%s/%s N=%d: launch failed: %v\n", kind, system, n, err)
		return cell, nil
	}
	defer fleet.Stop()

	_, cell.FormationOK = fleet.WaitForSizeExcluding(n, nil, opts.FormationTimeout)
	cell.ConvergeS = cfg.scaledSeconds(clock.Now().Sub(fleet.Started()))
	cell.recordFormation(cfg, fleet)
	// Let the sampler capture the converged state before reading series.
	clock.Sleep(2 * sampleEvery)
	view := cfg.scaledAll(fleet.PerAgentConvergence(n))
	cell.FullView = len(view)
	cell.ViewP50S, cell.ViewP90S, cell.ViewP99S = metrics.Percentile(view, 50), metrics.Percentile(view, 90), metrics.Percentile(view, 99)
	if !cell.FormationOK {
		return cell, nil
	}
	if kind == harness.FaultNone {
		cell.UniqueSizes = fleet.UniqueReportedSizes(nil, fleet.Started())
		return cell, nil
	}

	msgs0 := fleet.Net.TotalMessages()
	dups0 := fleet.Net.Duplicates()
	injected := clock.Now()
	excluded, err := fleet.Inject(kind, max(1, n*opts.VictimPercent/100))
	if err != nil {
		return cell, err
	}
	cell.Victims = len(excluded)
	cell.RemovalExpected = cell.Victims > 0

	if cell.RemovalExpected {
		var took time.Duration
		took, cell.Detected = fleet.WaitForSizeExcluding(n-cell.Victims, excluded, opts.DetectTimeout)
		cell.DetectS = cfg.scaledSeconds(took)
	} else {
		clock.Sleep(harness.Scale(opts.FaultWindow, cfg.TimeScale))
	}
	if opts.AccountBandwidth {
		// Let steady-state traffic accumulate for a short window.
		clock.Sleep(harness.Scale(10*time.Second, cfg.TimeScale))
		var recv, sent []float64
		for _, a := range fleet.Agents() {
			if !excluded[a.Addr()] {
				rec := fleet.Net.Bandwidth(a.Addr())
				recv = append(recv, rec.ReceivedRates()...)
				sent = append(sent, rec.SentRates()...)
			}
		}
		cell.Received, cell.Sent = metrics.Summarize(recv), metrics.Summarize(sent)
	}
	cell.Messages = fleet.Net.TotalMessages() - msgs0
	cell.Duplicates = fleet.Net.Duplicates() - dups0

	// Conformance: clear every fault and require the live members to settle
	// on one agreed membership within the bound. Victims stay excluded for
	// removal kinds — evicted-but-alive processes report their stale view.
	fleet.ClearFaults()
	var took time.Duration
	cell.AgreedSize, took, cell.Agreed = fleet.WaitForAgreement(excluded, opts.AgreeTimeout)
	cell.AgreeS = cfg.scaledSeconds(took)
	cell.MinReported, cell.MaxReported = fleet.ReportedSizeRange(excluded)
	observed := cell.AgreedSize
	if !cell.Agreed {
		observed = cell.MinReported
	}
	cell.UnnecessaryEvictions = max(0, n-cell.Victims-observed)
	cell.UniqueSizes = fleet.UniqueReportedSizes(excluded, injected)
	return cell, nil
}

// recordFormation fills the cell's message, join-latency and control-plane
// columns from a fleet whose bootstrap wait just ended.
func (c *ScenarioCell) recordFormation(cfg Config, fleet *harness.Fleet) {
	c.BootMessages = fleet.Net.TotalMessages()
	join := cfg.scaledAll(fleet.JoinLatencies())
	c.JoinP50S, c.JoinP90S, c.JoinP99S = metrics.Percentile(join, 50), metrics.Percentile(join, 90), metrics.Percentile(join, 99)
	for i, st := range fleet.RapidStats() {
		c.ShedBatches += st.ShedBatches
		c.QueueFullS += cfg.scaledSeconds(st.QueueFullTime)
		c.JoinsTimedOut += st.JoinsTimedOut
		w := cfg.scaledSeconds(st.BatchWindow)
		c.MaxBatchWindowS = max(c.MaxBatchWindowS, w)
		if i == 0 || w < c.MinBatchWindowS {
			c.MinBatchWindowS = w
		}
	}
}
