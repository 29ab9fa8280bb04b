package main

import (
	"runtime"
	"strings"

	"repro/internal/metrics"
)

// decl declares one metric: what the benchmark prints under that name.
// BENCHMARK.json holds the same declarations (plus the regression bound of
// each end-to-end metric); the validate mode and the tests keep the two equal.
type decl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDecls are the metrics a user of the membership service would see.
// Times are protocol seconds (wall x TimeScale) except setup_s.
var endToEndDecls = []decl{
	{"setup_s", "s", lower},
	{"converge_p50_s", "s", lower},
	{"detect_agree_p50_s", "s", lower},
	{"msgs_per_node_s", "msgs", lower},
}

// handledKinds are the request kinds whose HandleRequest time is reported.
var handledKinds = []string{"probe", "prejoin", "join", "alerts", "votebatch", "alerts_votes"}

// perLayerDecls are the metrics of single layers, from the traced run (the
// wrapping transport, Cluster.Stats, simnet and tcpnet counters) and from the
// layers pass (isolated timings). A metric of a layer the workload leaves
// idle reads 0.
var perLayerDecls = func() []decl {
	d := []decl{
		{"edgefd.first_alert_p50_s", "s", lower},
		{"edgefd.probes_per_node_s", "1/s", lower},
		{"edgefd.probe_rtt_p50_us", "us", lower},

		{"cutdetect.alert_ingest_ns", "ns", lower},
		{"cutdetect.invalidate_scan_ns", "ns", lower},
		{"cutdetect.proposals_per_cut", "count", lower},

		{"core.alert_to_vote_p50_s", "s", lower},
		{"core.vote_to_install_p50_s", "s", lower},
		{"core.install_spread_p50_s", "s", lower},
		{"core.detect_agree_max_s", "s", lower},
		{"core.view_changes_per_cut", "count", lower},
		{"core.prejoin_per_join", "count", lower},
		{"core.join_p50_s", "s", lower},
		{"core.rejoin_agree_p50_s", "s", lower},
		{"core.boot_converge_p50_s", "s", lower},
		{"core.boot_join_p50_s", "s", lower},
		{"core.boot_join_p99_s", "s", lower},
		{"core.boot_msgs_per_node", "msgs", lower},
		{"core.events_per_node_s", "1/s", lower},
		{"core.batches_per_node_s", "1/s", lower},
		{"core.batch_size_mean", "count", higher},
		{"core.shed_batches", "count", lower},
		{"core.queue_full_s", "s", lower},
		{"core.batch_window_max_ms", "ms", lower},

		{"fastpaxos.vote_ns", "ns", lower},
		{"fastpaxos.decide200_ns", "ns", lower},
		{"fastpaxos.classic_fallbacks", "count", lower},
		{"paxos.classic_round200_ns", "ns", lower},

		{"view.build500_ns", "ns", lower},
		{"view.build500_allocs", "count", lower},
		{"view.add_member_ns", "ns", lower},
		{"view.remove_member_ns", "ns", lower},
		{"view.observers_of_ns", "ns", lower},
		{"view.config_id_miss_ns", "ns", lower},

		{"broadcast.unicast_flush500_ns", "ns", lower},
		{"broadcast.gossip_flush_ns", "ns", lower},
		{"broadcast.sends_per_batch", "count", lower},

		{"remoting.encode_alertbatch_ns", "ns", lower},
		{"remoting.decode_alertbatch_ns", "ns", lower},
		{"remoting.alertbatch_bytes", "B", lower},
		{"remoting.alertbatch_allocs", "count", lower},
		{"remoting.encode_probe_ns", "ns", lower},
		{"remoting.probe_bytes", "B", lower},
		{"remoting.encode_joinresp500_ns", "ns", lower},
		{"remoting.decode_joinresp500_ns", "ns", lower},
		{"remoting.joinresp500_bytes", "B", lower},

		{"simnet.best_effort_ns", "ns", lower},
		{"simnet.send_rtt_ns", "ns", lower},
		{"simnet.kb_per_node_s", "KB/s", lower},

		{"tcpnet.rtt_p50_us", "us", lower},
		{"tcpnet.rtt_p99_us", "us", lower},
		{"tcpnet.pipelined_rps", "1/s", higher},
		{"tcpnet.dial_us", "us", lower},
		{"tcpnet.best_effort_rps", "1/s", higher},
		{"tcpnet.requests_per_dial", "count", higher},
		{"tcpnet.dial_errors", "count", lower},
		{"tcpnet.stale_retries", "count", lower},
		{"tcpnet.best_effort_dropped", "count", lower},

		{"simclock.manual_advance_ns", "ns", lower},

		{"process.cpu_ms_per_node_s", "ms", lower},
		{"process.peak_rss_mb", "MB", lower},
		{"process.alloc_mb", "MB", lower},
		{"process.gc_pause_ms", "ms", lower},
		{"trace.overhead_detect_pct", "%", lower},
		{"trace.overhead_cpu_pct", "%", lower},
		{"trace.rounds_unphased", "count", lower},
		{"trace.spans", "count", higher},
		{"trace.spans_dropped", "count", lower},
	}
	for _, k := range handledKinds {
		d = append(d,
			decl{"core.handle_request_p50_us." + k, "us", lower},
			decl{"core.handle_request_p99_us." + k, "us", lower})
	}
	for _, k := range simKindNames {
		d = append(d, decl{"simnet.msgs_by_kind." + sanitize(k), "1/s", lower})
	}
	return d
}()

// sanitize maps characters outside [A-Za-z0-9_.-] to '_', so that a
// Request.Kind() can be part of a metric name ("alerts+votes").
func sanitize(kind string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			return r
		}
		return '_'
	}, kind)
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches the declared units to computed numbers. A declared
// metric nobody computed reads 0; a computed one nobody declared is dropped
// here and caught by the validate mode, which compares against the raw map.
func withUnits(decls []decl, raw map[string]float64) map[string]value {
	out := make(map[string]value, len(decls))
	for _, d := range decls {
		out[d.Name] = value{Value: raw[d.Name], Unit: d.Unit}
	}
	return out
}

// endToEnd computes the end-to-end metrics of one untraced run.
func endToEnd(w *workload, s *samples) map[string]float64 {
	perNodeSecond := float64(w.N) * s.FleetSeconds * w.TimeScale
	converge := s.column(func(r *roundSample) float64 { return r.Whole })
	if w.BootConverge {
		converge = s.Boot
	}
	return map[string]float64{
		"setup_s":            median(s.SetupWallS),
		"converge_p50_s":     median(converge),
		"detect_agree_p50_s": median(s.column(func(r *roundSample) float64 { return r.Detect })),
		"msgs_per_node_s":    ratio(float64(s.Messages), perNodeSecond),
	}
}

// cpuPerNodeSecond is the process' user+sys CPU time over the measured rounds,
// in ms per member and protocol second.
func cpuPerNodeSecond(w *workload, s *samples) float64 {
	return ratio(s.CPUSeconds*1000, float64(w.N)*s.FleetSeconds*w.TimeScale)
}

// perLayer computes the per-layer metrics that come from a traced run; ref is
// the untraced reference run of the same workload and seed, before the
// process' memory statistics when the two began. The isolated timings of the
// layers pass are added by the caller.
func perLayer(w *workload, ref, s *samples, tr *tracer, before *runtime.MemStats) map[string]float64 {
	m := make(map[string]float64)
	perNodeSecond := float64(w.N) * s.FleetSeconds * w.TimeScale

	m["edgefd.first_alert_p50_s"] = median(s.phases(true, func(p *phaseSample) float64 { return p.FirstAlert }))
	m["edgefd.probes_per_node_s"] = ratio(float64(s.probeSends), perNodeSecond)
	m["edgefd.probe_rtt_p50_us"] = tr.kinds["probe"].rtt.quantile(0.5) / 1e3

	m["cutdetect.proposals_per_cut"] = metrics.Mean(s.phases(false, func(p *phaseSample) float64 { return float64(p.Proposals) }))
	m["core.alert_to_vote_p50_s"] = median(s.phases(true, func(p *phaseSample) float64 { return p.AlertToVote }))
	m["core.vote_to_install_p50_s"] = median(s.phases(true, func(p *phaseSample) float64 { return p.VoteToInstall }))
	m["core.install_spread_p50_s"] = median(s.phases(true, func(p *phaseSample) float64 { return p.InstallSpread }))
	m["core.detect_agree_max_s"] = metrics.Max(s.column(func(r *roundSample) float64 { return r.Detect }))
	m["core.view_changes_per_cut"] = metrics.Mean(s.column(func(r *roundSample) float64 { return float64(r.ViewChanges) }))
	m["core.prejoin_per_join"] = ratio(float64(tr.sends("prejoin")), float64(s.JoinsAdmitted))
	// End-to-end in nature, so read from the untraced half; they have no bound
	// because no run short enough for the driver holds them steady.
	m["core.join_p50_s"] = median(ref.column(func(r *roundSample) float64 { return metrics.Mean(r.Join) }))
	m["core.rejoin_agree_p50_s"] = median(ref.column(func(r *roundSample) float64 { return r.Rejoin }))
	m["process.cpu_ms_per_node_s"] = cpuPerNodeSecond(w, ref)
	m["core.boot_converge_p50_s"] = median(s.Boot)
	m["core.boot_join_p50_s"] = median(s.BootJoin)
	m["core.boot_join_p99_s"] = quantile(s.BootJoin, 0.99)
	m["core.boot_msgs_per_node"] = ratio(float64(s.boot.sent), float64(w.N*len(s.Boot)))
	m["core.events_per_node_s"] = ratio(float64(s.rounds.engine.events), perNodeSecond)
	m["core.batches_per_node_s"] = ratio(float64(s.rounds.engine.batches), perNodeSecond)
	m["core.batch_size_mean"] = ratio(s.rounds.engine.batchItems+s.boot.engine.batchItems, float64(s.rounds.engine.batches+s.boot.engine.batches))
	m["core.shed_batches"] = float64(s.rounds.engine.shed + s.boot.engine.shed)
	m["core.queue_full_s"] = (s.rounds.engine.queueFull + s.boot.engine.queueFull).Seconds()
	m["core.batch_window_max_ms"] = float64(max(s.rounds.engine.windowMax, s.boot.engine.windowMax).Microseconds()) / 1e3
	for _, k := range handledKinds {
		m["core.handle_request_p50_us."+k] = tr.kinds[k].handle.quantile(0.5) / 1e3
		m["core.handle_request_p99_us."+k] = tr.kinds[k].handle.quantile(0.99) / 1e3
	}
	m["fastpaxos.classic_fallbacks"] = metrics.Mean(s.phases(false, func(p *phaseSample) float64 { return float64(p.ClassicRounds) }))

	var batchSends int64
	for _, k := range []string{"alerts", "votebatch", "alerts_votes"} {
		batchSends += tr.sends(k)
	}
	m["broadcast.sends_per_batch"] = ratio(float64(batchSends), float64(s.rounds.engine.batches+s.boot.engine.batches))

	for _, k := range simKindNames {
		m["simnet.msgs_by_kind."+sanitize(k)] = ratio(float64(s.rounds.simKind[k]), perNodeSecond)
	}
	m["simnet.kb_per_node_s"] = ratio(s.rounds.sentKB, perNodeSecond)

	m["tcpnet.requests_per_dial"] = ratio(float64(s.rounds.tcp.Requests), float64(s.rounds.tcp.Dials))
	m["tcpnet.dial_errors"] = float64(s.rounds.tcp.DialErrors)
	m["tcpnet.stale_retries"] = float64(s.rounds.tcp.StaleRetries)
	m["tcpnet.best_effort_dropped"] = float64(s.rounds.tcp.BestEffortDropped)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["process.peak_rss_mb"] = peakRSSMB()
	m["process.alloc_mb"] = float64(ms.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["process.gc_pause_ms"] = float64(ms.PauseTotalNs-before.PauseTotalNs) / 1e6

	const detect = "detect_agree_p50_s"
	m["trace.overhead_detect_pct"] = 100 * (ratio(endToEnd(w, s)[detect], endToEnd(w, ref)[detect]) - 1)
	m["trace.overhead_cpu_pct"] = 100 * (ratio(cpuPerNodeSecond(w, s), cpuPerNodeSecond(w, ref)) - 1)
	unphased := 0
	for i := range s.Rounds {
		if p := s.Rounds[i].Phases; p != nil && p.Unphased {
			unphased++
		}
	}
	m["trace.rounds_unphased"] = float64(unphased)
	tr.mu.Lock()
	m["trace.spans"], m["trace.spans_dropped"] = float64(len(tr.spans)), float64(tr.dropped)
	tr.mu.Unlock()
	return m
}
