// Benchmarks of the paper's analytic figures (11-13, §8) at laptop scale, one
// full scaled-down experiment per iteration, and of two protocol paths. The
// figures that need a comparison fleet (1, 5-10, Tables 1-2) are not
// benchmarks: `rapid-bench -seeds a,b,c` runs them with spread, and
// TestEveryFigureAtToySize keeps them working. The hot paths (view build and
// lookup, configuration ID, alert codec) are timed with repeats by
// bench/layers.go, not here. Run with:
//
//	go test -bench=. -benchmem
package rapid_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/view"
)

// benchConfig compresses time aggressively so each experiment iteration stays
// in the single-digit seconds.
func benchConfig() experiments.Config {
	return experiments.Config{TimeScale: 100, Seed: 7}
}

// BenchmarkFigure11_CutDetectionConflictRate measures the almost-everywhere
// agreement conflict rate across the paper's (H, L, F) grid with K=10.
func BenchmarkFigure11_CutDetectionConflictRate(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		points := experiments.RunCutDetectionSensitivity(cfg, 10,
			[]int{6, 7, 8, 9}, []int{1, 2, 3, 4}, []int{2, 4, 8, 16}, 20, 3)
		var worst float64
		for _, p := range points {
			if p.ConflictRate > worst {
				worst = p.ConflictRate
			}
		}
		b.ReportMetric(worst, "worst-conflict-%")
	}
}

// BenchmarkFigure12_TransactionalPlatform measures transaction latency and
// failovers for the gossip-FD baseline vs Rapid under a packet blackhole.
func BenchmarkFigure12_TransactionalPlatform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunTransactionWorkload(benchConfig(), 10, 1200*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(float64(r.Failovers), "failovers-"+r.Provider)
			b.ReportMetric(float64(r.Transactions), "txns-"+r.Provider)
		}
	}
}

// BenchmarkFigure13_ServiceDiscovery measures load-balancer reloads and tail
// latency when a group of backends fails, for Memberlist vs Rapid.
func BenchmarkFigure13_ServiceDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunServiceDiscovery(benchConfig(), 12, 3, 1200*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(float64(r.Reloads), "reloads-"+r.Provider)
			b.ReportMetric(float64(r.P99Latency.Milliseconds()), "p99ms-"+r.Provider)
		}
	}
}

// BenchmarkSection8_Expansion measures the normalized second eigenvalue of
// the K-ring monitoring topology (the paper reports λ/d < 0.45 for K=10).
func BenchmarkSection8_Expansion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunExpansion(benchConfig(), 10, []int{250}, 3)
		if len(res) == 1 {
			b.ReportMetric(res[0].NormalizedL2, "lambda/d")
			b.ReportMetric(res[0].DetectableBetaL, "detectable-beta")
		}
	}
}

// --- micro-benchmarks of protocol hot paths ----------------------------------

func buildBenchView(k, n int) *view.View {
	eps := make([]node.Endpoint, n)
	for i := range eps {
		eps[i] = node.Endpoint{
			Addr: node.Addr(fmt.Sprintf("10.%d.%d.%d:1", i/65536, (i/256)%256, i%256)),
			ID:   node.ID{High: uint64(i + 1), Low: uint64(i + 13)},
		}
	}
	return view.NewWithMembers(k, eps)
}

// BenchmarkExpanderEigenvalue measures the §8 spectral analysis itself.
func BenchmarkExpanderEigenvalue(b *testing.B) {
	v := buildBenchView(10, 500)
	g, _, err := graph.FromView(v)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.SecondEigenvalue(100, 1)
	}
}

// BenchmarkViewChangeUnderChurn measures the end-to-end message cost of one
// unit of churn — a join followed by a graceful leave — on a 16-member
// cluster, reporting messages sent per view change. This is the engine's
// N² hot path: batched alerts and consensus votes share one outbound wire
// message per batching window, so the metric tracks dissemination cost
// regressions directly.
func BenchmarkViewChangeUnderChurn(b *testing.B) {
	net := simnet.New(simnet.Options{Seed: 99})
	settings := core.ScaledSettings(100)
	node.SeedIDGenerator(99)
	const n = 16
	seedAddr := node.Addr("bench-seed:9000")
	seed, err := core.StartCluster(seedAddr, settings, net)
	if err != nil {
		b.Fatal(err)
	}
	clusters := []*core.Cluster{seed}
	defer func() {
		for _, c := range clusters {
			c.Stop()
		}
	}()
	for i := 1; i < n; i++ {
		c, err := core.JoinCluster(node.Addr(fmt.Sprintf("bench-m%02d:9000", i)), []node.Addr{seedAddr}, settings, net)
		if err != nil {
			b.Fatalf("join %d: %v", i, err)
		}
		clusters = append(clusters, c)
	}
	waitSizes := func(want int) {
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			ok := true
			for _, c := range clusters {
				if c.Size() != want {
					ok = false
					break
				}
			}
			if ok {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		b.Fatalf("cluster did not settle at size %d", want)
	}
	waitSizes(n)

	b.ResetTimer()
	startMsgs := net.TotalMessages()
	startVC := seed.ViewChangeCount()
	for i := 0; i < b.N; i++ {
		addr := node.Addr(fmt.Sprintf("bench-churn%04d:9000", i))
		c, err := core.JoinCluster(addr, []node.Addr{seedAddr}, settings, net)
		if err != nil {
			b.Fatalf("churn join: %v", err)
		}
		clusters = append(clusters, c)
		waitSizes(n + 1)
		c.Leave()
		waitSizes(n)
		c.Stop()
		clusters = clusters[:len(clusters)-1]
	}
	b.StopTimer()
	deltaVC := seed.ViewChangeCount() - startVC
	if deltaVC > 0 {
		b.ReportMetric(float64(net.TotalMessages()-startMsgs)/float64(deltaVC), "msgs/viewchange")
	}
	b.ReportMetric(float64(deltaVC)/float64(b.N), "viewchanges/op")
}
