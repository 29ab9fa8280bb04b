// Command rapid-sim runs an ad-hoc failure scenario against one membership
// system on the simulated network and prints the per-node view-size series,
// which is the raw data behind the paper's timeseries figures (1, 8, 9, 10).
//
// Example:
//
//	rapid-sim -system rapid -n 40 -fault crash -victims 4
//	rapid-sim -system memberlist -n 40 -fault egress-loss-80 -victims 1
//	rapid-sim -system rapid -n 60 -fault slow -victims 1
//	rapid-sim -system rapid -n 60 -fault flap -victims 1
//
// -fault takes the names of harness.Fault, the vocabulary rapid-bench's
// scenario cells use.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/harness"
	"repro/internal/node"
)

func main() {
	var (
		system   = flag.String("system", "rapid", "membership system: rapid, rapid-c, memberlist, zookeeper")
		n        = flag.Int("n", 40, "cluster size")
		fault    = flag.String("fault", "crash", fmt.Sprintf("fault to inject, one of %v", harness.Faults()))
		victims  = flag.Int("victims", 2, "number of faulty nodes")
		scale    = flag.Float64("scale", 50, "time compression factor")
		duration = flag.Duration("duration", 20*time.Second, "wall-clock time to observe after the fault")
		seed     = flag.Int64("seed", 1, "random seed")
		shards   = flag.Int("shards", 0, "simnet delivery shards (0 = default); raise with available cores for 1000+ node runs")
		joinconc = flag.Int("joinconc", 0, "max concurrent joins during launch (0 = all at once)")
	)
	flag.Parse()

	fleet, err := harness.Launch(harness.Options{
		System:          harness.System(*system),
		N:               *n,
		TimeScale:       *scale,
		Seed:            *seed,
		SampleInterval:  50 * time.Millisecond,
		SimnetShards:    *shards,
		JoinConcurrency: *joinconc,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "launch: %v\n", err)
		os.Exit(1)
	}
	defer fleet.Stop()

	if _, ok := fleet.WaitForSizeExcluding(*n, nil, 120*time.Second); !ok {
		fmt.Fprintf(os.Stderr, "cluster did not converge to %d members\n", *n)
		os.Exit(1)
	}
	excluded, err := fleet.Inject(harness.Fault(*fault), *victims)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("cluster of %d %s members formed; injected fault %q on %d node(s)\n",
		*n, *system, *fault, len(excluded))

	time.Sleep(*duration)

	fmt.Printf("\n%-14s %-10s\n", "time(s)", "sizes reported (min..max across nodes)")
	printSeries(fleet, excluded, *scale)
	fmt.Printf("\ndistinct sizes observed: %d\n", fleet.UniqueReportedSizes(excluded, fleet.Started()))
}

// printSeries prints, for each sampling instant, the range of sizes reported
// across all healthy nodes (a textual rendering of the paper's dot plots).
func printSeries(fleet *harness.Fleet, excluded map[node.Addr]bool, scale float64) {
	type bucket struct{ min, max float64 }
	buckets := make(map[int64]*bucket)
	var order []int64
	for _, a := range fleet.Agents() {
		if excluded[a.Addr()] {
			continue
		}
		s := fleet.Series(a.Addr())
		if s == nil {
			continue
		}
		for _, sample := range s.Samples() {
			key := sample.At.Sub(fleet.Started()).Milliseconds() / 250
			b, ok := buckets[key]
			if !ok {
				b = &bucket{min: sample.Value, max: sample.Value}
				buckets[key] = b
				order = append(order, key)
			}
			if sample.Value < b.min {
				b.min = sample.Value
			}
			if sample.Value > b.max {
				b.max = sample.Value
			}
		}
	}
	slices.Sort(order)
	for _, key := range order {
		b := buckets[key]
		paperSeconds := float64(key) * 0.25 * scale
		fmt.Printf("%-14.1f %.0f..%.0f\n", paperSeconds, b.min, b.max)
	}
}
