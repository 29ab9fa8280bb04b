package harness

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/node"
)

// TestChurnConcurrentJoinsAndCorrelatedFailures is the engine's stress
// scenario: a large fleet absorbs simultaneous joins and a correlated block
// of crashes ("a rack dies while the cluster is scaling out"), and every
// survivor — old and newly joined — must agree on the final configuration.
// The full scenario runs 100 simnet nodes; -short trims the fleet so the
// race-detector CI job stays fast.
func TestChurnConcurrentJoinsAndCorrelatedFailures(t *testing.T) {
	n, failures, joins := 100, 8, 6
	if testing.Short() {
		n, failures, joins = 30, 4, 3
	}
	const timeScale = 25.0

	f, err := Launch(Options{
		System:          SystemRapid,
		N:               n,
		TimeScale:       timeScale,
		Seed:            42,
		JoinConcurrency: 16,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer f.Stop()
	if _, ok := f.WaitForSizeExcluding(n, nil, 120*time.Second); !ok {
		t.Fatal("fleet did not converge before churn")
	}

	// Pick a correlated failure group: a contiguous block of members,
	// excluding the seed so the concurrent joiners keep a live contact.
	var crashAddrs []node.Addr
	excluded := make(map[node.Addr]bool)
	for _, a := range f.Agents() {
		if a.Addr() == seedAddr {
			continue
		}
		if len(crashAddrs) == failures {
			break
		}
		crashAddrs = append(crashAddrs, a.Addr())
		excluded[a.Addr()] = true
	}

	// Kick off the concurrent joins, then crash the block while they are in
	// flight.
	settings := core.ScaledSettings(timeScale)
	type joined struct {
		c   *core.Cluster
		err error
	}
	results := make(chan joined, joins)
	for i := 0; i < joins; i++ {
		i := i
		go func() {
			c, err := core.JoinCluster(memberAddr(n+i), []node.Addr{seedAddr}, settings, f.Net)
			results <- joined{c: c, err: err}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	for _, a := range crashAddrs {
		f.Net.Crash(a)
	}

	var joiners []*core.Cluster
	for i := 0; i < joins; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("concurrent join during churn failed: %v", r.err)
		}
		joiners = append(joiners, r.c)
	}
	defer func() {
		var wg sync.WaitGroup
		for _, c := range joiners {
			wg.Add(1)
			go func(c *core.Cluster) { defer wg.Done(); c.Stop() }(c)
		}
		wg.Wait()
	}()

	// Every survivor of the original fleet plus every joiner must converge on
	// the same membership: size first, then configuration identity.
	target := n - failures + joins
	survivorClusters := func() []*core.Cluster {
		var out []*core.Cluster
		for _, a := range f.Agents() {
			if excluded[a.Addr()] {
				continue
			}
			if ra, ok := a.(rapidAgent); ok {
				out = append(out, ra.c)
			}
		}
		return append(out, joiners...)
	}()

	deadline := time.Now().Add(120 * time.Second)
	agreed := func() (uint64, bool) {
		var configID uint64
		for i, c := range survivorClusters {
			if c.Size() != target {
				return 0, false
			}
			id := c.ConfigurationID()
			if i == 0 {
				configID = id
			} else if id != configID {
				return 0, false
			}
		}
		return configID, true
	}
	for time.Now().Before(deadline) {
		if _, ok := agreed(); ok {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	configID, ok := agreed()
	if !ok {
		sizes := make([]int, 0, len(survivorClusters))
		for _, c := range survivorClusters {
			sizes = append(sizes, c.Size())
		}
		t.Fatalf("survivors did not agree on the final configuration (want size %d): sizes=%v", target, sizes)
	}
	if configID == 0 {
		t.Fatal("agreed configuration ID is zero")
	}
	// No crashed member may linger in any survivor's view, and every joiner
	// must be present everywhere.
	for _, c := range survivorClusters {
		members := make(map[node.Addr]bool, target)
		for _, m := range c.Members() {
			members[m.Addr] = true
		}
		for _, crashed := range crashAddrs {
			if members[crashed] {
				t.Fatalf("crashed member %s still in %s's view", crashed, c.Addr())
			}
		}
		for _, j := range joiners {
			if !members[j.Addr()] {
				t.Fatalf("joiner %s missing from %s's view", j.Addr(), c.Addr())
			}
		}
	}
}
