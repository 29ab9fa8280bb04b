package core

import (
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simnet"
	"repro/internal/view"
)

// TestMembersOfOneListShareOneMembership: two members of one process that are
// handed the same list hold the same frozen membership — one pair of slices,
// not one pair each — until one of them applies a cut, which leaves the
// other's untouched. The public accessor still hands out a copy.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func TestMembersOfOneListShareOneMembership(t *testing.T) {
	r := newEngineRig(t)
	list := []node.Endpoint{endpoint(1), endpoint(2), endpoint(3)}
	// Each member brings its own copy of the list, as if decoded from its own
	// join response.
	ca, a := r.handle(list[0], slices.Clone(list))
	_, b := r.handle(list[1], slices.Clone(list))
	if &a.members[0] != &b.members[0] || &a.addrs[0] != &b.addrs[0] {
		t.Fatal("two members started from one list do not share its membership slices")
	}
	if snap := ca.snap.Load(); &snap.members[0] != &a.members[0] {
		t.Error("the first snapshot does not hold the shared membership")
	}
	mine := ca.Members()
	if &mine[0] == &a.members[0] {
		t.Fatal("Cluster.Members() handed out the shared slice; the caller owns what it returns")
	}
	mine[0].Addr = "scribbled:1"
	if a.members[0].Addr != list[0].Addr || b.members[0].Addr != list[0].Addr {
		t.Fatal("writing to Cluster.Members()' result reached the engines")
	}

	// b removes member 3; a's configuration does not move.
	configID := a.view.ConfigurationID()
	b.decided = []node.Endpoint{list[2]}
	b.finish()
	if len(b.members) != 2 || b.view.Contains(list[2].Addr) {
		t.Fatalf("b did not apply its cut: members %v", b.members)
	}
	if len(a.members) != 3 || !a.view.Contains(list[2].Addr) || a.view.ConfigurationID() != configID || a.members[2].Addr != list[2].Addr {
		t.Fatal("a cut applied by one member changed what the other holds")
	}
}

// TestBatchPathDoesNotAllocate: an inbound vote batch goes through the queue
// and the engine without allocating, with the event down to two words.
//
// engine-entry: the rig applies events on the test goroutine; no driver runs.
func TestBatchPathDoesNotAllocate(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 2*unsafe.Sizeof(uintptr(0)) {
		t.Errorf("an event is %d bytes, want two words: the queue holds %d of them per member", size, eventQueueSize)
	}
	r := newEngineRig(t)
	list := []node.Endpoint{endpoint(1), endpoint(2), endpoint(3), endpoint(4), endpoint(5)}
	c, e := r.handle(list[0], list)
	cut := []node.Endpoint{endpoint(9)}
	req := &remoting.Request{VoteBatch: &remoting.FastRoundVoteBatch{Sender: list[1].Addr, Votes: []remoting.FastRoundPhase2b{
		{Sender: list[1].Addr, ConfigurationID: e.view.ConfigurationID(), Proposal: cut, Voters: []byte{0b10}},
	}}}
	now := r.clk.Now()
	allocs := testing.AllocsPerRun(100, func() {
		c.enqueue(event{req: req})
		e.step(<-c.events, now)
	})
	if allocs != 0 {
		t.Errorf("enqueue + step of a vote batch allocates %.0f times, want 0", allocs)
	}
}

// TestStormBuildsEachConfigurationOnce: 199 joiners storm one seed. However
// many of them a view change admits together, the process builds the K rings
// of a configuration once: the build count is the number of distinct lists the
// members started from, not the number of members.
func TestStormBuildsEachConfigurationOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("a 200-member fleet is too slow for the race lane")
	}
	const n = 200
	net := simnet.New(simnet.Options{Seed: 23})
	defer net.Close()
	settings := ScaledSettings(5)
	// Identifiers no other test of this process has used: a list met before
	// would be found, not built.
	node.SeedIDGenerator(time.Now().UnixNano())
	before := view.SharedBuilds()
	seed, err := StartCluster(addr(0), settings, net)
	if err != nil {
		t.Fatal(err)
	}
	clusters := make([]*Cluster, n)
	clusters[0] = seed
	var mu sync.Mutex
	adopted := map[uint64]int{seed.ConfigurationID(): 1} // configuration -> members that started in it
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// JoinCluster, with a look at the list between its two halves.
			c, err := newCluster(addr(i), settings, net)
			if err == nil {
				err = net.Register(addr(i), c)
			}
			if err != nil {
				t.Error(err)
				return
			}
			members, err := c.join([]node.Addr{addr(0)})
			if err != nil {
				t.Errorf("join %d failed: %v", i, err)
				return
			}
			id := view.NewWithMembers(settings.K, members).ConfigurationID()
			mu.Lock()
			adopted[id]++
			mu.Unlock()
			c.initialize(members)
			clusters[i] = c
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	defer stopAll(clusters)
	if !waitUntil(t, 60*time.Second, func() bool { return allAgree(clusters, n) }) {
		t.Fatalf("the fleet did not converge to %d members", n)
	}
	builds := view.SharedBuilds() - before
	t.Logf("%d members started in %d distinct configurations %v; %d builds", n, len(adopted), adopted, builds)
	if builds != len(adopted) {
		t.Errorf("%d builds for %d distinct starting configurations", builds, len(adopted))
	}
	if len(adopted) > n/4 {
		t.Errorf("%d distinct starting configurations for %d members: the storm was not admitted in waves", len(adopted), n)
	}
}
