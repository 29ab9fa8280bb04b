package core

import (
	"context"
	"fmt"
	stdnet "net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/view"
)

// contextWithTimeout returns a context cancelled when the test ends.
func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// preJoinRequest builds a phase-1 join request for tests.
func preJoinRequest(joiner node.Addr, id node.ID) *remoting.Request {
	return &remoting.Request{PreJoin: &remoting.PreJoinRequest{Sender: joiner, JoinerID: id}}
}

// testSettings returns compressed-time settings so multi-node integration
// tests finish quickly while exercising the same code paths as production.
func testSettings() Settings {
	return ScaledSettings(50)
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

func addr(i int) node.Addr { return node.Addr(fmt.Sprintf("10.0.0.%d:7000", i)) }

// startCluster creates a seed plus n-1 joiners sequentially and waits for
// every handle to converge to size n.
func startCluster(t *testing.T, net *simnet.Network, n int, settings Settings) []*Cluster {
	t.Helper()
	node.SeedIDGenerator(time.Now().UnixNano())
	seed, err := StartCluster(addr(0), settings, net)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	clusters := []*Cluster{seed}
	for i := 1; i < n; i++ {
		c, err := JoinCluster(addr(i), []node.Addr{addr(0)}, settings, net)
		if err != nil {
			t.Fatalf("JoinCluster(%d): %v", i, err)
		}
		clusters = append(clusters, c)
	}
	if !waitUntil(t, 30*time.Second, func() bool {
		for _, c := range clusters {
			if c.Size() != n {
				return false
			}
		}
		return true
	}) {
		sizes := make([]int, len(clusters))
		for i, c := range clusters {
			sizes[i] = c.Size()
		}
		t.Fatalf("cluster did not converge to %d members: sizes=%v", n, sizes)
	}
	return clusters
}

func stopAll(clusters []*Cluster) {
	var wg sync.WaitGroup
	for _, c := range clusters {
		wg.Add(1)
		go func(c *Cluster) {
			defer wg.Done()
			c.Stop()
		}(c)
	}
	wg.Wait()
}

func TestStartClusterSingleNode(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 1})
	c, err := StartCluster("seed:1", testSettings(), net)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer c.Stop()
	if c.Size() != 1 {
		t.Fatalf("Size = %d, want 1", c.Size())
	}
	if !c.IsMember() {
		t.Fatal("the bootstrap node should be a member of its own view")
	}
	if c.ConfigurationID() == 0 {
		t.Fatal("configuration ID should be non-zero")
	}
	if c.Members()[0].Addr != "seed:1" {
		t.Fatalf("unexpected members: %v", c.Members())
	}
}

func TestSettingsValidation(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 1})
	bad := testSettings()
	bad.K, bad.H, bad.L = 10, 3, 5 // L > H
	if _, err := StartCluster("seed:1", bad, net); err == nil {
		t.Fatal("invalid watermarks should be rejected")
	}

	var zero Settings
	if err := zero.validate(); err != nil {
		t.Fatalf("zero settings should validate: %v", err)
	}
}

// TestDerivedTimings: the probe timeout and the batching window's floor and
// ceiling derive from ProbeInterval, and equal the values the settings held
// as fields of their own: the paper's 100 ms newborn window and 500 ms probe
// timeout by default, each scaled with the interval, none below 1 ms.
func TestDerivedTimings(t *testing.T) {
	const ms = time.Millisecond
	tests := []struct {
		name                               string
		s                                  Settings
		floor, ceiling, newborn, probeWait time.Duration
	}{
		{"default", DefaultSettings(), 10 * ms, 400 * ms, 100 * ms, 500 * ms},
		{"scaled 5", ScaledSettings(5), 2 * ms, 80 * ms, 20 * ms, 100 * ms},
		{"scaled 10", ScaledSettings(10), 1 * ms, 40 * ms, 10 * ms, 50 * ms},
		{"scaled 20", ScaledSettings(20), 1 * ms, 20 * ms, 5 * ms, 25 * ms},
		{"scaled 50", ScaledSettings(50), 1 * ms, 8 * ms, 2 * ms, 10 * ms},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			floor, ceiling := tc.s.windowFloor(), tc.s.windowCeiling()
			newborn := newWindowController(floor, ceiling).window
			if floor != tc.floor || ceiling != tc.ceiling || newborn != tc.newborn || tc.s.probeTimeout() != tc.probeWait {
				t.Fatalf("floor %v, ceiling %v, newborn %v, probe timeout %v; want %v, %v, %v, %v",
					floor, ceiling, newborn, tc.s.probeTimeout(), tc.floor, tc.ceiling, tc.newborn, tc.probeWait)
			}
		})
	}
}

func TestJoinRequiresSeed(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 1})
	if _, err := JoinCluster("a:1", nil, testSettings(), net); err == nil {
		t.Fatal("joining with no seeds should fail")
	}
}

func TestJoinUnreachableSeedFails(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 1})
	s := testSettings()
	s.JoinAttempts = 2
	if _, err := JoinCluster("a:1", []node.Addr{"nowhere:1"}, s, net); err == nil {
		t.Fatal("joining through an unreachable seed should fail")
	}
}

func TestSequentialJoinsConvergeConsistently(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 2})
	clusters := startCluster(t, net, 6, testSettings())
	defer stopAll(clusters)

	configID := clusters[0].ConfigurationID()
	membersKey := fmt.Sprint(clusters[0].Members())
	for i, c := range clusters {
		if c.ConfigurationID() != configID {
			t.Errorf("node %d has configuration %d, want %d (consistency violation)", i, c.ConfigurationID(), configID)
		}
		if fmt.Sprint(c.Members()) != membersKey {
			t.Errorf("node %d has a different membership list", i)
		}
	}
}

func TestDuplicateAddressIsRejectedAtPreJoin(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 3})
	clusters := startCluster(t, net, 3, testSettings())
	defer stopAll(clusters)
	// A pre-join request for an address that is already a member must be
	// answered with HOSTNAME_ALREADY_IN_RING (§6 join safety check).
	resp, err := net.Client("imposter:1").Send(
		contextWithTimeout(t, time.Second), addr(0),
		preJoinRequest(addr(1), node.NewID()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.PreJoin == nil || resp.PreJoin.Status.String() != "HOSTNAME_ALREADY_IN_RING" {
		t.Fatalf("unexpected pre-join response: %+v", resp.PreJoin)
	}
}

func TestConcurrentJoins(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 4})
	node.SeedIDGenerator(99)
	addrs := make([]node.Addr, 13)
	for i := range addrs {
		addrs[i] = addr(i)
	}
	stopAll(joinFleet(t, net, addrs, testSettings()))
}

func TestCrashFailuresDetectedAndRemoved(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 5})
	const n = 10
	clusters := startCluster(t, net, n, testSettings())
	defer stopAll(clusters)

	// Crash two processes abruptly (Figure 8 scenario, scaled down).
	crashed := []*Cluster{clusters[3], clusters[7]}
	survivors := []*Cluster{}
	for i, c := range clusters {
		if i != 3 && i != 7 {
			survivors = append(survivors, c)
		}
	}
	for _, c := range crashed {
		net.Crash(c.Addr())
	}
	if !waitUntil(t, 30*time.Second, func() bool {
		for _, c := range survivors {
			if c.Size() != n-2 {
				return false
			}
		}
		return true
	}) {
		sizes := []int{}
		for _, c := range survivors {
			sizes = append(sizes, c.Size())
		}
		t.Fatalf("survivors did not converge to %d members: %v", n-2, sizes)
	}
	// Consistency: all survivors agree on the configuration.
	configID := survivors[0].ConfigurationID()
	for _, c := range survivors {
		if c.ConfigurationID() != configID {
			t.Fatal("survivors disagree on the configuration after the crash")
		}
		for _, m := range c.Members() {
			if m.Addr == crashed[0].Addr() || m.Addr == crashed[1].Addr() {
				t.Fatal("crashed node still present in a survivor's view")
			}
		}
	}
}

func TestGracefulLeave(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 6})
	const n = 5
	clusters := startCluster(t, net, n, testSettings())
	defer stopAll(clusters)

	leaver := clusters[n-1]
	leaver.Leave()
	survivors := clusters[:n-1]
	if !waitUntil(t, 20*time.Second, func() bool {
		for _, c := range survivors {
			if c.Size() != n-1 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("graceful leave was not converted into a coordinated removal")
	}
}

func TestSubscriberReceivesViewChanges(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 7})
	settings := testSettings()
	node.SeedIDGenerator(7)
	seed, err := StartCluster(addr(0), settings, net)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []ViewChange
	seed.Subscribe(func(vc ViewChange) {
		mu.Lock()
		events = append(events, vc)
		mu.Unlock()
	})
	j, err := JoinCluster(addr(1), []node.Addr{addr(0)}, settings, net)
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll([]*Cluster{seed, j})

	if !waitUntil(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) >= 1
	}) {
		t.Fatal("subscriber never notified of the join")
	}
	mu.Lock()
	defer mu.Unlock()
	vc := events[0]
	if len(vc.Changes) != 1 || !vc.Changes[0].Joined || vc.Changes[0].Endpoint.Addr != addr(1) {
		t.Fatalf("unexpected view change contents: %+v", vc)
	}
	if vc.ConfigurationID != seed.ConfigurationID() {
		t.Fatal("view change configuration ID does not match the installed configuration")
	}
}

func TestMetadataVisibleToAllMembers(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 8})
	settings := testSettings()
	node.SeedIDGenerator(8)
	seed, err := StartCluster(addr(0), settings, net)
	if err != nil {
		t.Fatal(err)
	}
	joinerSettings := testSettings()
	joinerSettings.Metadata = map[string]string{"role": "backend", "zone": "z1"}
	j, err := JoinCluster(addr(1), []node.Addr{addr(0)}, joinerSettings, net)
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll([]*Cluster{seed, j})
	if !waitUntil(t, 10*time.Second, func() bool { return seed.Size() == 2 }) {
		t.Fatal("join did not complete")
	}
	md, ok := seed.Metadata(addr(1))
	if !ok || md["role"] != "backend" || md["zone"] != "z1" {
		t.Fatalf("metadata not propagated: %v, %v", md, ok)
	}
}

func TestAsymmetricIngressPartitionRemovesOnlyFaultyNode(t *testing.T) {
	// Figure 9 scenario, scaled down: one node stops receiving all traffic.
	// The cluster must remove exactly that node and remain stable.
	net := simnet.New(simnet.Options{Seed: 9})
	const n = 16
	settings := testSettings()
	clusters := startCluster(t, net, n, settings)
	defer stopAll(clusters)

	// In the paper's setting (n >> K) a single faulty observer never reaches
	// the L watermark for a healthy subject, because observer/subject pairs
	// rarely share multiple rings. At this test's small scale that is not
	// automatic, so pick a victim whose ring multiplicity towards every one
	// of its subjects stays below L — the topology is a deterministic
	// function of the membership, so we can compute it directly.
	victimIdx := -1
	topo := view.NewWithMembers(settings.K, clusters[0].Members())
	for i, c := range clusters {
		subjects, err := topo.SubjectsOf(c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		counts := make(map[node.Addr]int)
		for _, s := range subjects {
			counts[s]++
		}
		for _, cnt := range counts {
			if cnt >= settings.L {
				ok = false
				break
			}
		}
		if ok {
			victimIdx = i
			break
		}
	}
	if victimIdx < 0 {
		t.Skip("no suitable victim at this scale; the property only holds for n >> K")
	}
	victim := clusters[victimIdx]
	net.SetIngressLoss(victim.Addr(), 1.0)

	survivors := append([]*Cluster{}, clusters[:victimIdx]...)
	survivors = append(survivors, clusters[victimIdx+1:]...)
	if !waitUntil(t, 30*time.Second, func() bool {
		for _, c := range survivors {
			if c.Size() != n-1 {
				return false
			}
		}
		return true
	}) {
		sizes := []int{}
		for _, c := range survivors {
			sizes = append(sizes, c.Size())
		}
		t.Fatalf("cluster did not remove the partitioned node: sizes=%v", sizes)
	}
	// Stability: healthy members must all still be present everywhere.
	for _, c := range survivors {
		for _, other := range survivors {
			found := false
			for _, m := range c.Members() {
				if m.Addr == other.Addr() {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("healthy node %v was removed from %v's view", other.Addr(), c.Addr())
			}
		}
	}
}

func TestViewChangeCountIsBoundedForSimultaneousCrashes(t *testing.T) {
	// The multi-process cut should remove simultaneously crashed nodes in
	// very few view changes (ideally one), not one per failure.
	net := simnet.New(simnet.Options{Seed: 10})
	const n = 12
	clusters := startCluster(t, net, n, testSettings())
	defer stopAll(clusters)

	before := clusters[0].ViewChangeCount()
	for i := 1; i <= 3; i++ {
		net.Crash(clusters[i].Addr())
	}
	survivors := append([]*Cluster{clusters[0]}, clusters[4:]...)
	if !waitUntil(t, 30*time.Second, func() bool {
		for _, c := range survivors {
			if c.Size() != n-3 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("crashed nodes were not removed")
	}
	delta := clusters[0].ViewChangeCount() - before
	if delta > 2 {
		t.Errorf("3 simultaneous crashes caused %d view changes; expected a multi-node cut (1-2)", delta)
	}
}

func TestStopIsIdempotentAndHaltsService(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 11})
	c, err := StartCluster("solo:1", testSettings(), net)
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Stop()
	if net.Registered("solo:1") {
		t.Fatal("Stop should deregister the node from the transport")
	}
}

// TestLeaveIsAnEngineEvent: a leave announcement is sent by the engine's
// driver — one message per member of the leaver's configuration, itself
// included — so a handle that has stopped, whose driver is gone, announces
// nothing. (Leave used to unicast from the caller's goroutine whenever the
// handle had ever started, from an address Stop had already deregistered.)
func TestLeaveIsAnEngineEvent(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 12})
	const n = 5
	clusters := startCluster(t, net, n, testSettings())
	defer stopAll(clusters)

	stopped := clusters[n-1]
	stopped.Stop()
	stopped.Leave()
	if got := net.MessageCount("leave"); got != 0 {
		t.Fatalf("a stopped handle sent %d leave messages, want 0", got)
	}

	live := clusters[0]
	live.Leave()
	if !waitUntil(t, 10*time.Second, func() bool { return net.MessageCount("leave") >= n }) {
		t.Fatalf("%d leave messages sent, want %d", net.MessageCount("leave"), n)
	}
	// A pre-join is answered by the engine after the leave event ahead of it:
	// by now the driver has performed every send the leave asked for.
	if _, err := live.HandleRequest(context.Background(), "peer:1", preJoinRequest("peer:1", node.NewID())); err != nil {
		t.Fatal(err)
	}
	if got := net.MessageCount("leave"); got != n {
		t.Fatalf("%d leave messages sent, want one per member (%d)", got, n)
	}
}

// joinFleet starts a seed and n-1 members that all join at once, waits until
// every one of them reports n members, and returns them, seed first.
func joinFleet(t *testing.T, net transport.Network, addrs []node.Addr, settings Settings) []*Cluster {
	t.Helper()
	seed, err := StartCluster(addrs[0], settings, net)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	clusters := make([]*Cluster, len(addrs))
	clusters[0] = seed
	var wg sync.WaitGroup
	for i := 1; i < len(addrs); i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := JoinCluster(addrs[i], addrs[:1], settings, net)
			if err != nil {
				t.Errorf("join %d failed: %v", i, err)
				return
			}
			clusters[i] = c
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if !waitUntil(t, 60*time.Second, func() bool { return allAgree(clusters, len(addrs)) }) {
		t.Fatalf("the fleet did not converge to %d members", len(addrs))
	}
	return clusters
}

// allAgree reports whether every member holds the same configuration, of the
// given size.
func allAgree(clusters []*Cluster, size int) bool {
	for _, c := range clusters {
		if c.Size() != size || c.ConfigurationID() != clusters[0].ConfigurationID() {
			return false
		}
	}
	return true
}

// TestVotesTravelAlongTheRings: 200 members, two crash. The survivors count
// each other's votes through bitmaps pushed along the K rings: no standalone
// fast-round message, and per member and view change a handful of pushes to
// K subjects (about 4K measured, 6K allowed) where unicast-to-all sent one
// vote batch to each of the 200 — and every survivor installs the same
// configuration.
func TestVotesTravelAlongTheRings(t *testing.T) {
	if testing.Short() {
		t.Skip("a 200-member fleet is too slow for the race lane")
	}
	const n = 200
	net := simnet.New(simnet.Options{Seed: 14})
	defer net.Close()
	settings := ScaledSettings(5)
	node.SeedIDGenerator(14)
	addrs := make([]node.Addr, n)
	for i := range addrs {
		addrs[i] = addr(i)
	}
	clusters := joinFleet(t, net, addrs, settings)
	defer stopAll(clusters)

	survivors := clusters[:n-2]
	pushesBefore, changesBefore := net.MessageCount("votebatch"), survivors[0].ViewChangeCount()
	net.Crash(addrs[n-1])
	net.Crash(addrs[n-2])
	if !waitUntil(t, 60*time.Second, func() bool { return allAgree(survivors, n-2) }) {
		t.Fatal("the survivors did not agree on a configuration without the two crashed members")
	}
	if got := net.MessageCount("fastround"); got != 0 {
		t.Errorf("%d standalone fast-round messages sent; votes travel as pushed bitmaps", got)
	}
	changes := survivors[0].ViewChangeCount() - changesBefore
	perMember := float64(net.MessageCount("votebatch")-pushesBefore) / float64(len(survivors)*changes)
	t.Logf("%d view change(s), %.1f vote-batch sends per member and view change (K=%d)", changes, perMember, settings.K)
	if perMember == 0 || perMember > float64(6*settings.K) {
		t.Errorf("%.1f vote-batch sends per member and view change, want (0, %d]", perMember, 6*settings.K)
	}
}

// tcpFleetNet gives every member its own TCP transport, as separate processes
// would have, and counts what the members send by request kind.
type tcpFleetNet struct {
	mu   sync.Mutex
	nets map[node.Addr]*tcpnet.Network
	sent map[string]int
}

func (f *tcpFleetNet) of(a node.Addr) *tcpnet.Network {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nets[a] == nil {
		n, err := tcpnet.New(tcpnet.Options{})
		if err != nil {
			panic(err) // the zero Options are valid
		}
		f.nets[a] = n
	}
	return f.nets[a]
}

func (f *tcpFleetNet) Register(a node.Addr, h transport.Handler) error { return f.of(a).Register(a, h) }
func (f *tcpFleetNet) Deregister(a node.Addr)                          { f.of(a).Deregister(a) }
func (f *tcpFleetNet) Client(a node.Addr) transport.Client {
	return kindCountingClient{f.of(a).Client(a), f}
}

func (f *tcpFleetNet) count(kind string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent[kind]
}

func (f *tcpFleetNet) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.nets {
		n.Close()
	}
}

type kindCountingClient struct {
	transport.Client
	f *tcpFleetNet
}

func (c kindCountingClient) note(req *remoting.Request) {
	c.f.mu.Lock()
	c.f.sent[req.Kind()]++
	c.f.mu.Unlock()
}

func (c kindCountingClient) Send(ctx context.Context, to node.Addr, req *remoting.Request) (*remoting.Response, error) {
	c.note(req)
	return c.Client.Send(ctx, to, req)
}

func (c kindCountingClient) SendBestEffort(to node.Addr, req *remoting.Request) {
	c.note(req)
	c.Client.SendBestEffort(to, req)
}

// TestRelayedVotesCrossTheRealCodec: 48 members on loopback TCP are above the
// one-hop limit (4K = 40), so their votes are relayed as bitmaps through the
// wire codec. One crash must be decided on the fast path — no recovery round —
// by every survivor.
func TestRelayedVotesCrossTheRealCodec(t *testing.T) {
	if testing.Short() {
		t.Skip("48 members over loopback TCP are too slow for the race lane")
	}
	const n = 48
	net := &tcpFleetNet{nets: map[node.Addr]*tcpnet.Network{}, sent: map[string]int{}}
	defer net.close()
	// Free ports: held open until all are drawn, so that no two are the same.
	addrs := make([]node.Addr, n)
	held := make([]stdnet.Listener, n)
	for i := range addrs {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("cannot listen on loopback: %v", err)
		}
		addrs[i], held[i] = node.Addr(l.Addr().String()), l
	}
	for _, l := range held {
		l.Close()
	}
	settings := ScaledSettings(5)
	node.SeedIDGenerator(48)
	clusters := joinFleet(t, net, addrs, settings)
	defer stopAll(clusters)

	// Concurrent joins may well have needed recovery rounds; the crash must not.
	pushesBefore, recoveriesBefore := net.count("votebatch"), net.count("phase1a")
	victim, survivors := clusters[n-1], clusters[:n-1]
	victim.Stop() // no leave announcement: to the others this is a crash
	if !waitUntil(t, 60*time.Second, func() bool { return allAgree(survivors, n-1) }) {
		t.Fatal("the survivors did not agree on a configuration without the crashed member")
	}
	if got := net.count("phase1a") - recoveriesBefore; got != 0 {
		t.Errorf("%d recovery messages sent; the relayed bitmaps should decide on the fast path", got)
	}
	// How many pushes a member makes depends on how the votes' arrival is
	// spread against its flush window, and a compressed window over real
	// sockets spreads it wide; the count is logged, not bounded.
	pushes := net.count("votebatch") - pushesBefore
	t.Logf("%.1f vote-batch sends per member", float64(pushes)/float64(len(survivors)))
	if pushes == 0 {
		t.Error("no vote batch was sent")
	}
}

func TestEngineStats(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 15})
	clusters := startCluster(t, net, 4, testSettings())
	defer stopAll(clusters)

	stats := clusters[0].Stats()
	if stats.EventsProcessed == 0 {
		t.Error("engine processed no events despite three joins")
	}
	if stats.BatchesSent == 0 || stats.BatchSizes.Count == 0 {
		t.Errorf("no outbound batches recorded: %+v", stats)
	}
	if stats.BatchSizes.Mean <= 0 || stats.BatchSizes.Max <= 0 {
		t.Errorf("batch size aggregates not recorded: %+v", stats.BatchSizes)
	}
	if stats.QueueDepth < 0 || stats.QueueDepth > 1024 {
		t.Errorf("implausible queue depth %d", stats.QueueDepth)
	}
}

func TestSubscriberMayBlockWithoutStallingProtocol(t *testing.T) {
	// Subscribers run on a dedicated delivery goroutine: a callback that
	// blocks must not prevent further view changes from being applied.
	net := simnet.New(simnet.Options{Seed: 16})
	settings := testSettings()
	node.SeedIDGenerator(16)
	seed, err := StartCluster(addr(0), settings, net)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var delivered atomic.Int32
	seed.Subscribe(func(vc ViewChange) {
		delivered.Add(1)
		<-release
	})
	var clusters []*Cluster
	clusters = append(clusters, seed)
	defer func() {
		close(release)
		stopAll(clusters)
	}()
	// Two joins: the first delivery blocks in the subscriber, yet the second
	// view change must still be installed by the engine.
	for i := 1; i <= 2; i++ {
		c, err := JoinCluster(addr(i), []node.Addr{addr(0)}, settings, net)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		clusters = append(clusters, c)
	}
	if !waitUntil(t, 20*time.Second, func() bool { return seed.Size() == 3 }) {
		t.Fatalf("view changes stalled behind a blocking subscriber: size=%d", seed.Size())
	}
	if delivered.Load() != 1 {
		t.Errorf("expected exactly one in-flight delivery while blocked, got %d", delivered.Load())
	}
}

// alertBatch is an inbound batch of one alert, naming configID.
func alertBatch(configID uint64, seq uint64) *remoting.Request {
	return &remoting.Request{Alerts: &remoting.BatchedAlertMessage{
		Sender: "peer:1",
		Seq:    seq,
		Alerts: []remoting.AlertMessage{{
			EdgeSrc:         "peer:1",
			EdgeDst:         "ghost:1",
			Status:          remoting.EdgeDown,
			ConfigurationID: configID,
			RingNumbers:     []int{0},
		}},
	}}
}

// TestQueueFullTimeAccounted: an inbound batch blocks on a full event queue
// until the engine makes room, and the time it spent blocked is surfaced in
// EngineStats.QueueFullTime. The engine is deliberately not started, so the
// queue fills deterministically.
func TestQueueFullTimeAccounted(t *testing.T) {
	const queueSize = 4
	c, err := newCluster("stalled:1", testSettings(), simnet.New(simnet.Options{Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	c.events = make(chan event, queueSize)
	t.Cleanup(c.Stop)
	ctx := context.Background()
	for i := 0; i < queueSize; i++ {
		if _, err := c.HandleRequest(ctx, "peer:1", alertBatch(1, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.HandleRequest(ctx, "peer:1", alertBatch(1, 99))
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("enqueue should have blocked on the full queue")
	default:
	}
	<-c.events // make room; the blocked producer completes
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked producer never completed after the queue drained")
	}
	if got := c.Stats().QueueFullTime; got < 25*time.Millisecond {
		t.Fatalf("QueueFullTime %v should reflect the blocked enqueue", got)
	}
}
