package core

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/view"
)

// startConverged starts a fleet of n that is converged from birth: every
// member is handed the same membership.
func startConverged(t *testing.T, n int, s Settings, net *simnet.Network) ([]node.Endpoint, map[node.Addr]*Cluster) {
	t.Helper()
	members := make([]node.Endpoint, n)
	for i := range members {
		members[i] = endpoint(i)
	}
	fleet := make(map[node.Addr]*Cluster, n)
	for _, me := range members {
		c, err := newCluster(me.Addr, s, net)
		if err != nil {
			t.Fatal(err)
		}
		c.me = me
		if err := net.Register(me.Addr, c); err != nil {
			t.Fatal(err)
		}
		c.initialize(members)
		fleet[me.Addr] = c
		t.Cleanup(c.Stop)
	}
	return members, fleet
}

// longLived counts the goroutines that are not a probe in flight: a probe is
// a goroutine of the driver's probe function for as long as its Send takes.
func longLived() int {
	stacks := make([]byte, 1<<22)
	n := 0
	for _, g := range bytes.Split(stacks[:runtime.Stack(stacks, true)], []byte("\n\n")) {
		if !bytes.Contains(g, []byte("core.(*Cluster).probe(")) {
			n++
		}
	}
	return n
}

// TestQuietMemberRunsTwoGoroutines counts what a quiet member keeps running
// on the real clock: its driver and its subscribers' notifier, and nothing per
// monitored edge or for its probe timer. 64 converged members, two probe
// rounds in: at most two long-lived goroutines each. (A goroutine per edge
// read (K+3)·n, one timer-driven monitor per member 3·n with the probes in
// flight on top.)
func TestQuietMemberRunsTwoGoroutines(t *testing.T) {
	const n = 64
	net := simnet.New(simnet.Options{Seed: 6})
	defer net.Close()
	s := ScaledSettings(20)
	before := longLived()
	startConverged(t, n, s, net)
	if !waitUntil(t, 10*time.Second, func() bool { return net.MessageCount("probe") >= 2*n*int64(s.K) }) {
		t.Fatalf("%d probes sent, want two rounds of %d members", net.MessageCount("probe"), n)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return longLived()-before <= 2*n }) {
		t.Fatalf("%d members run %d long-lived goroutines, want at most %d", n, longLived()-before, 2*n)
	}
}

// TestQuietFleetHoldsNoFlushWaiters counts what a whole fleet keeps on its
// clock. 48 members (more than 4K, so votes are relayed) share one manual
// clock. Each member holds exactly one waiter, its driver's timer, whatever
// its engine has armed: at birth and while the first windows decay, on a
// quiet fleet while time passes — no timer per monitored edge — and at the
// detectors' verdict, when the observers of a stopped member have an alert
// to send. Once the view change has settled every member starts the new
// configuration at the floor window, not at the one the view change grew.
// There is no wall-clock threshold in here: the waits are for events, the
// bounds are step counts. The regressions this guards are a second time
// source beside the driver's timer, and a timer the driver re-arms without
// stopping the one it holds.
func TestQuietFleetHoldsNoFlushWaiters(t *testing.T) {
	const n = 48
	clk := simclock.NewManual(time.Unix(0, 0))
	net := simnet.New(simnet.Options{Seed: 5, Clock: clk})
	defer net.Close()
	s := DefaultSettings()
	s.Clock = clk
	if n <= s.oneHopLimit() {
		t.Fatalf("a fleet of %d does not relay votes", n)
	}

	members, fleet := startConverged(t, n, s, net)

	// edges is how many edges a membership monitors: the probes of one round.
	edges := func(v *view.View) int {
		total := 0
		for _, a := range v.MemberAddrs() {
			subjects, err := v.UniqueSubjectsOf(a)
			if err != nil {
				t.Fatal(err)
			}
			total += len(subjects)
		}
		return total
	}
	waiters := func(want int, when string) {
		t.Helper()
		if !waitUntil(t, 10*time.Second, func() bool { return clk.PendingWaiters() == want }) {
			t.Fatalf("%s: %d clock waiters, want %d", when, clk.PendingWaiters(), want)
		}
	}
	// syncAll returns once every live engine has gone around its loop again:
	// a pre-join is answered by the engine and arms nothing.
	syncAll := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			for _, c := range fleet {
				if _, err := c.HandleRequest(context.Background(), "joiner:1", preJoinRequest("joiner:1", node.NewID())); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// probeRound advances one probe interval and waits until every edge has
	// been probed, so that no round is coalesced away.
	probeRound := func(probes int) {
		t.Helper()
		want := net.MessageCount("probe") + int64(probes)
		clk.Advance(s.ProbeInterval)
		if !waitUntil(t, 10*time.Second, func() bool { return net.MessageCount("probe") >= want }) {
			t.Fatalf("%d probes sent in a round of %d edges", net.MessageCount("probe")-want+int64(probes), probes)
		}
		syncAll()
	}

	v := view.NewWithMembers(s.K, members)
	probes := edges(v)
	quiet := n // the driver's timer, one per member

	// Every engine is born with a flush armed, at a quarter of the ceiling,
	// and its window halves per quiet flush. The decay is over long before the
	// first probe.
	waiters(quiet, "at birth")
	for w := newWindowController(s.windowFloor(), s.windowCeiling()); w.window > w.floor; {
		clk.Advance(w.window)
		next := w.retune(0, eventQueueSize, 0)
		for a, c := range fleet {
			if !waitUntil(t, 10*time.Second, func() bool { return c.Stats().BatchWindow == next }) {
				t.Fatalf("%s: window %v after a quiet tick, want %v", a, c.Stats().BatchWindow, next)
			}
		}
		if next > w.floor {
			waiters(quiet, "while the windows decay")
		}
	}
	syncAll()
	waiters(quiet, "after the decay")

	// A quiet fleet stays quiet. Twelve rounds also fill every edge's window
	// with successes, so the fourth failed probe below is the verdict.
	for round := 0; round < 12; round++ {
		probeRound(probes)
		if got := clk.PendingWaiters(); got != quiet {
			t.Fatalf("probe round %d: %d clock waiters on a quiet fleet, want %d", round, got, quiet)
		}
	}

	// One member stops. Its observers' next three probes fail and change
	// nothing; the fourth is the detector's verdict, and exactly the observers
	// — the members with an alert to send — arm a flush, on the timer they
	// hold already.
	victim := members[n/2]
	subjects, _ := v.UniqueSubjectsOf(victim.Addr)
	observers := 0
	for _, a := range v.MemberAddrs() {
		if others, _ := v.UniqueSubjectsOf(a); a != victim.Addr && slices.Contains(others, victim.Addr) {
			observers++
		}
	}
	fleet[victim.Addr].Stop()
	delete(fleet, victim.Addr)
	probes -= len(subjects)
	quiet--
	waiters(quiet, "after a member stopped")
	for round := 0; round < 3; round++ {
		probeRound(probes)
		if got := clk.PendingWaiters(); got != quiet {
			t.Fatalf("failed probe %d: %d clock waiters, want %d", round+1, got, quiet)
		}
	}
	clk.Advance(s.ProbeInterval)
	syncAll()
	if got := clk.PendingWaiters(); got != quiet {
		t.Fatalf("%d clock waiters at the verdict, want %d", got, quiet)
	}
	// Their flushes are due one floor window after they filed the verdict:
	// each observer's batch goes to every member, and nobody else sends one.
	alerts, want := net.MessageCount("alerts"), int64(observers*n)
	for i := 0; net.MessageCount("alerts")-alerts < want; i++ {
		if i == 100 {
			t.Fatalf("%d alert messages after the verdict, want %d: one batch from each of the %d observers", net.MessageCount("alerts")-alerts, want, observers)
		}
		clk.Advance(s.windowFloor())
		syncAll()
	}
	if got := net.MessageCount("alerts") - alerts; got != want {
		t.Fatalf("%d alert messages after the verdict, want %d: one batch from each of the %d observers", got, want, observers)
	}

	// The view change runs — alerts, votes relayed along the rings, windows
	// that grow — and every member keeps its one timer. The new
	// configuration starts at the floor window on every member: a subscriber
	// reads the window as the install is announced, and the clock does not
	// move on until every member that installed has been read, so no tick can
	// have retuned it first.
	if err := v.RemoveMember(victim.Addr); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	installedWindow := map[node.Addr]time.Duration{}
	for a, c := range fleet {
		c.Subscribe(func(vc ViewChange) {
			if vc.ConfigurationID == v.ConfigurationID() {
				mu.Lock()
				installedWindow[a] = c.Stats().BatchWindow
				mu.Unlock()
			}
		})
	}
	read := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for a, c := range fleet {
			if _, ok := installedWindow[a]; !ok && c.ConfigurationID() == v.ConfigurationID() {
				return false
			}
		}
		return true
	}
	quiet = n - 1
	settled := func() bool {
		for _, c := range fleet {
			if c.Size() != n-1 {
				return false
			}
		}
		return clk.PendingWaiters() == quiet
	}
	calm := 0
	for step := 0; calm < 5; step++ {
		if step == 5000 {
			t.Fatalf("the fleet did not go quiet after the view change: %d clock waiters, want %d", clk.PendingWaiters(), quiet)
		}
		if !waitUntil(t, 10*time.Second, read) {
			t.Fatal("a member's install was never announced to its subscriber")
		}
		clk.Advance(s.windowFloor())
		syncAll()
		if settled() {
			calm++
		} else {
			calm = 0
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for a, c := range fleet {
		if got := c.ConfigurationID(); got != v.ConfigurationID() {
			t.Fatalf("%s installed configuration %x, want %x", a, got, v.ConfigurationID())
		}
		if got := installedWindow[a]; got != s.windowFloor() {
			t.Fatalf("%s started the new configuration with a %v window, want the floor %v", a, got, s.windowFloor())
		}
	}
}
