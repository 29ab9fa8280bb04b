package simnet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// --- Options.Latency on best-effort delivery (regression) --------------------

// TestBestEffortHonorsLatency is the regression test for the historical gap
// where Options.Latency applied only to synchronous request/response: a
// best-effort message must now be held for the configured latency before its
// handler runs. A manual clock proves the message is withheld until simulated
// time passes the deadline, not merely delayed by scheduling.
func TestBestEffortHonorsLatency(t *testing.T) {
	clk := simclock.NewManual(time.Unix(0, 0))
	n := New(Options{Seed: 1, Clock: clk, Latency: 100 * time.Millisecond})
	defer n.Close()
	h := &echoHandler{}
	n.Register("b:1", h)
	n.Client("a:1").SendBestEffort("b:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: "a:1"}})

	// Without advancing the clock the message must stay queued.
	time.Sleep(50 * time.Millisecond)
	if got := h.alertCount(); got != 0 {
		t.Fatalf("best-effort message delivered before latency elapsed (got %d)", got)
	}
	clk.Advance(100 * time.Millisecond)
	waitFor(t, func() bool { return h.alertCount() == 1 }, "latency-delayed best-effort delivery")
}

// TestBestEffortLatencyRealClock covers the same fix under the real clock
// (what fleets run on): delivery happens, and not before the latency.
func TestBestEffortLatencyRealClock(t *testing.T) {
	n := New(Options{Seed: 1, Latency: 60 * time.Millisecond})
	defer n.Close()
	h := &echoHandler{}
	n.Register("b:1", h)
	start := time.Now()
	n.Client("a:1").SendBestEffort("b:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: "a:1"}})
	waitFor(t, func() bool { return h.alertCount() == 1 }, "delayed best-effort delivery")
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("best-effort message arrived after %v, before the 60ms latency", elapsed)
	}
}

// --- slow-but-alive nodes ----------------------------------------------------

// TestNodeDelaySlowButAlive: a node with an installed delay still answers
// every RPC — slower, not lossy — and removing the rule restores full speed.
func TestNodeDelaySlowButAlive(t *testing.T) {
	n := New(Options{Seed: 1})
	defer n.Close()
	h := &echoHandler{}
	n.Register("b:1", h)
	n.SetNodeDelay("b:1", 30*time.Millisecond)

	start := time.Now()
	resp, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1"))
	if err != nil || resp.Probe == nil {
		t.Fatalf("slow node must still answer: %v", err)
	}
	if rtt := time.Since(start); rtt < 55*time.Millisecond {
		t.Fatalf("round trip %v, want >= 2x30ms one-way delay", rtt)
	}
	n.SetNodeDelay("b:1", 0)
	start = time.Now()
	if _, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1")); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt > 25*time.Millisecond {
		t.Fatalf("round trip %v after clearing delay, want fast", rtt)
	}
}

// TestSlowNodeTimesOutBoundedRPCs: the delay races the caller's context
// deadline, so a prober with a tight timeout sees a failure — the mechanism
// that makes "slow" a protocol-visible gray failure.
func TestSlowNodeTimesOutBoundedRPCs(t *testing.T) {
	n := New(Options{Seed: 1})
	defer n.Close()
	h := &echoHandler{}
	n.Register("b:1", h)
	n.SetNodeDelay("b:1", 200*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.Client("a:1").Send(ctx, "b:1", probe("a:1"))
	if err != transport.ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Fatal("timed-out RPC still slept the full delay")
	}
}

// TestDelayPumpArmsOneDeadline: a burst of sends through a delay rule wakes
// the shard's delay pump once per push while the heap head is not yet due.
// Each wake re-arms the pump's one timer, so the burst leaves a single armed
// deadline on the clock, not one per wake, and advancing past it delivers
// the whole burst and leaves nothing armed.
func TestDelayPumpArmsOneDeadline(t *testing.T) {
	const sends = 2000
	clk := simclock.NewManual(time.Unix(0, 0))
	n := New(Options{Seed: 1, Clock: clk})
	defer n.Close()
	h := &echoHandler{}
	n.Register("b:1", h)
	n.SetNodeDelay("b:1", time.Second)
	c := n.Client("a:1")
	for range sends {
		c.SendBestEffort("b:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: "a:1"}})
	}
	time.Sleep(50 * time.Millisecond) // let the pump take its last wake
	if got := clk.PendingWaiters(); got != 1 {
		t.Fatalf("%d waiters pending after %d delayed sends, want the pump's one deadline", got, sends)
	}
	clk.Advance(time.Second)
	waitFor(t, func() bool { return h.alertCount() == sends }, "the delayed burst delivered")
	waitFor(t, func() bool { return clk.PendingWaiters() == 0 }, "the pump idle with nothing armed")
}

// TestLateWakeUpInsideTheDeadlineIsNoTimeout: a round trip that fits the
// caller's deadline succeeds even when the sleeper wakes only after the
// deadline has passed, as a loaded host or timer slack makes it. A manual
// clock jumps past both the arrival and the deadline in one step, so both
// are due when the sender runs again.
func TestLateWakeUpInsideTheDeadlineIsNoTimeout(t *testing.T) {
	clk := simclock.NewManual(time.Unix(0, 0))
	n := New(Options{Seed: 1, Clock: clk, Latency: 10 * time.Millisecond})
	defer n.Close()
	n.Register("b:1", &echoHandler{})
	ctx, cancel := simclock.WithTimeout(clk, 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := n.Client("a:1").Send(ctx, "b:1", probe("a:1"))
		done <- err
	}()
	waitFor(t, func() bool { return clk.PendingWaiters() >= 2 }, "the request's arrival and the deadline armed")
	clk.Advance(60 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("a 20ms round trip under a 50ms deadline failed with %v", err)
	}
}

// --- flapping rules ----------------------------------------------------------

// TestFlapScheduleTogglesLoss drives the flap phases with a manual clock:
// active at install, inactive after On elapses, active again a full cycle in.
func TestFlapScheduleTogglesLoss(t *testing.T) {
	clk := simclock.NewManual(time.Unix(0, 0))
	n := New(Options{Seed: 1, Clock: clk})
	defer n.Close()
	h := &echoHandler{}
	n.Register("b:1", h)
	n.SetFlap("b:1", FlapSpec{Loss: 1.0, Ingress: true, On: 50 * time.Millisecond, Off: 50 * time.Millisecond})

	send := func() error {
		_, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1"))
		return err
	}
	if err := send(); err == nil {
		t.Fatal("flap should be in its On (lossy) phase right after install")
	}
	clk.Advance(60 * time.Millisecond) // into the Off phase
	if err := send(); err != nil {
		t.Fatalf("flap Off phase should deliver: %v", err)
	}
	clk.Advance(50 * time.Millisecond) // wraps into the next On phase
	if err := send(); err == nil {
		t.Fatal("flap should be lossy again one full cycle in")
	}
	n.ClearFlap("b:1")
	if err := send(); err != nil {
		t.Fatalf("cleared flap should deliver: %v", err)
	}
}

// --- asymmetric partitions ---------------------------------------------------

// TestAsymmetricPartition: deaf members hear only each other while their own
// traffic still reaches everyone.
func TestAsymmetricPartition(t *testing.T) {
	n := New(Options{Seed: 1})
	defer n.Close()
	handlers := map[node.Addr]*echoHandler{}
	for _, a := range []node.Addr{"a:1", "b:1", "c:1"} {
		h := &echoHandler{}
		handlers[a] = h
		n.Register(a, h)
	}
	n.SetAsymmetricPartition("a:1", "b:1")

	// Outside -> deaf is dropped.
	if _, err := n.Client("c:1").Send(context.Background(), "a:1", probe("c:1")); err == nil {
		t.Fatal("deaf member heard an outside sender")
	}
	// Deaf -> outside delivers the request, but the response path (outside ->
	// deaf) is blocked, like a one-way link.
	if _, err := n.Client("a:1").Send(context.Background(), "c:1", probe("a:1")); err != transport.ErrTimeout {
		t.Fatal("deaf member's own traffic should reach outside (and lose the response)")
	}
	// Deaf members hear each other.
	if _, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1")); err != nil {
		t.Fatalf("deaf members should hear each other: %v", err)
	}
	n.ClearAsymmetricPartition()
	if _, err := n.Client("c:1").Send(context.Background(), "a:1", probe("c:1")); err != nil {
		t.Fatalf("cleared partition should deliver: %v", err)
	}
}

// --- WAN latency classes -----------------------------------------------------

// TestZoneLatencyClasses: the zone model charges intra- and cross-zone links
// differently, deterministically in the addresses.
func TestZoneLatencyClasses(t *testing.T) {
	model := ZoneLatency(3, time.Millisecond, 40*time.Millisecond)
	// Zones are address hashes; find two same-zone and two cross-zone addrs.
	zone := func(a node.Addr) uint32 { return addrHash(a) % 3 }
	addrs := make([]node.Addr, 64)
	for i := range addrs {
		addrs[i] = node.Addr(fmt.Sprintf("m%04d:9000", i))
	}
	var same, cross [2]node.Addr
	foundSame, foundCross := false, false
	for _, a := range addrs[1:] {
		if zone(a) == zone(addrs[0]) && !foundSame {
			same = [2]node.Addr{addrs[0], a}
			foundSame = true
		}
		if zone(a) != zone(addrs[0]) && !foundCross {
			cross = [2]node.Addr{addrs[0], a}
			foundCross = true
		}
	}
	if !foundSame || !foundCross {
		t.Fatal("test addresses did not span zones")
	}
	if d := model(same[0], same[1]); d != time.Millisecond {
		t.Fatalf("intra-zone delay = %v, want 1ms", d)
	}
	if d := model(cross[0], cross[1]); d != 40*time.Millisecond {
		t.Fatalf("cross-zone delay = %v, want 40ms", d)
	}

	// Installed on a network, the model delays the cross-zone link.
	n := New(Options{Seed: 1})
	defer n.Close()
	h := &echoHandler{}
	n.Register(cross[1], h)
	n.SetLatencyModel(model)
	start := time.Now()
	if _, err := n.Client(cross[0]).Send(context.Background(), cross[1], probe(cross[0])); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 75*time.Millisecond {
		t.Fatalf("cross-zone round trip %v, want >= 2x40ms", rtt)
	}
	n.SetLatencyModel(nil)
	start = time.Now()
	if _, err := n.Client(cross[0]).Send(context.Background(), cross[1], probe(cross[0])); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt > 30*time.Millisecond {
		t.Fatalf("round trip %v after removing model, want fast", rtt)
	}
}

// --- chaos: duplication and reordering ---------------------------------------

// TestChaosDuplicatesEveryMessage: Duplicate=1 doubles delivery and counts
// the copies.
func TestChaosDuplicatesEveryMessage(t *testing.T) {
	n := New(Options{Seed: 1})
	defer n.Close()
	h := &echoHandler{}
	n.Register("b:1", h)
	n.SetChaos(ChaosSpec{Duplicate: 1.0})
	cl := n.Client("a:1")
	for i := 0; i < 10; i++ {
		cl.SendBestEffort("b:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: "a:1", Seq: uint64(i)}})
	}
	waitFor(t, func() bool { return h.alertCount() == 20 }, "duplicated deliveries")
	if n.Duplicates() != 10 {
		t.Fatalf("Duplicates() = %d, want 10", n.Duplicates())
	}
	n.ClearChaos()
	cl.SendBestEffort("b:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: "a:1"}})
	waitFor(t, func() bool { return h.alertCount() == 21 }, "post-clear delivery")
	if n.Duplicates() != 10 {
		t.Fatal("cleared chaos still duplicating")
	}
}

// TestChaosReordersDelivery: with full reorder probability and a manual
// clock, jittered messages leave the delay heap in deadline order, not send
// order.
func TestChaosReordersDelivery(t *testing.T) {
	clk := simclock.NewManual(time.Unix(0, 0))
	n := New(Options{Seed: 7, Clock: clk, Shards: 1})
	defer n.Close()
	h := &traceHandler{}
	n.Register("d0:1", h)
	n.SetChaos(ChaosSpec{Reorder: 1.0, MaxJitter: 100 * time.Millisecond})
	cl := n.Client("s0:1")
	const sends = 20
	for i := 0; i < sends; i++ {
		cl.SendBestEffort("d0:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: "s0:1", Seq: uint64(i)}})
	}
	clk.Advance(200 * time.Millisecond)
	waitFor(t, func() bool { return len(h.snapshot()) == sends }, "jittered deliveries")
	trace := h.snapshot()
	sendOrder := true
	for i := range trace {
		if trace[i] != alertTag("s0:1", uint64(i)) {
			sendOrder = false
			break
		}
	}
	if sendOrder {
		t.Fatal("full reorder jitter delivered every message in send order")
	}
}

// alertTag mirrors traceHandler's encoding of one delivered alert.
func alertTag(from node.Addr, seq uint64) string {
	return string(from) + "#" + string(rune('0'+seq%10)) + "-" +
		string(rune('0'+(seq/10)%10)) + string(rune('0'+(seq/100)%10))
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// --- table-driven determinism suite ------------------------------------------

// faultKindCase drives one fault kind through the deterministic send schedule
// of TestDeterministicTraceAcrossShards. Kinds that rely on simulated time run
// under a manual clock: schedule-driven kinds (flaps) advance the clock
// between send batches, delay-driven kinds (slow nodes, WAN classes, jitter,
// Options.Latency) hold every delayed message in the shard heaps until one
// final flush advance, so the delivery order is a pure function of the seed.
type faultKindCase struct {
	name    string
	manual  bool
	latency time.Duration
	install func(n *Network)
	// advanceEvery/advanceStep move a manual clock forward mid-schedule
	// (only safe for kinds that install no delay rules: delayed deliveries
	// racing live sends would interleave nondeterministically).
	advanceEvery int
	advanceStep  time.Duration
	// probabilistic marks kinds whose trace should change with the seed.
	probabilistic bool
}

func faultKindCases() []faultKindCase {
	return []faultKindCase{
		{
			name: "slow-nodes", manual: true, probabilistic: true,
			install: func(n *Network) {
				n.SetNodeDelay("d0:1", 30*time.Millisecond)
				n.SetNodeDelay("d3:1", 70*time.Millisecond)
				n.SetEgressLoss("s0:1", 0.3)
			},
		},
		{
			name: "oneway-links", probabilistic: true,
			install: func(n *Network) {
				n.BlockDirectional("s0:1", "d0:1")
				n.BlockDirectional("s1:1", "d2:1")
				n.SetEgressLoss("s2:1", 0.3)
			},
		},
		{
			name: "flap", manual: true, probabilistic: true,
			advanceEvery: 50, advanceStep: 5 * time.Millisecond,
			install: func(n *Network) {
				n.SetFlap("d1:1", FlapSpec{Loss: 1.0, Ingress: true, On: 30 * time.Millisecond, Off: 30 * time.Millisecond})
				n.SetFlap("s2:1", FlapSpec{Loss: 1.0, On: 20 * time.Millisecond, Off: 40 * time.Millisecond})
				n.SetEgressLoss("s0:1", 0.3)
			},
		},
		{
			name: "asym-partition", probabilistic: true,
			install: func(n *Network) {
				n.SetAsymmetricPartition("d0:1", "d1:1", "s0:1")
				n.SetIngressLoss("d2:1", 0.4)
			},
		},
		{
			name: "wan-zones", manual: true,
			install: func(n *Network) {
				n.SetLatencyModel(ZoneLatency(3, 2*time.Millisecond, 20*time.Millisecond))
			},
		},
		{
			name: "dup-reorder", manual: true, probabilistic: true,
			install: func(n *Network) {
				n.SetChaos(ChaosSpec{Duplicate: 0.3, Reorder: 0.5, MaxJitter: 50 * time.Millisecond})
			},
		},
		{
			name: "best-effort-latency", manual: true,
			latency: 10 * time.Millisecond,
			install: func(n *Network) {},
		},
	}
}

// faultTraceResult is everything a fault-kind replay must reproduce.
type faultTraceResult struct {
	traces map[node.Addr][]string
	total  int64
	alerts int64
	dups   int64
}

// runFaultKindTrace runs the fixed send schedule under tc's fault kind.
func runFaultKindTrace(t *testing.T, seed int64, tc faultKindCase) faultTraceResult {
	t.Helper()
	opts := Options{Seed: seed, Shards: 4, Latency: tc.latency}
	var clk *simclock.Manual
	if tc.manual {
		clk = simclock.NewManual(time.Unix(0, 0))
		opts.Clock = clk
	}
	net := New(opts)
	defer net.Close()
	dsts := []node.Addr{"d0:1", "d1:1", "d2:1", "d3:1", "d4:1", "d5:1"}
	handlers := make(map[node.Addr]*traceHandler, len(dsts))
	for _, d := range dsts {
		h := &traceHandler{}
		handlers[d] = h
		if err := net.Register(d, h); err != nil {
			t.Fatal(err)
		}
	}
	srcs := []node.Addr{"s0:1", "s1:1", "s2:1"}
	tc.install(net)
	clients := make([]transport.Client, len(srcs))
	for i, s := range srcs {
		clients[i] = net.Client(s)
	}
	const sends = 600
	for i := 0; i < sends; i++ {
		req := &remoting.Request{Alerts: &remoting.BatchedAlertMessage{
			Sender: srcs[i%len(srcs)], Seq: uint64(i),
		}}
		clients[i%len(clients)].SendBestEffort(dsts[i%len(dsts)], req)
		if clk != nil && tc.advanceEvery > 0 && (i+1)%tc.advanceEvery == 0 {
			clk.Advance(tc.advanceStep)
		}
	}
	if clk != nil {
		// Flush the delay heaps: one advance far past every pending deadline.
		clk.Advance(time.Second)
	}
	// Drain until every accepted copy has left its destination's backlog, then
	// close the network, which waits for the delivery workers: the last
	// handler has returned. The condition counts messages, not quiet time, so
	// a starved delivery worker cannot end the drain early.
	waitFor(t, func() bool {
		for _, d := range dsts {
			if st, ok := net.lookup(d); !ok || st.pending.Load() != 0 {
				return false
			}
		}
		return true
	}, "every accepted delivery")
	net.Close()
	res := faultTraceResult{
		traces: make(map[node.Addr][]string, len(dsts)),
		total:  net.TotalMessages(),
		alerts: net.MessageCount((&remoting.Request{Alerts: &remoting.BatchedAlertMessage{}}).Kind()),
		dups:   net.Duplicates(),
	}
	for d, h := range handlers {
		res.traces[d] = h.snapshot()
	}
	return res
}

func sameFaultTrace(a, b faultTraceResult) bool {
	if a.total != b.total || a.alerts != b.alerts || a.dups != b.dups || len(a.traces) != len(b.traces) {
		return false
	}
	for d, ta := range a.traces {
		tb := b.traces[d]
		if len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if ta[i] != tb[i] {
				return false
			}
		}
	}
	return true
}

// TestDeterministicFaultKindTraces extends TestDeterministicTraceAcrossShards
// into a table over every composable fault kind: replaying a kind twice from
// the same seed must reproduce the per-kind message counts, the duplicate
// count, and each destination's exact delivery trace; kinds with a
// probabilistic component must diverge under a different seed.
func TestDeterministicFaultKindTraces(t *testing.T) {
	for _, tc := range faultKindCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a := runFaultKindTrace(t, 4242, tc)
			b := runFaultKindTrace(t, 4242, tc)
			if !sameFaultTrace(a, b) {
				t.Fatalf("same seed diverged for %s (totals %d/%d, alerts %d/%d, dups %d/%d)",
					tc.name, a.total, b.total, a.alerts, b.alerts, a.dups, b.dups)
			}
			if a.total == 0 {
				t.Fatalf("no messages observed for %s", tc.name)
			}
			if tc.probabilistic {
				c := runFaultKindTrace(t, 777, tc)
				if sameFaultTrace(a, c) {
					t.Fatalf("different seeds produced identical traces for %s", tc.name)
				}
			}
		})
	}
}
