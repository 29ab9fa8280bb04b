package simnet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// echoHandler responds to probes and counts alerts.
type echoHandler struct {
	mu     sync.Mutex
	probes int
	alerts int
}

func (h *echoHandler) HandleRequest(_ context.Context, _ node.Addr, req *remoting.Request) (*remoting.Response, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case req.Probe != nil:
		h.probes++
		return &remoting.Response{Probe: &remoting.ProbeResponse{Status: remoting.NodeOK}}, nil
	case req.Alerts != nil:
		h.alerts++
		return remoting.AckResponse(), nil
	}
	return remoting.AckResponse(), nil
}

func (h *echoHandler) alertCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.alerts
}

func probe(from node.Addr) *remoting.Request {
	return &remoting.Request{Probe: &remoting.ProbeRequest{Sender: from}}
}

func TestSendDeliversAndResponds(t *testing.T) {
	n := New(Options{Seed: 1})
	h := &echoHandler{}
	if err := n.Register("b:1", h); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if resp.Probe == nil || resp.Probe.Status != remoting.NodeOK {
		t.Fatalf("unexpected response %+v", resp)
	}
}

func TestSendToUnknownAddressFails(t *testing.T) {
	n := New(Options{Seed: 1})
	_, err := n.Client("a:1").Send(context.Background(), "nowhere:1", probe("a:1"))
	if err != transport.ErrUnreachable {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestCrashMakesNodeUnreachable(t *testing.T) {
	n := New(Options{Seed: 1})
	h := &echoHandler{}
	n.Register("b:1", h)
	n.Crash("b:1")
	if n.Registered("b:1") {
		t.Fatal("crashed node still registered")
	}
	if _, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1")); err == nil {
		t.Fatal("send to crashed node should fail")
	}
}

func TestEgressLossDropsAllTraffic(t *testing.T) {
	n := New(Options{Seed: 1})
	h := &echoHandler{}
	n.Register("b:1", h)
	n.SetEgressLoss("a:1", 1.0)
	if _, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1")); err == nil {
		t.Fatal("send should fail with 100% egress loss at sender")
	}
	n.SetEgressLoss("a:1", 0)
	if _, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1")); err != nil {
		t.Fatalf("send should succeed after clearing loss: %v", err)
	}
}

func TestIngressLossAffectsResponsePath(t *testing.T) {
	// One-way partition: node a's ingress is blocked. a can still deliver
	// requests to b, but never hears the response (like iptables INPUT drop).
	n := New(Options{Seed: 1})
	ha, hb := &echoHandler{}, &echoHandler{}
	n.Register("a:1", ha)
	n.Register("b:1", hb)
	n.SetIngressLoss("a:1", 1.0)

	// a -> b request is delivered (b handles it) but the response times out.
	_, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1"))
	if err != transport.ErrTimeout {
		t.Fatalf("expected response-path timeout, got %v", err)
	}
	hb.mu.Lock()
	probes := hb.probes
	hb.mu.Unlock()
	if probes != 1 {
		t.Fatalf("request should still have been delivered to b, probes=%d", probes)
	}
	// b -> a is fully blocked.
	if _, err := n.Client("b:1").Send(context.Background(), "a:1", probe("b:1")); err == nil {
		t.Fatal("b should not reach a while a's ingress is blocked")
	}
}

func TestPartialLossRate(t *testing.T) {
	n := New(Options{Seed: 42})
	h := &echoHandler{}
	n.Register("b:1", h)
	n.SetEgressLoss("a:1", 0.8)
	cl := n.Client("a:1")
	ok := 0
	const attempts = 1000
	for i := 0; i < attempts; i++ {
		if _, err := cl.Send(context.Background(), "b:1", probe("a:1")); err == nil {
			ok++
		}
	}
	// With 80% loss the success rate should be near 20%.
	if ok < attempts*10/100 || ok > attempts*30/100 {
		t.Errorf("success count %d out of %d not consistent with 80%% loss", ok, attempts)
	}
}

func TestBlockPairAndUnblock(t *testing.T) {
	n := New(Options{Seed: 1})
	ha, hb := &echoHandler{}, &echoHandler{}
	n.Register("a:1", ha)
	n.Register("b:1", hb)
	n.BlockPair("a:1", "b:1")
	if _, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1")); err == nil {
		t.Fatal("a->b should be blocked")
	}
	if _, err := n.Client("b:1").Send(context.Background(), "a:1", probe("b:1")); err == nil {
		t.Fatal("b->a should be blocked")
	}
	n.UnblockPair("a:1", "b:1")
	if _, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1")); err != nil {
		t.Fatalf("a->b should work after unblock: %v", err)
	}
}

func TestBlockDirectionalOnly(t *testing.T) {
	n := New(Options{Seed: 1})
	ha, hb := &echoHandler{}, &echoHandler{}
	n.Register("a:1", ha)
	n.Register("b:1", hb)
	n.BlockDirectional("a:1", "b:1")
	if _, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1")); err == nil {
		t.Fatal("a->b should be blocked")
	}
	// b->a request goes through, and the response path a->b... the response
	// travels from a (handler side) back to b, i.e. direction a->b is blocked,
	// so this should time out on the response path.
	if _, err := n.Client("b:1").Send(context.Background(), "a:1", probe("b:1")); err != transport.ErrTimeout {
		t.Fatalf("expected timeout due to blocked response path, got %v", err)
	}
}

func TestSendBestEffortDelivered(t *testing.T) {
	n := New(Options{Seed: 1})
	h := &echoHandler{}
	n.Register("b:1", h)
	cl := n.Client("a:1")
	for i := 0; i < 10; i++ {
		cl.SendBestEffort("b:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: "a:1"}})
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.alertCount() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.alertCount() != 10 {
		t.Fatalf("delivered %d best-effort messages, want 10", h.alertCount())
	}
}

func TestSendBestEffortToBlockedOrUnknownIsSilent(t *testing.T) {
	n := New(Options{Seed: 1})
	h := &echoHandler{}
	n.Register("b:1", h)
	n.BlockDirectional("a:1", "b:1")
	cl := n.Client("a:1")
	cl.SendBestEffort("b:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{}})
	cl.SendBestEffort("nowhere:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{}})
	time.Sleep(50 * time.Millisecond)
	if h.alertCount() != 0 {
		t.Fatal("blocked best-effort message was delivered")
	}
}

func TestClearFaults(t *testing.T) {
	n := New(Options{Seed: 1})
	h := &echoHandler{}
	n.Register("b:1", h)
	n.SetEgressLoss("a:1", 1.0)
	n.SetIngressLoss("b:1", 1.0)
	n.BlockPair("a:1", "b:1")
	n.ClearFaults()
	if _, err := n.Client("a:1").Send(context.Background(), "b:1", probe("a:1")); err != nil {
		t.Fatalf("send should succeed after ClearFaults: %v", err)
	}
}

// TestBandwidthAccounting keeps the bandwidth accounting honest: a sender and
// its receiver are charged a message's encoded length, on the best-effort path
// and in both directions of a Send, for a mix of kinds that includes a
// 500-member JoinResponse larger than any message sized before it.
func TestBandwidthAccounting(t *testing.T) {
	n := New(Options{Seed: 1, Clock: simclock.NewManual(time.Unix(0, 0)), AccountBandwidth: true})
	defer n.Close()
	members := make([]node.Endpoint, 500)
	for i := range members {
		members[i] = node.NewEndpoint(node.Addr(fmt.Sprintf("10.0.%d.%d:7000", i/256, i%256)))
	}
	alerts := &remoting.BatchedAlertMessage{Sender: "a:1"}
	for i := 0; i < 8; i++ {
		alerts.Alerts = append(alerts.Alerts, remoting.AlertMessage{
			EdgeSrc: "a:1", EdgeDst: members[i].Addr, Status: remoting.EdgeDown, ConfigurationID: 42, RingNumbers: []int{1, 5},
		})
	}
	observers := []node.Addr{members[0].Addr, members[1].Addr, members[2].Addr}
	messages := []struct {
		req  *remoting.Request
		resp *remoting.Response
	}{
		{probe("a:1"), &remoting.Response{Probe: &remoting.ProbeResponse{Sender: "b:1", Status: remoting.NodeOK}}},
		{&remoting.Request{Alerts: alerts}, remoting.AckResponse()},
		{&remoting.Request{PreJoin: &remoting.PreJoinRequest{Sender: "a:1", JoinerID: node.NewID()}},
			&remoting.Response{PreJoin: &remoting.PreJoinResponse{Sender: "b:1", Status: remoting.JoinSafeToJoin, ConfigurationID: 42, Observers: observers}}},
		{&remoting.Request{Join: &remoting.JoinRequest{Sender: "a:1", JoinerID: node.NewID(), ConfigurationID: 42, RingNumbers: []int{0, 1, 2}}},
			&remoting.Response{Join: &remoting.JoinResponse{Sender: "b:1", Status: remoting.JoinSafeToJoin, ConfigurationID: 42, Members: members}}},
		{probe("a:1"), remoting.AckResponse()},
	}
	total := func(rates []float64) (sum int) {
		for _, r := range rates {
			sum += int(r)
		}
		return sum
	}
	for i, m := range messages {
		req, _ := remoting.EncodeRequest(m.req)
		resp, _ := remoting.EncodeResponse(m.resp)
		for _, oneWay := range []bool{false, true} {
			from, to := node.Addr(fmt.Sprintf("s%d-%v:1", i, oneWay)), node.Addr(fmt.Sprintf("r%d-%v:1", i, oneWay))
			n.Register(to, &nopHandler{resp: m.resp})
			wantResp := len(resp)
			if oneWay {
				n.Client(from).SendBestEffort(to, m.req)
				wantResp = 0
			} else if _, err := n.Client(from).Send(context.Background(), to, m.req); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				what      string
				got, want int
			}{
				{"sender's sent", total(n.Bandwidth(from).SentRates()), len(req)},
				{"receiver's received", total(n.Bandwidth(to).ReceivedRates()), len(req)},
				{"receiver's sent", total(n.Bandwidth(to).SentRates()), wantResp},
				{"sender's received", total(n.Bandwidth(from).ReceivedRates()), wantResp},
			} {
				if c.got != c.want {
					t.Errorf("%s (one-way %v): %s bytes = %d, want the encoded length %d", m.req.Kind(), oneWay, c.what, c.got, c.want)
				}
			}
		}
	}
}

func TestReRegisterReplacesHandler(t *testing.T) {
	n := New(Options{Seed: 1})
	h1, h2 := &echoHandler{}, &echoHandler{}
	n.Register("b:1", h1)
	n.Register("b:1", h2)
	n.Client("a:1").Send(context.Background(), "b:1", probe("a:1"))
	h2.mu.Lock()
	defer h2.mu.Unlock()
	if h2.probes != 1 {
		t.Error("second handler should receive traffic after re-registration")
	}
}

func TestNumRegistered(t *testing.T) {
	n := New(Options{Seed: 1})
	n.Register("a:1", &echoHandler{})
	n.Register("b:1", &echoHandler{})
	if n.NumRegistered() != 2 {
		t.Fatalf("NumRegistered = %d, want 2", n.NumRegistered())
	}
	n.Deregister("a:1")
	if n.NumRegistered() != 1 {
		t.Fatalf("NumRegistered = %d, want 1", n.NumRegistered())
	}
}

// traceHandler records the (sender, seq) of every delivered alert batch.
type traceHandler struct {
	mu    sync.Mutex
	trace []string
}

func (h *traceHandler) HandleRequest(_ context.Context, from node.Addr, req *remoting.Request) (*remoting.Response, error) {
	h.mu.Lock()
	h.trace = append(h.trace, string(from)+"#"+string(rune('0'+req.Alerts.Seq%10))+"-"+
		string(rune('0'+(req.Alerts.Seq/10)%10))+string(rune('0'+(req.Alerts.Seq/100)%10)))
	h.mu.Unlock()
	return remoting.AckResponse(), nil
}

func (h *traceHandler) snapshot() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.trace...)
}

// runTrace drives one deterministic send schedule through a freshly seeded
// network and returns the per-destination delivery traces.
func runTrace(t *testing.T, seed int64) map[node.Addr][]string {
	t.Helper()
	net := New(Options{Seed: seed, Shards: 4})
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
	for _, s := range srcs {
		net.SetEgressLoss(s, 0.3)
	}
	net.SetIngressLoss("d1:1", 0.5)
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
	}
	// Drain: wait until every trace stops growing for several consecutive
	// polls (a single quiet poll could be a scheduler hiccup on a loaded
	// machine, truncating the trace early).
	var last, stable int
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		total := 0
		for _, h := range handlers {
			total += len(h.snapshot())
		}
		if total == last && total > 0 {
			if stable++; stable >= 5 {
				break
			}
		} else {
			stable = 0
		}
		last = total
		time.Sleep(20 * time.Millisecond)
	}
	out := make(map[node.Addr][]string, len(dsts))
	for d, h := range handlers {
		out[d] = h.snapshot()
	}
	return out
}

// TestDeterministicTraceAcrossShards asserts the sharded network is
// reproducible: for a fixed seed and send schedule, the same messages survive
// the loss rules and each destination observes them in the same order. Drop
// decisions come from per-shard RNGs, so a shared seed fully determines the
// trace even though delivery itself runs on concurrent shard workers.
func TestDeterministicTraceAcrossShards(t *testing.T) {
	a := runTrace(t, 1234)
	b := runTrace(t, 1234)
	if len(a) != len(b) {
		t.Fatalf("trace maps differ in size: %d vs %d", len(a), len(b))
	}
	delivered := 0
	for d, ta := range a {
		tb := b[d]
		if len(ta) != len(tb) {
			t.Fatalf("destination %s delivered %d vs %d messages across identically seeded runs", d, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("destination %s trace diverges at %d: %q vs %q", d, i, ta[i], tb[i])
			}
		}
		delivered += len(ta)
	}
	if delivered == 0 || delivered == 600 {
		t.Fatalf("delivered %d of 600: loss rules should drop some but not all", delivered)
	}
	// A different seed must produce a different trace (otherwise the assertion
	// above is vacuous).
	c := runTrace(t, 99)
	same := true
	for d, ta := range a {
		tc := c[d]
		if len(ta) != len(tc) {
			same = false
			break
		}
		for i := range ta {
			if ta[i] != tc[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// nopHandler acks without allocating.
type nopHandler struct {
	calls atomic.Int64
	resp  *remoting.Response
}

func (h *nopHandler) HandleRequest(context.Context, node.Addr, *remoting.Request) (*remoting.Response, error) {
	h.calls.Add(1)
	return h.resp, nil
}

// TestSendBestEffortZeroAlloc asserts the steady-state best-effort path —
// counter bump, fault fast path, endpoint lookup, delivery event, shard queue —
// performs no per-message heap allocation: as it is, with bandwidth accounting
// (which sizes every message in the sender shard's scratch buffer), and
// through a delay rule (the destination shard's delay heap and its pump).
func TestSendBestEffortZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		delay time.Duration
	}{
		{name: "plain"},
		{name: "accounting", opts: Options{AccountBandwidth: true}},
		{name: "delayed", delay: time.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The inbox holds the whole warm-up, so no message of the
			// measured run is dropped before it is sized and queued.
			tc.opts.Seed, tc.opts.Shards, tc.opts.InboxSize = 1, 2, 1<<14
			net := New(tc.opts)
			defer net.Close()
			h := &nopHandler{resp: remoting.AckResponse()}
			if err := net.Register("b:1", h); err != nil {
				t.Fatal(err)
			}
			net.SetNodeDelay("b:1", tc.delay)
			cl := net.Client("a:1")
			req := &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: "a:1", Seq: 1}}
			for i := 0; i < 8; i++ {
				req.Alerts.Alerts = append(req.Alerts.Alerts, remoting.AlertMessage{
					EdgeSrc: "a:1", EdgeDst: node.Addr(fmt.Sprintf("b%d:1", i)),
					Status: remoting.EdgeDown, ConfigurationID: 42, RingNumbers: []int{1, 5},
				})
			}
			// Warm up: grow the shard ring, the delay heap and the scratch
			// buffer, then let the worker drain.
			const warmup = 8192
			for i := 0; i < warmup; i++ {
				cl.SendBestEffort("b:1", req)
			}
			waitFor(t, func() bool { return h.calls.Load() == warmup }, "the warm-up to drain")
			allocs := testing.AllocsPerRun(4000, func() {
				cl.SendBestEffort("b:1", req)
			})
			if allocs >= 1 {
				t.Errorf("SendBestEffort allocates %.2f times per message, want ~0 (delivery events are values, sizing reuses a scratch buffer)", allocs)
			}
		})
	}
}

// TestCloseStopsDelivery verifies Close drops queued traffic, keeps sync
// Sends working, and makes further best-effort sends harmless.
func TestCloseStopsDelivery(t *testing.T) {
	net := New(Options{Seed: 1})
	h := &echoHandler{}
	net.Register("b:1", h)
	net.Close()
	cl := net.Client("a:1")
	cl.SendBestEffort("b:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{}})
	if _, err := cl.Send(context.Background(), "b:1", probe("a:1")); err != nil {
		t.Fatalf("synchronous Send should still work after Close: %v", err)
	}
	net.Close() // idempotent
}

// TestConcurrentFaultMutation races loss updates against ClearFaults and
// traffic (the flip-flop fault injector does exactly this) and then checks
// the rule accounting is still exact: after the dust settles, installed rules
// must drop traffic and cleared rules must let it through (i.e. the no-fault
// fast path did not get stuck on a leaked rule count).
func TestConcurrentFaultMutation(t *testing.T) {
	net := New(Options{Seed: 1, Shards: 2})
	defer net.Close()
	net.Register("b:1", &echoHandler{})
	cl := net.Client("a:1")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, mutate := range []func(){
		func() { net.SetIngressLoss("b:1", 1.0); net.SetIngressLoss("b:1", 0) },
		func() { net.SetEgressLoss("a:1", 0.5); net.SetEgressLoss("a:1", 0) },
		func() { net.ClearFaults() },
		func() { cl.SendBestEffort("b:1", &remoting.Request{Leave: &remoting.LeaveMessage{Sender: "a:1"}}) },
	} {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}(mutate)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	net.ClearFaults()
	if _, err := cl.Send(context.Background(), "b:1", probe("a:1")); err != nil {
		t.Fatalf("send should succeed with all faults cleared: %v", err)
	}
	net.SetEgressLoss("a:1", 1.0)
	if _, err := cl.Send(context.Background(), "b:1", probe("a:1")); err == nil {
		t.Fatal("send should fail with 100% egress loss installed after the churn")
	}
	net.SetEgressLoss("a:1", 0)
	if _, err := cl.Send(context.Background(), "b:1", probe("a:1")); err != nil {
		t.Fatalf("send should succeed after clearing the rule: %v", err)
	}
}

func TestMessageCounts(t *testing.T) {
	net := New(Options{Seed: 1})
	if err := net.Register("b:1", transport.HandlerFunc(
		func(ctx context.Context, from node.Addr, req *remoting.Request) (*remoting.Response, error) {
			return remoting.AckResponse(), nil
		})); err != nil {
		t.Fatal(err)
	}
	cl := net.Client("a:1")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := cl.Send(ctx, "b:1", &remoting.Request{Probe: &remoting.ProbeRequest{Sender: "a:1"}}); err != nil {
		t.Fatal(err)
	}
	cl.SendBestEffort("b:1", &remoting.Request{Leave: &remoting.LeaveMessage{Sender: "a:1"}})
	// Sends to unreachable destinations still count as send attempts.
	cl.SendBestEffort("nowhere:1", &remoting.Request{Leave: &remoting.LeaveMessage{Sender: "a:1"}})
	if got := net.MessageCount("probe"); got != 1 {
		t.Errorf("MessageCount(probe) = %d, want 1", got)
	}
	if got := net.MessageCount("leave"); got != 2 {
		t.Errorf("MessageCount(leave) = %d, want 2", got)
	}
	if got := net.TotalMessages(); got != 3 {
		t.Errorf("TotalMessages = %d, want 3", got)
	}
}
