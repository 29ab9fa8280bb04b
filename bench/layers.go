package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	rapid "repro"
	"repro/internal/broadcast"
	"repro/internal/cutdetect"
	"repro/internal/fastpaxos"
	"repro/internal/node"
	"repro/internal/paxos"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/view"
)

// The layers pass times each layer's public functions in isolation, on inputs
// shaped like the workloads: 200- and 500-member views, a 2-victim cut, the
// alert batch an observer of a victim sends. It runs once per traced process,
// before the workloads, single-threaded unless a metric says otherwise.

// cost is what one operation took.
type cost struct{ ns, bytes, allocs float64 }

// timeOp runs op in growing batches until budget has passed and returns the
// per-call cost. The GC is left on: allocation cost is part of an op's price.
func timeOp(budget time.Duration, op func()) cost {
	op() // warm caches and lazy initialisation
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	start := time.Now()
	for batch := 1; time.Since(start) < budget; batch *= 2 {
		for i := 0; i < batch; i++ {
			op()
		}
		calls += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(calls)
	return cost{
		ns:     float64(elapsed.Nanoseconds()) / n,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		allocs: float64(after.Mallocs-before.Mallocs) / n,
	}
}

func endpoints(n int) []node.Endpoint {
	eps := make([]node.Endpoint, n)
	for i := range eps {
		eps[i] = node.NewEndpoint(node.Addr(fmt.Sprintf("n%05d:9000", i)))
	}
	return eps
}

// discard is a transport.Client that drops everything: broadcasters are timed
// down to, not including, the network.
type discard struct{}

func (discard) Send(context.Context, node.Addr, *remoting.Request) (*remoting.Response, error) {
	return remoting.AckResponse(), nil
}
func (discard) SendBestEffort(node.Addr, *remoting.Request) {}

var ackHandler = transport.HandlerFunc(func(context.Context, node.Addr, *remoting.Request) (*remoting.Response, error) {
	return remoting.AckResponse(), nil
})

var probeRequest = &remoting.Request{Probe: &remoting.ProbeRequest{Sender: "n00000:9000"}}

// removeAlerts builds the K REMOVE alerts about each victim: one per ring,
// from that ring's observer.
func removeAlerts(v *view.View, victims []node.Endpoint) []remoting.AlertMessage {
	var alerts []remoting.AlertMessage
	for _, victim := range victims {
		observers, _ := v.ObserversOf(victim.Addr)
		for _, o := range observers {
			alerts = append(alerts, remoting.AlertMessage{
				EdgeSrc: o, EdgeDst: victim.Addr, Status: remoting.EdgeDown,
				ConfigurationID: v.ConfigurationID(), RingNumbers: v.RingNumbers(o, victim.Addr),
			})
		}
	}
	return alerts
}

// runLayers returns the isolated per-layer timings, each operation timed for
// budget.
func runLayers(seed int64, budget time.Duration) (map[string]float64, error) {
	m := make(map[string]float64)
	node.SeedIDGenerator(seed)
	eps200, eps500 := endpoints(200), endpoints(500)
	v200 := view.NewWithMembers(10, eps200)
	victims := eps200[10:12]
	now := time.Unix(0, 0)

	// --- view ---------------------------------------------------------------
	build := timeOp(budget, func() { view.NewWithMembers(10, eps500) })
	m["view.build500_ns"], m["view.build500_allocs"] = build.ns, build.allocs
	v500 := view.NewWithMembers(10, eps500)
	var addNS, removeNS, configNS time.Duration
	pairs := 0
	for start := time.Now(); time.Since(start) < budget; pairs++ {
		extra := node.NewEndpoint("extra:9000") // a view never re-admits an ID
		t0 := time.Now()
		if err := v500.AddMember(extra); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		t1 := time.Now()
		v500.ConfigurationID() // the membership just changed: a cache miss
		t2 := time.Now()
		if err := v500.RemoveMember(extra.Addr); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		addNS, configNS, removeNS = addNS+t1.Sub(t0), configNS+t2.Sub(t1), removeNS+time.Since(t2)
	}
	m["view.add_member_ns"] = float64(addNS.Nanoseconds()) / float64(pairs)
	m["view.remove_member_ns"] = float64(removeNS.Nanoseconds()) / float64(pairs)
	m["view.config_id_miss_ns"] = float64(configNS.Nanoseconds()) / float64(pairs)
	i := 0
	m["view.observers_of_ns"] = timeOp(budget, func() {
		v500.ObserversOf(eps500[i%len(eps500)].Addr)
		i++
	}).ns

	// --- cutdetect ----------------------------------------------------------
	alerts := removeAlerts(v200, victims)
	subject := map[node.Addr]node.Endpoint{victims[0].Addr: victims[0], victims[1].Addr: victims[1]}
	ingest := timeOp(budget, func() {
		d := cutdetect.New(10, 9, 3)
		for i := range alerts {
			d.AggregateForProposal(alerts[i], subject[alerts[i].EdgeDst], now)
		}
	})
	m["cutdetect.alert_ingest_ns"] = ingest.ns / float64(len(alerts))
	unstable := cutdetect.New(10, 9, 3)
	for i := range alerts {
		if ring := alerts[i].RingNumbers; len(ring) > 0 && ring[0] < 5 { // 5 of K reports: between L and H
			unstable.AggregateForProposal(alerts[i], subject[alerts[i].EdgeDst], now)
		}
	}
	m["cutdetect.invalidate_scan_ns"] = timeOp(budget, func() { unstable.InvalidateFailingEdges(v200, now) }).ns

	// --- fastpaxos / paxos ----------------------------------------------------
	proposal := []node.Endpoint{victims[0], victims[1]}
	votes := make([]*remoting.FastRoundPhase2b, len(eps200))
	for i, ep := range eps200 {
		votes[i] = &remoting.FastRoundPhase2b{Sender: ep.Addr, ConfigurationID: 7, Proposal: proposal}
	}
	decide := timeOp(budget, func() {
		decided := false
		fp := fastpaxos.New(fastpaxos.Config{
			MyAddr: eps200[0].Addr, MembershipSize: len(eps200), ConfigurationID: 7,
			Client: discard{}, Broadcaster: broadcast.NewUnicastToAll(discard{}),
			OnDecide: func([]node.Endpoint) { decided = true },
		})
		for i := 0; !decided; i++ {
			fp.HandleFastRoundVote(votes[i])
		}
	})
	m["fastpaxos.decide200_ns"] = decide.ns
	m["fastpaxos.vote_ns"] = decide.ns / float64(fastpaxos.FastQuorumSize(len(eps200)))
	m["paxos.classic_round200_ns"] = timeOp(budget, func() { classicRound(eps200, proposal) }).ns

	// --- broadcast ----------------------------------------------------------
	unicast := broadcast.NewUnicastToAll(discard{})
	unicast.SetMembership(node.EndpointAddrs(eps500))
	m["broadcast.unicast_flush500_ns"] = timeOp(budget, func() { unicast.Broadcast(probeRequest) }).ns
	gossip := broadcast.NewGossip(discard{}, eps500[0].Addr, 8, seed)
	gossip.SetMembership(node.EndpointAddrs(eps500))
	m["broadcast.gossip_flush_ns"] = timeOp(budget, func() { gossip.Broadcast(probeRequest) }).ns

	// --- remoting -----------------------------------------------------------
	batch := &remoting.Request{Alerts: &remoting.BatchedAlertMessage{
		Sender: alerts[0].EdgeSrc, Seq: 42, Alerts: []remoting.AlertMessage{alerts[0], alerts[len(alerts)-1]},
	}}
	batchBytes, _ := remoting.EncodeRequest(batch) // EncodeRequest never fails
	m["remoting.alertbatch_bytes"] = float64(len(batchBytes))
	m["remoting.encode_alertbatch_ns"] = timeOp(budget, func() { remoting.EncodeRequest(batch) }).ns
	decode := timeOp(budget, func() { remoting.DecodeRequest(batchBytes) })
	m["remoting.decode_alertbatch_ns"], m["remoting.alertbatch_allocs"] = decode.ns, decode.allocs
	probeBytes, _ := remoting.EncodeRequest(probeRequest)
	m["remoting.probe_bytes"] = float64(len(probeBytes))
	m["remoting.encode_probe_ns"] = timeOp(budget, func() { remoting.EncodeRequest(probeRequest) }).ns
	joinResp := &remoting.Response{Join: &remoting.JoinResponse{
		Sender: eps500[0].Addr, Status: remoting.JoinSafeToJoin, ConfigurationID: 7, Members: eps500,
	}}
	joinBytes, _ := remoting.EncodeResponse(joinResp)
	m["remoting.joinresp500_bytes"] = float64(len(joinBytes))
	m["remoting.encode_joinresp500_ns"] = timeOp(budget, func() { remoting.EncodeResponse(joinResp) }).ns
	m["remoting.decode_joinresp500_ns"] = timeOp(budget, func() { remoting.DecodeResponse(joinBytes) }).ns

	// --- simclock -----------------------------------------------------------
	clock := simclock.NewManual(now)
	for i := 0; i < 2000; i++ {
		clock.After(time.Hour + time.Duration(i)*time.Second)
	}
	m["simclock.manual_advance_ns"] = timeOp(budget, func() { clock.Advance(time.Millisecond) }).ns

	layersSimnet(m, seed, budget)
	return m, layersTCP(m, budget)
}

// classicRound runs one classic Paxos round among n in-memory instances: the
// first starts phase 1, everyone answers, and the round ends when the
// coordinator has decided. Messages are delivered by direct calls.
func classicRound(members []node.Endpoint, proposal []node.Endpoint) {
	bus := &paxosBus{byAddr: make(map[node.Addr]*paxos.Paxos, len(members))}
	for i, ep := range members {
		bus.byAddr[ep.Addr] = paxos.New(paxos.Config{
			MyAddr: ep.Addr, MyIndex: i, MembershipSize: len(members), ConfigurationID: 7,
			Client: bus, Broadcaster: bus, OnDecide: func(paxos.Value) {},
		})
	}
	coordinator := bus.byAddr[members[0].Addr]
	coordinator.SetProposal(proposal)
	coordinator.StartPhase1a(2)
}

type paxosBus struct{ byAddr map[node.Addr]*paxos.Paxos }

func (b *paxosBus) deliver(p *paxos.Paxos, req *remoting.Request) {
	switch {
	case req.P1a != nil:
		p.HandlePhase1a(req.P1a)
	case req.P1b != nil:
		p.HandlePhase1b(req.P1b)
	case req.P2a != nil:
		p.HandlePhase2a(req.P2a)
	case req.P2b != nil:
		p.HandlePhase2b(req.P2b)
	}
}

func (b *paxosBus) SendBestEffort(to node.Addr, req *remoting.Request) {
	if p := b.byAddr[to]; p != nil {
		b.deliver(p, req)
	}
}

func (b *paxosBus) Broadcast(req *remoting.Request) {
	for _, p := range b.byAddr {
		b.deliver(p, req)
	}
}

// layersSimnet times simnet's two delivery paths between two endpoints with a
// handler that does nothing.
func layersSimnet(m map[string]float64, seed int64, budget time.Duration) {
	nw := simnet.New(simnet.Options{Seed: seed})
	defer nw.Close()
	var handled atomic.Int64
	counting := transport.HandlerFunc(func(context.Context, node.Addr, *remoting.Request) (*remoting.Response, error) {
		handled.Add(1)
		return remoting.AckResponse(), nil
	})
	const a, b = node.Addr("a:1"), node.Addr("b:1")
	nw.Register(a, ackHandler) // fresh network, distinct addresses: cannot fail
	nw.Register(b, counting)
	client := nw.Client(a)
	ctx := context.Background()
	m["simnet.send_rtt_ns"] = timeOp(budget, func() { client.Send(ctx, b, probeRequest) }).ns

	// Best-effort delivery is asynchronous and bounded by the inbox; send in
	// bursts well under the bound and wait for each burst to be handled.
	const burst = 512
	var sent int64
	m["simnet.best_effort_ns"] = timeOp(budget, func() {
		for i := 0; i < burst; i++ {
			client.SendBestEffort(b, probeRequest)
		}
		sent += burst
		waitFor(func() bool { return handled.Load() >= sent })
	}).ns / burst
}

// waitFor yields until cond holds. Best-effort delivery may drop; after a
// second the wait gives up and the lost messages inflate the reported cost
// instead of hanging the run.
func waitFor(cond func() bool) {
	for deadline := time.Now().Add(time.Second); !cond() && time.Now().Before(deadline); {
		runtime.Gosched()
	}
}

// layersTCP times the TCP transport between two Networks over loopback.
func layersTCP(m map[string]float64, budget time.Duration) error {
	server, err := rapid.NewTCPNetwork(rapid.TCPNetworkOptions{})
	if err != nil {
		return err
	}
	defer server.Close()
	addrs, err := freeLoopbackAddrs(1)
	if err != nil {
		return err
	}
	addr := addrs[0]
	var handled atomic.Int64
	if err := server.Register(addr, transport.HandlerFunc(func(context.Context, node.Addr, *remoting.Request) (*remoting.Response, error) {
		handled.Add(1)
		return remoting.AckResponse(), nil
	})); err != nil {
		return err
	}
	ctx := context.Background()

	// Dial: a fresh transport's first Send, minus nothing — the round trip
	// that rides on it is two orders of magnitude shorter.
	var dials []float64
	for start := time.Now(); time.Since(start) < budget; {
		c, err := rapid.NewTCPNetwork(rapid.TCPNetworkOptions{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = c.Client("bench:0").Send(ctx, addr, probeRequest)
		dials = append(dials, float64(time.Since(t0).Nanoseconds())/1e3)
		c.Close()
		if err != nil {
			return fmt.Errorf("layers: tcp send: %w", err)
		}
	}
	m["tcpnet.dial_us"] = median(dials)

	nw, err := rapid.NewTCPNetwork(rapid.TCPNetworkOptions{})
	if err != nil {
		return err
	}
	defer nw.Close()
	client := nw.Client("bench:0")
	var rtts []float64
	for start := time.Now(); time.Since(start) < budget; {
		t0 := time.Now()
		if _, err := client.Send(ctx, addr, probeRequest); err != nil {
			return fmt.Errorf("layers: tcp send: %w", err)
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["tcpnet.rtt_p50_us"], m["tcpnet.rtt_p99_us"] = median(rtts), quantile(rtts, 0.99)

	// Pipelining: nproc senders share the one pooled connection.
	var wg sync.WaitGroup
	var done atomic.Int64
	start := time.Now()
	for s := 0; s < runtime.NumCPU(); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < budget {
				if _, err := client.Send(ctx, addr, probeRequest); err == nil {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	m["tcpnet.pipelined_rps"] = float64(done.Load()) / time.Since(start).Seconds()

	// Best effort: bursts under the queue bound, each waited for.
	const burst = 256
	base := handled.Load()
	var sent int64
	be := timeOp(budget, func() {
		for i := 0; i < burst; i++ {
			client.SendBestEffort(addr, probeRequest)
		}
		sent += burst
		waitFor(func() bool { return handled.Load()-base >= sent })
	})
	m["tcpnet.best_effort_rps"] = burst / be.ns * 1e9
	return nil
}
