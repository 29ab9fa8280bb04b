package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simnet"
)

// countingHandler counts deliveries without ever blocking.
type countingHandler struct{ delivered atomic.Int64 }

func (h *countingHandler) HandleRequest(context.Context, node.Addr, *remoting.Request) (*remoting.Response, error) {
	h.delivered.Add(1)
	return remoting.AckResponse(), nil
}

// TestShardWorkerSurvivesOverloadedEndpoint is the head-of-line-blocking
// regression test for the sharded simnet: all endpoints of a single-shard
// network share one delivery worker, so without overload shedding a member
// whose event queue filled would block the worker inside its handler and
// starve every other endpoint on the shard. The victim here is a cluster
// whose engine never runs (built but not initialized), so its queue saturates
// deterministically; a flood of past-configuration batches into it must be
// shed once the queue is full — never blocking the worker — and a bystander
// sharing the shard must receive all of its own traffic.
func TestShardWorkerSurvivesOverloadedEndpoint(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 3, Shards: 1}) // one shard: worst-case sharing
	defer net.Close()

	const queueSize = 8
	victim, _, pastID := shedTestCluster(t, queueSize)
	if err := net.Register("overload-victim:1", victim); err != nil {
		t.Fatal(err)
	}

	bystander := &countingHandler{}
	if err := net.Register("bystander:1", bystander); err != nil {
		t.Fatal(err)
	}
	defer net.Deregister("bystander:1")

	sender := net.Client("sender:1")
	probe := &remoting.Request{Probe: &remoting.ProbeRequest{Sender: "sender:1"}}

	// Interleave a past-configuration flood to the victim with messages to
	// the bystander on the same shard. Without shedding, the worker would
	// block forever once the victim's queue filled and the bystander would
	// stop receiving.
	const floods, probes = 512, 64
	for i := 0; i < floods; i++ {
		sender.SendBestEffort("overload-victim:1", alertBatch(pastID, uint64(i)))
		if i%(floods/probes) == 0 {
			sender.SendBestEffort("bystander:1", probe)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if bystander.delivered.Load() >= probes && victim.Stats().ShedBatches == floods-queueSize {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := bystander.delivered.Load(); got < probes {
		t.Fatalf("bystander received %d of %d messages: shard worker stalled behind the overloaded endpoint", got, probes)
	}
	// The victim's queue holds the batches that filled it; every later one
	// must have been shed.
	stats := victim.Stats()
	if stats.QueueDepth != queueSize || stats.ShedBatches != floods-queueSize {
		t.Fatalf("expected %d queued + %d shed batches, got %+v", queueSize, floods-queueSize, stats)
	}
}
