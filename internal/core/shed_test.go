package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simnet"
	"repro/internal/view"
)

// shedTestCluster builds a cluster whose engine is deliberately not started,
// so the event queue fills deterministically: currentID is the configuration
// its snapshot names, pastID one it has moved past.
func shedTestCluster(t *testing.T, queueSize int) (c *Cluster, currentID, pastID uint64) {
	t.Helper()
	net := simnet.New(simnet.Options{Seed: 7})
	s := testSettings()
	c, err := newCluster("shed:1", s, net)
	if err != nil {
		t.Fatal(err)
	}
	c.events = make(chan event, queueSize)
	t.Cleanup(c.Stop)
	v1 := view.NewWithMembers(s.K, []node.Endpoint{{Addr: "shed:1", ID: node.NewID()}})
	v2 := view.NewWithMembers(s.K, []node.Endpoint{
		{Addr: "shed:1", ID: node.NewID()},
		{Addr: "peer:1", ID: node.NewID()},
	})
	c.snap.Store(&snapshot{configID: v2.ConfigurationID(), members: v2.Members(), viewChanges: 1})
	return c, v2.ConfigurationID(), v1.ConfigurationID()
}

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

// TestFullQueueShedsOnlyStaleBatches drives the transport handler directly
// against a stalled engine and pins the one overload rule: while the queue has
// room every batch is enqueued, whatever configuration it names; once it is
// full, a batch with nothing in it for the current configuration is dropped
// and counted without blocking the caller, and a batch with any
// current-configuration content blocks until the engine makes room.
func TestFullQueueShedsOnlyStaleBatches(t *testing.T) {
	const queueSize = 4
	c, currentID, pastID := shedTestCluster(t, queueSize)
	unknownID := currentID + pastID + 1 // matches neither current nor past
	ctx := context.Background()

	mixed := alertBatch(pastID, 0)
	mixed.Alerts.Alerts = append(mixed.Alerts.Alerts, alertBatch(currentID, 0).Alerts.Alerts...)
	pastVotes := &remoting.Request{VoteBatch: &remoting.FastRoundVoteBatch{
		Sender: "peer:1",
		Votes:  []remoting.FastRoundPhase2b{{Sender: "peer:1", ConfigurationID: pastID}},
	}}
	cases := []struct {
		name string
		req  *remoting.Request
		shed bool
	}{
		{"current", alertBatch(currentID, 0), false},
		{"past", alertBatch(pastID, 0), true},
		{"unknown", alertBatch(unknownID, 0), true},
		{"mixed", mixed, false},
		{"past votes", pastVotes, true},
	}

	// With room, nothing is shed: a batch that is stale now can become
	// applicable once a decision queued ahead of it installs its configuration.
	for _, tc := range cases[:queueSize] {
		if _, err := c.HandleRequest(ctx, "peer:1", tc.req); err != nil {
			t.Fatal(err)
		}
	}
	if stats := c.Stats(); stats.ShedBatches != 0 || stats.QueueDepth != queueSize {
		t.Fatalf("nothing may be shed while there is room: %+v", stats)
	}

	for _, tc := range cases {
		shedBefore := c.Stats().ShedBatches
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = c.HandleRequest(ctx, "peer:1", tc.req)
		}()
		if tc.shed {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s batch blocked on the full queue instead of being shed", tc.name)
			}
			if stats := c.Stats(); stats.ShedBatches != shedBefore+1 || stats.QueueDepth != queueSize {
				t.Fatalf("%s batch should be shed and counted: %+v", tc.name, stats)
			}
			continue
		}
		select {
		case <-done:
			t.Fatalf("%s batch did not block on the full queue", tc.name)
		case <-time.After(50 * time.Millisecond):
		}
		<-c.events // make room; the blocked producer lands and refills the queue
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s batch never landed after the queue drained", tc.name)
		}
		if stats := c.Stats(); stats.ShedBatches != shedBefore || stats.QueueDepth != queueSize {
			t.Fatalf("%s batch must be enqueued, not shed: %+v", tc.name, stats)
		}
	}
}

// TestQueueFullTimeAccounted verifies that blocking backpressure on the
// non-sheddable path is surfaced in EngineStats.QueueFullTime.
func TestQueueFullTimeAccounted(t *testing.T) {
	const queueSize = 4
	c, currentID, _ := shedTestCluster(t, queueSize)
	ctx := context.Background()
	for i := 0; i < queueSize; i++ {
		if _, err := c.HandleRequest(ctx, "peer:1", alertBatch(currentID, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The queue is full; the next current-configuration batch blocks until
	// the engine drains it — here we drain manually from the test.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.HandleRequest(ctx, "peer:1", alertBatch(currentID, 99))
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
