package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/simnet"
)

func ep(i int, joined bool) StatusChange {
	return StatusChange{
		Endpoint: node.Endpoint{Addr: addr(i), ID: node.ID{High: uint64(i), Low: uint64(i)}},
		Joined:   joined,
	}
}

func TestMergeStatusChanges(t *testing.T) {
	// Join then remove inside the gap cancels out: the subscriber never saw
	// the member, so the net transition is empty.
	got := mergeStatusChanges([]StatusChange{ep(1, true)}, []StatusChange{ep(1, false)})
	if len(got) != 0 {
		t.Fatalf("join+remove should cancel, got %v", got)
	}

	// Remove then rejoin keeps both transitions in order: the subscriber must
	// learn that the old incarnation left and a new endpoint arrived.
	rejoin := ep(2, true)
	rejoin.Endpoint.ID = node.ID{High: 99, Low: 99}
	got = mergeStatusChanges([]StatusChange{ep(2, false)}, []StatusChange{rejoin})
	if len(got) != 2 || got[0].Joined || !got[1].Joined || got[1].Endpoint.ID.High != 99 {
		t.Fatalf("remove+rejoin should keep both transitions, got %v", got)
	}

	// Unrelated addresses pass through in first-appearance order.
	got = mergeStatusChanges([]StatusChange{ep(1, true)}, []StatusChange{ep(2, false)})
	if len(got) != 2 || got[0].Endpoint.Addr != addr(1) || got[1].Endpoint.Addr != addr(2) {
		t.Fatalf("independent changes should be concatenated, got %v", got)
	}

	// Remove, rejoin, remove again: the rejoin cancels, the removal remains.
	got = mergeStatusChanges([]StatusChange{ep(3, false), ep(3, true)}, []StatusChange{ep(3, false)})
	if len(got) != 1 || got[0].Joined {
		t.Fatalf("remove+join+remove should net to one removal, got %v", got)
	}
}

// TestNotifierBoundsQueueAndCoalesces publishes far more view changes than
// the queue bound while the only subscriber is blocked: the pending queue
// must never exceed the bound, publish must never block, and once released
// the subscriber must see every view change accounted for — individually or
// inside a coalesced notification carrying the newest membership.
func TestNotifierBoundsQueueAndCoalesces(t *testing.T) {
	const bound, total = 4, 100
	var coalescedCounter metrics.Counter
	n := newNotifier(bound, &coalescedCounter)
	go n.run()
	defer n.stop()

	release := make(chan struct{})
	var mu sync.Mutex
	var got []ViewChange
	n.subscribe(func(vc ViewChange) {
		mu.Lock()
		got = append(got, vc)
		mu.Unlock()
		<-release
	})

	members := []node.Endpoint{{Addr: addr(0)}}
	start := time.Now()
	for i := 1; i <= total; i++ {
		n.publish(ViewChange{
			ConfigurationID: uint64(i),
			Members:         members,
			Changes:         []StatusChange{ep(i, true)},
		})
		if d := n.depth(); d > bound {
			t.Fatalf("queue depth %d exceeds bound %d", d, bound)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("publish blocked behind the slow subscriber (%v for %d publishes)", elapsed, total)
	}
	close(release)

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		accounted := 0
		for _, vc := range got {
			accounted += 1 + vc.Coalesced
		}
		last := ViewChange{}
		if len(got) > 0 {
			last = got[len(got)-1]
		}
		mu.Unlock()
		if accounted == total {
			if last.ConfigurationID != total {
				t.Fatalf("last delivery should carry the newest configuration, got %d", last.ConfigurationID)
			}
			if coalescedCounter.Value() == 0 || int(coalescedCounter.Value()) != total-len(got) {
				t.Fatalf("coalesced counter %d inconsistent with %d deliveries of %d publishes",
					coalescedCounter.Value(), len(got), total)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d view changes accounted for after release", accounted, total)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterNotifierCoalescesUnderBlockedSubscriber is the end-to-end
// version: a cluster whose only subscriber blocks through a series of real
// view changes must keep its pending-notification queue at the configured
// bound, keep installing views (the protocol path never blocks on the
// notifier), and deliver a coalesced notification once the subscriber wakes.
func TestClusterNotifierCoalescesUnderBlockedSubscriber(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 23})
	settings := testSettings()
	node.SeedIDGenerator(23)
	// StartCluster, with the notification queue cut down to one entry.
	seed, err := newCluster(addr(0), settings, net)
	if err != nil {
		t.Fatal(err)
	}
	seed.notifier = newNotifier(1, &seed.emetrics.NotifierCoalesced)
	if err := net.Register(addr(0), seed); err != nil {
		t.Fatal(err)
	}
	seed.initialize([]node.Endpoint{seed.me})
	release := make(chan struct{})
	var mu sync.Mutex
	var got []ViewChange
	seed.Subscribe(func(vc ViewChange) {
		mu.Lock()
		got = append(got, vc)
		mu.Unlock()
		<-release
	})
	clusters := []*Cluster{seed}
	defer func() { stopAll(clusters) }()

	const joins = 5
	for i := 1; i <= joins; i++ {
		c, err := JoinCluster(addr(i), []node.Addr{addr(0)}, settings, net)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		clusters = append(clusters, c)
	}
	if !waitUntil(t, 30*time.Second, func() bool { return seed.Size() == joins+1 }) {
		t.Fatalf("view changes stalled behind a blocked subscriber: size=%d", seed.Size())
	}
	stats := seed.Stats()
	if stats.NotifierDepth > 1 {
		t.Fatalf("notifier depth %d exceeds bound 1", stats.NotifierDepth)
	}
	if stats.NotifierCoalesced == 0 {
		t.Fatalf("expected coalesced view changes with bound 1 and %d joins, stats=%+v", joins, stats)
	}
	close(release)

	if !waitUntil(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		accounted := 0
		for _, vc := range got {
			accounted += 1 + vc.Coalesced
		}
		return accounted == joins && len(got) > 0 &&
			len(got[len(got)-1].Members) == joins+1
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("released subscriber did not account for all view changes: %v", got)
	}
}
