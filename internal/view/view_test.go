package view

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/node"
	"repro/internal/remoting"
)

func endpoints(n int) []node.Endpoint {
	out := make([]node.Endpoint, n)
	for i := range out {
		out[i] = node.Endpoint{
			Addr: node.Addr(fmt.Sprintf("10.0.0.%d:5000", i)),
			ID:   node.ID{High: uint64(i + 1), Low: uint64(i + 1)},
		}
	}
	return out
}

func TestAddRemoveAndSize(t *testing.T) {
	v := New(10)
	eps := endpoints(5)
	for _, ep := range eps {
		if err := v.AddMember(ep); err != nil {
			t.Fatalf("AddMember(%v): %v", ep, err)
		}
	}
	if v.Size() != 5 {
		t.Fatalf("Size = %d, want 5", v.Size())
	}
	if !v.Contains(eps[2].Addr) {
		t.Error("Contains should report true for a member")
	}
	if err := v.RemoveMember(eps[2].Addr); err != nil {
		t.Fatalf("RemoveMember: %v", err)
	}
	if v.Contains(eps[2].Addr) {
		t.Error("removed member still present")
	}
	if v.Size() != 4 {
		t.Fatalf("Size after removal = %d, want 4", v.Size())
	}
}

func TestAddDuplicateAddressFails(t *testing.T) {
	v := New(3)
	ep := endpoints(1)[0]
	if err := v.AddMember(ep); err != nil {
		t.Fatal(err)
	}
	dup := node.Endpoint{Addr: ep.Addr, ID: node.ID{High: 99, Low: 99}}
	if err := v.AddMember(dup); err != ErrNodeAlreadyInRing {
		t.Fatalf("err = %v, want ErrNodeAlreadyInRing", err)
	}
}

func TestAddDuplicateIDFails(t *testing.T) {
	v := New(3)
	ep := endpoints(1)[0]
	if err := v.AddMember(ep); err != nil {
		t.Fatal(err)
	}
	dup := node.Endpoint{Addr: "other:1", ID: ep.ID}
	if err := v.AddMember(dup); err != ErrUUIDAlreadyInRing {
		t.Fatalf("err = %v, want ErrUUIDAlreadyInRing", err)
	}
}

func TestRemoveUnknownFails(t *testing.T) {
	v := New(3)
	if err := v.RemoveMember("ghost:1"); err != ErrNodeNotInRing {
		t.Fatalf("err = %v, want ErrNodeNotInRing", err)
	}
}

func TestRejoinWithSameIDRejected(t *testing.T) {
	// A process that leaves and rejoins must use a new logical ID (§3).
	v := New(3)
	ep := endpoints(1)[0]
	v.AddMember(ep)
	v.RemoveMember(ep.Addr)
	if err := v.AddMember(ep); err != ErrUUIDAlreadyInRing {
		t.Fatalf("rejoining with the same ID should be rejected, got %v", err)
	}
	fresh := node.Endpoint{Addr: ep.Addr, ID: node.ID{High: 123, Low: 456}}
	if err := v.AddMember(fresh); err != nil {
		t.Fatalf("rejoining with a fresh ID should succeed: %v", err)
	}
}

func TestObserversAndSubjectsCounts(t *testing.T) {
	const k, n = 10, 30
	v := NewWithMembers(k, endpoints(n))
	for _, ep := range v.Members() {
		obs, err := v.ObserversOf(ep.Addr)
		if err != nil {
			t.Fatal(err)
		}
		subs, err := v.SubjectsOf(ep.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if len(obs) != k || len(subs) != k {
			t.Fatalf("node %v has %d observers and %d subjects, want %d each", ep.Addr, len(obs), len(subs), k)
		}
	}
}

func TestObserverSubjectSymmetry(t *testing.T) {
	// If o is an observer of s, then s must be a subject of o, with matching
	// multiplicity across rings.
	const k, n = 10, 25
	v := NewWithMembers(k, endpoints(n))
	for _, s := range v.Members() {
		obs, _ := v.ObserversOf(s.Addr)
		counts := make(map[node.Addr]int)
		for _, o := range obs {
			counts[o]++
		}
		for o, c := range counts {
			subs, _ := v.SubjectsOf(o)
			reverse := 0
			for _, x := range subs {
				if x == s.Addr {
					reverse++
				}
			}
			if reverse != c {
				t.Fatalf("asymmetry: %v observes %v %d times but %v is subject %d times", o, s.Addr, c, s.Addr, reverse)
			}
		}
	}
}

func TestObserversOfSingletonViewIsEmpty(t *testing.T) {
	v := NewWithMembers(10, endpoints(1))
	obs, err := v.ObserversOf(endpoints(1)[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 0 {
		t.Fatalf("a single-member view should have no observers, got %v", obs)
	}
}

func TestObserversOfUnknownNodeFails(t *testing.T) {
	v := NewWithMembers(10, endpoints(3))
	if _, err := v.ObserversOf("ghost:1"); err != ErrNodeNotInRing {
		t.Fatalf("err = %v, want ErrNodeNotInRing", err)
	}
	if _, err := v.SubjectsOf("ghost:1"); err != ErrNodeNotInRing {
		t.Fatalf("err = %v, want ErrNodeNotInRing", err)
	}
}

func TestRingNumbersMatchObservers(t *testing.T) {
	const k, n = 10, 20
	v := NewWithMembers(k, endpoints(n))
	for _, s := range v.Members() {
		obs, _ := v.ObserversOf(s.Addr)
		counts := make(map[node.Addr]int)
		for _, o := range obs {
			counts[o]++
		}
		total := 0
		for o, c := range counts {
			rings := v.RingNumbers(o, s.Addr)
			if len(rings) != c {
				t.Fatalf("RingNumbers(%v,%v) = %v, want %d rings", o, s.Addr, rings, c)
			}
			total += len(rings)
		}
		if total != k {
			t.Fatalf("total ring numbers for %v = %d, want %d", s.Addr, total, k)
		}
	}
}

func TestExpectedObserversOfJoiner(t *testing.T) {
	const k, n = 10, 20
	v := NewWithMembers(k, endpoints(n))
	joiner := node.Addr("10.0.9.99:5000")
	expected := v.ExpectedObserversOf(joiner)
	if len(expected) != k {
		t.Fatalf("ExpectedObserversOf returned %d observers, want %d", len(expected), k)
	}
	// Ring numbers for the joiner must be consistent with the expected
	// observers, and cover all k rings.
	total := 0
	counts := make(map[node.Addr]int)
	for _, o := range expected {
		counts[o]++
	}
	for o, c := range counts {
		rings := v.RingNumbers(o, joiner)
		if len(rings) != c {
			t.Fatalf("RingNumbers(%v, joiner) = %v, want %d", o, rings, c)
		}
		total += len(rings)
	}
	if total != k {
		t.Fatalf("joiner ring coverage = %d, want %d", total, k)
	}
	// Once the joiner is added, its actual observers must equal the expected
	// ones (same multiset).
	if err := v.AddMember(node.Endpoint{Addr: joiner, ID: node.ID{High: 777, Low: 777}}); err != nil {
		t.Fatal(err)
	}
	actual, _ := v.ObserversOf(joiner)
	actualCounts := make(map[node.Addr]int)
	for _, o := range actual {
		actualCounts[o]++
	}
	if len(actualCounts) != len(counts) {
		t.Fatalf("expected observers %v != actual %v", counts, actualCounts)
	}
	for o, c := range counts {
		if actualCounts[o] != c {
			t.Fatalf("expected observers %v != actual %v", counts, actualCounts)
		}
	}
}

func TestDeterministicAcrossInsertionOrders(t *testing.T) {
	// The K-ring topology must be a pure function of the membership set:
	// different insertion orders must produce identical rings, observers,
	// and configuration IDs (this is what lets every process compute the
	// topology locally).
	const k, n = 7, 40
	eps := endpoints(n)
	v1 := NewWithMembers(k, eps)

	shuffled := append([]node.Endpoint(nil), eps...)
	r := rand.New(rand.NewSource(3))
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	v2 := NewWithMembers(k, shuffled)

	if v1.ConfigurationID() != v2.ConfigurationID() {
		t.Fatal("configuration IDs differ across insertion orders")
	}
	for _, ep := range eps {
		o1, _ := v1.ObserversOf(ep.Addr)
		o2, _ := v2.ObserversOf(ep.Addr)
		if fmt.Sprint(o1) != fmt.Sprint(o2) {
			t.Fatalf("observers of %v differ across insertion orders: %v vs %v", ep.Addr, o1, o2)
		}
	}
}

func TestConfigurationIDChangesOnMembershipChange(t *testing.T) {
	v := NewWithMembers(5, endpoints(10))
	id1 := v.ConfigurationID()
	v.RemoveMember(endpoints(10)[0].Addr)
	id2 := v.ConfigurationID()
	if id1 == id2 {
		t.Fatal("configuration ID should change when membership changes")
	}
	v.AddMember(node.Endpoint{Addr: "new:1", ID: node.ID{High: 999, Low: 1}})
	if v.ConfigurationID() == id2 {
		t.Fatal("configuration ID should change when a member joins")
	}
}

func TestConfigurationIDStableAcrossCalls(t *testing.T) {
	v := NewWithMembers(5, endpoints(10))
	if v.ConfigurationID() != v.ConfigurationID() {
		t.Fatal("configuration ID should be stable without membership changes")
	}
}

func TestIsSafeToJoin(t *testing.T) {
	v := NewWithMembers(5, endpoints(3))
	eps := endpoints(3)
	if got := v.IsSafeToJoin(eps[0].Addr, node.ID{High: 55, Low: 55}); got != remoting.JoinHostAlreadyInRing {
		t.Errorf("existing address: %v, want HOSTNAME_ALREADY_IN_RING", got)
	}
	if got := v.IsSafeToJoin("fresh:1", eps[0].ID); got != remoting.JoinUUIDAlreadyInRing {
		t.Errorf("existing id: %v, want UUID_ALREADY_IN_RING", got)
	}
	if got := v.IsSafeToJoin("fresh:1", node.ID{High: 55, Low: 55}); got != remoting.JoinSafeToJoin {
		t.Errorf("fresh join: %v, want SAFE_TO_JOIN", got)
	}
}

func TestRingAccessor(t *testing.T) {
	v := NewWithMembers(3, endpoints(4))
	ring, err := v.Ring(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ring) != 4 {
		t.Fatalf("ring 0 has %d members, want 4", len(ring))
	}
	if _, err := v.Ring(3); err == nil {
		t.Fatal("out-of-range ring index should error")
	}
	if _, err := v.Ring(-1); err == nil {
		t.Fatal("negative ring index should error")
	}
}

func TestRingsArePermutationsOfMembership(t *testing.T) {
	const k, n = 6, 15
	v := NewWithMembers(k, endpoints(n))
	for r := 0; r < k; r++ {
		ring, err := v.Ring(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ring) != n {
			t.Fatalf("ring %d has %d entries, want %d", r, len(ring), n)
		}
		seen := make(map[node.Addr]bool)
		for _, ep := range ring {
			if seen[ep.Addr] {
				t.Fatalf("ring %d contains %v twice", r, ep.Addr)
			}
			seen[ep.Addr] = true
		}
	}
}

func TestRingsDifferFromEachOther(t *testing.T) {
	// With 40 members, the probability that two independent pseudo-random
	// permutations coincide is negligible; identical rings would defeat the
	// purpose of multiple observers per subject.
	const k, n = 4, 40
	v := NewWithMembers(k, endpoints(n))
	r0, _ := v.Ring(0)
	for r := 1; r < k; r++ {
		ring, _ := v.Ring(r)
		same := true
		for i := range ring {
			if ring[i].Addr != r0[i].Addr {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("ring %d is identical to ring 0", r)
		}
	}
}

func TestViewInvariantsUnderRandomOperations(t *testing.T) {
	// Property: after any sequence of adds and removes, every member has
	// exactly K observers and K subjects (when size > 1), and the
	// configuration ID only depends on the final membership set.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const k = 5
		v := New(k)
		live := make(map[node.Addr]node.Endpoint)
		next := 0
		for op := 0; op < 60; op++ {
			if len(live) == 0 || r.Float64() < 0.6 {
				ep := node.Endpoint{
					Addr: node.Addr(fmt.Sprintf("n%d:1", next)),
					ID:   node.ID{High: uint64(next + 1), Low: r.Uint64()},
				}
				next++
				if v.AddMember(ep) == nil {
					live[ep.Addr] = ep
				}
			} else {
				// Remove a random live member.
				var victim node.Addr
				n := r.Intn(len(live))
				for a := range live {
					if n == 0 {
						victim = a
						break
					}
					n--
				}
				if v.RemoveMember(victim) == nil {
					delete(live, victim)
				}
			}
		}
		if v.Size() != len(live) {
			return false
		}
		for a := range live {
			obs, err := v.ObserversOf(a)
			if err != nil {
				return false
			}
			subs, err := v.SubjectsOf(a)
			if err != nil {
				return false
			}
			if len(live) > 1 && (len(obs) != k || len(subs) != k) {
				return false
			}
		}
		// Rebuild a fresh view with the same final membership; config IDs match.
		var eps []node.Endpoint
		for _, ep := range live {
			eps = append(eps, ep)
		}
		rebuilt := NewWithMembers(k, eps)
		return rebuilt.ConfigurationID() == v.ConfigurationID()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueSubjectsOf(t *testing.T) {
	// UniqueSubjectsOf must equal SubjectsOf with duplicates and self removed,
	// across a range of sizes (small views force both duplicates and self).
	for _, n := range []int{2, 3, 5, 12, 30} {
		v := NewWithMembers(10, endpoints(n))
		for _, ep := range v.Members() {
			subs, err := v.SubjectsOf(ep.Addr)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]node.Addr, 0, len(subs))
			seen := make(map[node.Addr]bool)
			for _, s := range subs {
				if s != ep.Addr && !seen[s] {
					seen[s] = true
					want = append(want, s)
				}
			}
			got, err := v.UniqueSubjectsOf(ep.Addr)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("n=%d UniqueSubjectsOf(%v) = %v, want %v", n, ep.Addr, got, want)
			}
		}
	}
	if _, err := NewWithMembers(3, endpoints(3)).UniqueSubjectsOf("ghost:1"); err != ErrNodeNotInRing {
		t.Fatalf("err = %v, want ErrNodeNotInRing", err)
	}
}

func TestNeighbourLookupAllocs(t *testing.T) {
	// The position index makes neighbour lookups O(K) with a single result
	// slice allocation — no hashing, no searching.
	v := NewWithMembers(10, endpoints(100))
	addr := endpoints(100)[37].Addr
	for name, fn := range map[string]func(){
		"ObserversOf": func() {
			if _, err := v.ObserversOf(addr); err != nil {
				t.Fatal(err)
			}
		},
		"SubjectsOf": func() {
			if _, err := v.SubjectsOf(addr); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs > 1 {
			t.Errorf("%s allocates %.0f times per lookup, want <= 1", name, allocs)
		}
	}
}

func TestConfigurationIDCachedAllocs(t *testing.T) {
	// A cache hit takes only the read lock and must not allocate.
	v := NewWithMembers(10, endpoints(50))
	v.ConfigurationID()
	if allocs := testing.AllocsPerRun(100, func() { v.ConfigurationID() }); allocs > 0 {
		t.Errorf("cached ConfigurationID allocates %.0f times, want 0", allocs)
	}
}

func TestBulkConstructionAllocs(t *testing.T) {
	// NewWithMembers block-allocates member records and rings: constructing a
	// 100-member 10-ring view must stay well under one allocation per member
	// (the map buckets dominate what remains).
	eps := endpoints(100)
	allocs := testing.AllocsPerRun(20, func() {
		if NewWithMembers(10, eps).Size() != 100 {
			t.Fatal("bad view")
		}
	})
	if allocs > 60 {
		t.Errorf("NewWithMembers(10, 100 members) allocates %.0f times, want <= 60", allocs)
	}
}

func TestConcurrentReadersWithCacheHit(t *testing.T) {
	// Regression test for ConfigurationID serializing readers: concurrent
	// cached reads plus topology lookups must be race-free (run under -race).
	v := NewWithMembers(10, endpoints(40))
	v.ConfigurationID()
	addrs := v.MemberAddrs()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				_ = v.ConfigurationID()
				_, _ = v.ObserversOf(addrs[(g+i)%len(addrs)])
			}
		}(g)
	}
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		for i := 0; i < 50; i++ {
			ep := node.Endpoint{Addr: node.Addr(fmt.Sprintf("w%d:1", i)), ID: node.ID{High: 1 << 32, Low: uint64(i + 1)}}
			if err := v.AddMember(ep); err != nil {
				t.Error(err)
				return
			}
			_ = v.ConfigurationID()
			if err := v.RemoveMember(ep.Addr); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		<-done
	}
	<-writer
}
