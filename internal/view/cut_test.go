package view

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/node"
)

// refRingHash is the ring hash as it was first written — one ring, one byte at
// a time. It is the reference fillRingHashes and every recorded seed answer to.
func refRingHash(addr node.Addr, ring int) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(byte(ring))) * fnvPrime
	h = (h ^ uint64(byte(ring>>8))) * fnvPrime
	h = (h ^ uint64(byte(ring>>16))) * fnvPrime
	h = (h ^ uint64(byte(ring>>24))) * fnvPrime
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint64(addr[i])) * fnvPrime
	}
	return fmix64(h)
}

// refRing orders members the way the parent's construction did: a comparison
// sort on (ring hash, address).
func refRing(members []node.Endpoint, ring int, mask uint64) []node.Addr {
	out := node.EndpointAddrs(members)
	slices.SortFunc(out, func(a, b node.Addr) int {
		ha, hb := refRingHash(a, ring)&mask, refRingHash(b, ring)&mask
		if ha != hb {
			if ha < hb {
				return -1
			}
			return 1
		}
		return strings.Compare(string(a), string(b))
	})
	return out
}

func TestFillRingHashesMatchesReference(t *testing.T) {
	for _, addr := range []node.Addr{"", "a", "10.0.0.1:5000", "some-longer-host-name.example.org:65535"} {
		got := make([]uint64, 300)
		fillRingHashes(got, addr, ^uint64(0))
		for r, h := range got {
			if want := refRingHash(addr, r); h != want {
				t.Fatalf("ring %d hash of %q = %x, want %x", r, addr, h, want)
			}
		}
	}
}

// ringAddrs returns ring r as addresses, checking the position index on the
// way: every slot must sit where pos says it does.
func ringAddrs(t *testing.T, v *View, r int) []node.Addr {
	t.Helper()
	out := make([]node.Addr, len(v.t.seqs[r]))
	for i, s := range v.t.seqs[r] {
		out[i] = v.t.eps[s].Addr
		if got := v.t.pos[int(s)*(v.k+1)+r]; int(got) != i {
			t.Fatalf("sequence %d: %s sits at %d but its position index says %d", r, out[i], i, got)
		}
		if found, ok := v.slot(out[i]); !ok || found != s {
			t.Fatalf("sequence %d holds slot %d for %s, the address search says %d, %v", r, s, out[i], found, ok)
		}
	}
	return out
}

// sameView fails unless got is indistinguishable from want through every
// query, and its rings are the reference order of members.
func sameView(t *testing.T, name string, got, want *View, members []node.Endpoint, strangers []node.Addr) {
	t.Helper()
	if got.Size() != len(members) || want.Size() != len(members) {
		t.Fatalf("%s: sizes %d and %d, want %d", name, got.Size(), want.Size(), len(members))
	}
	if !slices.EqualFunc(got.Members(), members, node.Endpoint.Equal) {
		t.Fatalf("%s: Members() = %v, want %v", name, got.Members(), members)
	}
	if !slices.Equal(got.MemberAddrs(), node.EndpointAddrs(members)) {
		t.Fatalf("%s: MemberAddrs() = %v", name, got.MemberAddrs())
	}
	if got.ConfigurationID() != want.ConfigurationID() {
		t.Fatalf("%s: configuration IDs differ", name)
	}
	for r := 0; r < got.k; r++ {
		ring := ringAddrs(t, got, r)
		if !slices.Equal(ring, ringAddrs(t, want, r)) {
			t.Fatalf("%s: ring %d differs between the two paths", name, r)
		}
		if ref := refRing(members, r, got.hashMask); !slices.Equal(ring, ref) {
			t.Fatalf("%s: ring %d = %v, reference order %v", name, r, ring, ref)
		}
	}
	if !slices.Equal(ringAddrs(t, got, got.k), node.EndpointAddrs(members)) {
		t.Fatalf("%s: the address order is not sorted", name)
	}
	var probes []node.Addr
	for _, ep := range members {
		probes = append(probes, ep.Addr)
	}
	probes = append(probes, strangers...)
	for _, a := range probes {
		o1, e1 := got.ObserversOf(a)
		o2, e2 := want.ObserversOf(a)
		if e1 != e2 || !slices.Equal(o1, o2) {
			t.Fatalf("%s: ObserversOf(%s) = %v, %v; want %v, %v", name, a, o1, e1, o2, e2)
		}
		s1, e1 := got.SubjectsOf(a)
		s2, e2 := want.SubjectsOf(a)
		if e1 != e2 || !slices.Equal(s1, s2) {
			t.Fatalf("%s: SubjectsOf(%s) = %v, %v; want %v, %v", name, a, s1, e1, s2, e2)
		}
		if x1, x2 := got.ExpectedObserversOf(a), want.ExpectedObserversOf(a); !slices.Equal(x1, x2) {
			t.Fatalf("%s: ExpectedObserversOf(%s) = %v, want %v", name, a, x1, x2)
		}
		for _, o := range o2 {
			if r1, r2 := got.RingNumbers(o, a), want.RingNumbers(o, a); !slices.Equal(r1, r2) {
				t.Fatalf("%s: RingNumbers(%s, %s) = %v, want %v", name, o, a, r1, r2)
			}
		}
		for _, o := range want.ExpectedObserversOf(a) {
			if r1, r2 := got.RingNumbers(o, a), want.RingNumbers(o, a); !slices.Equal(r1, r2) {
				t.Fatalf("%s: RingNumbers(%s, %s) = %v, want %v", name, o, a, r1, r2)
			}
		}
	}
}

// TestCutPathsAgree is the differential property of the mutation path: a
// sequence of random cuts applied whole through ApplyCut, the same cuts applied
// one element at a time through RemoveMember and AddMember, and a fresh
// construction from the resulting set must be indistinguishable, and all three
// must hold the rings in the reference (hash, address) order. Two sequences in
// three run with most of the ring hash masked away, so that most comparisons
// are decided by the address tie-break.
func TestCutPathsAgree(t *testing.T) { cutSequences(t, false) }

// TestCutPathsAgreeFromASharedBuild runs the same sequences from views that
// alias one frozen build, with a sibling that never mutates: whatever the
// mutating views do, the sibling stays indistinguishable from a private build
// of the start list, and keeps aliasing the frozen tables. The view that
// applies whole cuts moves from build to build, and a twin that applies the
// same cuts aliases the very build it does at every step. A newcomer to each
// step's build — a view whose history is that build's members alone — admits
// a joiner under the identifier of a member an earlier step removed, which
// the others reject: it gets a build of its own, and that build answers like
// a private one.
func TestCutPathsAgreeFromASharedBuild(t *testing.T) { cutSequences(t, true) }

func cutSequences(t *testing.T, sharedStart bool) {
	ownBuilds := 0 // steps at which a newcomer's history made it a build of its own
	defer func() {
		if sharedStart && ownBuilds == 0 && !t.Failed() {
			t.Error("no newcomer admitted a joiner whole rejected: the sequences never exercised a history of its own")
		}
	}()
	for seed := int64(0); seed < 200; seed++ {
		if sharedStart && testing.Short() && seed%4 != 0 {
			continue // the race lane runs the private sequences in full already
		}
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(10)
		// One sequence in three keeps the whole hash; one keeps two bits, so
		// every ring is a single run of radix ties; one keeps three bits of
		// each half, so the radix passes leave runs the tie-break pass orders
		// by the rest of the hash, then by address.
		mask := [...]uint64{^uint64(0), 3, 0xe000_0000_0000_0007}[seed%3]
		whole, single := newSized(k, 0, mask), newSized(k, 0, mask)
		live := map[node.Addr]node.Endpoint{}
		usedIDs := map[node.ID]bool{}
		next := 0
		fresh := func() node.Endpoint {
			next++
			// Addresses are not generated in sorted order, and some share a
			// long prefix.
			return node.Endpoint{
				Addr: node.Addr(fmt.Sprintf("host-%d.rack%d:%d", rng.Intn(1000), next%7, 1000+next)),
				ID:   node.ID{High: uint64(seed + 1), Low: uint64(next)},
			}
		}
		liveAddrs := func() []node.Addr {
			out := make([]node.Addr, 0, len(live))
			for a := range live {
				out = append(out, a)
			}
			node.SortAddrs(out)
			return out
		}
		var start, gone []node.Endpoint
		var sibling, twin, private *View
		checkSibling := func(when string) {}
		if sharedStart {
			for i, n := 0, 1+rng.Intn(60); i < n; i++ {
				ep := fresh()
				start, live[ep.Addr], usedIDs[ep.ID] = append(start, ep), ep, true
			}
			slices.SortFunc(start, node.CompareEndpoints)
			whole, single, sibling, twin = shared(k, start, mask), shared(k, start, mask), shared(k, start, mask), shared(k, start, mask)
			private = build(k, start, mask)
			frozen := sibling.t
			if whole.t != frozen || single.t != frozen || twin.t != frozen || whole.base == nil {
				t.Fatalf("seed %d: four views of one list do not alias one build", seed)
			}
			checkSibling = func(when string) {
				if sibling.t != frozen || sibling.base == nil {
					t.Fatalf("seed %d %s: the sibling no longer aliases the frozen build", seed, when)
				}
				sameView(t, fmt.Sprintf("seed %d %s (sibling vs private build)", seed, when), sibling, private, start, []node.Addr{"stranger:1"})
			}
			checkSibling("at the start")
		}
		for step := 0; step < 8; step++ {
			var joiners []node.Endpoint
			var leavers []node.Addr
			members := liveAddrs()
			switch kind := rng.Intn(6); {
			case kind == 0 || len(live) == 0: // a wave of joins, large enough for the radix sort
				for i, n := 0, 1+rng.Intn(2*radixMin); i < n; i++ {
					joiners = append(joiners, fresh())
				}
			case kind == 1: // a few joins
				for i, n := 0, 1+rng.Intn(4); i < n; i++ {
					joiners = append(joiners, fresh())
				}
			case kind == 2: // leaves
				rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
				leavers = members[:1+rng.Intn(len(members))]
			case kind == 3: // the view empties and refills in one cut
				leavers = members
				for i, n := 0, 1+rng.Intn(radixMin+10); i < n; i++ {
					joiners = append(joiners, fresh())
				}
			default: // mixed, with what the one-element calls reject
				rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
				leavers = append(leavers, members[:rng.Intn(len(members)+1)]...)
				leavers = append(leavers, "stranger:1") // not a member
				for i, n := 0, rng.Intn(8); i < n; i++ {
					joiners = append(joiners, fresh())
				}
				if len(joiners) > 0 {
					dupAddr := joiners[0]
					dupAddr.ID = fresh().ID
					dupID := fresh()
					dupID.ID = joiners[0].ID
					joiners = append(joiners, dupAddr, dupID)
				}
				if len(leavers) > 1 {
					// A member that leaves and returns at once: under a new
					// identifier it is admitted, under its old one it is not.
					again := live[leavers[0]]
					joiners = append(joiners, again)
					again.ID = fresh().ID
					joiners = append(joiners, again)
				}
				if len(gone) > 0 {
					// A fresh address under the identifier of a member an
					// earlier step removed: rejected by every view whose
					// history holds that identifier.
					back := fresh()
					back.ID = gone[rng.Intn(len(gone))].ID
					joiners = append(joiners, back)
				}
				if len(members) > 0 {
					stay := live[members[len(members)-1]]
					if !slices.Contains(leavers, stay.Addr) {
						stay.ID = fresh().ID
						joiners = append(joiners, stay) // address of a member that stays
					}
				}
			}

			var wantJoined, wantLeft []node.Endpoint
			for _, a := range leavers {
				ep, wasMember := single.Member(a)
				err := single.RemoveMember(a)
				if (err == nil) != wasMember || (err != nil && err != ErrNodeNotInRing) {
					t.Fatalf("seed %d: RemoveMember(%s) = %v", seed, a, err)
				}
				if err == nil {
					wantLeft = append(wantLeft, ep)
					delete(live, a)
				}
			}
			for _, ep := range joiners {
				_, taken := live[ep.Addr]
				err := single.AddMember(ep)
				switch {
				case taken && err != ErrNodeAlreadyInRing:
					t.Fatalf("seed %d: AddMember of a taken address = %v", seed, err)
				case !taken && usedIDs[ep.ID] && err != ErrUUIDAlreadyInRing:
					t.Fatalf("seed %d: AddMember of a used identifier = %v", seed, err)
				case !taken && !usedIDs[ep.ID] && err != nil:
					t.Fatalf("seed %d: AddMember(%v) = %v", seed, ep, err)
				}
				if err == nil {
					wantJoined = append(wantJoined, ep)
					live[ep.Addr] = ep
					usedIDs[ep.ID] = true
				}
			}
			var newcomer *View
			var newcomerMembers []node.Endpoint
			if sharedStart {
				newcomer = whole.base.view()
				newcomerMembers = whole.Members()
			}
			joined, left := whole.ApplyCut(joiners, leavers)
			gone = append(gone, left...)
			if !slices.EqualFunc(joined, wantJoined, node.Endpoint.Equal) {
				t.Fatalf("seed %d step %d: ApplyCut joined %v, the one-element calls admitted %v", seed, step, joined, wantJoined)
			}
			if !slices.EqualFunc(left, wantLeft, node.Endpoint.Equal) {
				t.Fatalf("seed %d step %d: ApplyCut removed %v, the one-element calls removed %v", seed, step, left, wantLeft)
			}

			members = liveAddrs()
			sorted := make([]node.Endpoint, len(members))
			for i, a := range members {
				sorted[i] = live[a]
			}
			shuffled := slices.Clone(sorted)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if len(shuffled) > 0 {
				shuffled = append(shuffled, shuffled[0]) // initial member lists may repeat seeds
			}
			strangers := []node.Addr{"stranger:1", fresh().Addr}
			name := fmt.Sprintf("seed %d step %d", seed, step)
			sameView(t, name+" (cut vs one at a time)", whole, single, sorted, strangers)
			sameView(t, name+" (cut vs built sorted)", whole, build(k, sorted, mask), sorted, strangers)
			sameView(t, name+" (cut vs built shuffled)", whole, build(k, shuffled, mask), sorted, strangers)
			if sharedStart {
				if checkSharers(t, name, whole, twin, newcomer, newcomerMembers, joiners, leavers, joined, left, strangers) {
					ownBuilds++
				}
			}
			checkSibling(fmt.Sprintf("step %d", step))
		}
	}
}

// checkSharers is the shared half of one step of cutSequences: whole, which
// has just applied the cut, still aliases a frozen build; twin applies the
// same cut with the same history and lands on that build; newcomer, which
// aliased the build whole left and knows only its members, lands on it too
// when it admits what whole did, and on a build of its own — one that answers
// like a private build of its members — when it admits more. It reports
// which of the two happened.
func checkSharers(t *testing.T, name string, whole, twin, newcomer *View, members, joiners []node.Endpoint, leavers []node.Addr, joined, left []node.Endpoint, strangers []node.Addr) (ownBuild bool) {
	t.Helper()
	if whole.base == nil {
		t.Fatalf("%s: whole no longer aliases a frozen build", name)
	}
	if j, l := twin.ApplyCut(joiners, leavers); !slices.EqualFunc(j, joined, node.Endpoint.Equal) || !slices.EqualFunc(l, left, node.Endpoint.Equal) || twin.t != whole.t {
		t.Fatalf("%s: the twin admitted %v and removed %v, and aliases whole's build = %v", name, j, l, twin.t == whole.t)
	}
	j, l := newcomer.ApplyCut(joiners, leavers)
	if !slices.EqualFunc(l, left, node.Endpoint.Equal) {
		t.Fatalf("%s: the newcomer removed %v, whole removed %v", name, l, left)
	}
	if slices.EqualFunc(j, joined, node.Endpoint.Equal) {
		if newcomer.t != whole.t {
			t.Fatalf("%s: the newcomer admitted what whole did but aliases another build", name)
		}
		return false
	}
	if newcomer.t == whole.t || newcomer.base == nil {
		t.Fatalf("%s: the newcomer admitted %v where whole admitted %v, and aliases whole's build = %v", name, j, joined, newcomer.t == whole.t)
	}
	for _, ep := range left {
		members = slices.DeleteFunc(members, func(m node.Endpoint) bool { return m.Addr == ep.Addr })
	}
	members = append(members, j...)
	slices.SortFunc(members, node.CompareEndpoints)
	sameView(t, name+" (newcomer vs built)", newcomer, build(newcomer.k, members, newcomer.hashMask), members, strangers)
	return true
}

func TestRadixSortIsAStableSortOnTop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 255, 1000} {
		for _, mask := range []uint32{^uint32(0), 0xff00, 0, 0xffff_0000, 0x0101_0101} {
			keys, tmp := make([]ringKey, n), make([]ringKey, n)
			for i := range keys {
				keys[i] = ringKey{top: rng.Uint32() & mask, slot: int32(i)}
			}
			want := slices.Clone(keys)
			slices.SortStableFunc(want, func(a, b ringKey) int { return cmp.Compare(a.top, b.top) })
			if got := radixSort(keys, tmp); !slices.Equal(got, want) {
				t.Fatalf("n=%d mask=%x: radix order differs from a stable comparison sort", n, mask)
			}
		}
	}
}

// TestHotPathAllocs pins the allocations of what an engine does per installed
// configuration, next to TestBulkConstructionAllocs.
func TestHotPathAllocs(t *testing.T) {
	eps := endpoints(500)
	slices.SortFunc(eps, node.CompareEndpoints)
	v := NewWithMembers(10, eps)
	if allocs := testing.AllocsPerRun(20, func() { v.Members() }); allocs != 1 {
		t.Errorf("Members() allocates %.0f times, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { v.MemberAddrs() }); allocs != 1 {
		t.Errorf("MemberAddrs() allocates %.0f times, want 1", allocs)
	}
	miss := testing.AllocsPerRun(20, func() {
		v.mu.Lock()
		v.configIsValid = false
		v.mu.Unlock()
		v.ConfigurationID()
	})
	if miss != 0 {
		t.Errorf("a ConfigurationID() miss allocates %.0f times, want 0", miss)
	}
	build := testing.AllocsPerRun(10, func() {
		if NewWithMembers(10, eps).Size() != 500 {
			t.Fatal("bad view")
		}
	})
	if build > 20 {
		t.Errorf("NewWithMembers(10, 500 members) allocates %.0f times, want <= 20", build)
	}
	// The copy a sharing view makes before its first mutation: the slot table,
	// the ring hashes, one block for the position index and the sequences, and
	// the sequence headers. No map: tables has none to copy or rehash.
	sharers := make([]*View, 21)
	for i := range sharers {
		sharers[i] = NewShared(10, eps)
	}
	next := 0
	copying := testing.AllocsPerRun(len(sharers)-1, func() {
		v := sharers[next]
		next++
		v.mu.Lock()
		v.own()
		v.mu.Unlock()
		if v.base != nil || v.t != &v.private {
			t.Fatal("own did not copy")
		}
	})
	if copying > 4 {
		t.Errorf("the copy on first mutation allocates %.0f times, want <= 4", copying)
	}
	for i, typ := 0, reflect.TypeOf(tables{}); i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Map {
			t.Errorf("tables.%s is a map: the copy on first mutation would have to rehash it", f.Name)
		}
	}
	extra := node.Endpoint{Addr: "extra:9000"}
	churn := testing.AllocsPerRun(50, func() {
		extra.ID.Low++ // a view never re-admits an identifier
		if err := v.AddMember(extra); err != nil {
			t.Fatal(err)
		}
		if err := v.RemoveMember(extra.Addr); err != nil {
			t.Fatal(err)
		}
	})
	if churn > 1 { // the identifier set grows now and then
		t.Errorf("an AddMember/RemoveMember pair allocates %.0f times, want <= 1", churn)
	}
}
