package view

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/node"
)

// sortedEndpoints returns n endpoints in address order with identifiers
// derived from tag, so that lists of different tests never compare equal.
func sortedEndpoints(n int, tag uint64) []node.Endpoint {
	eps := make([]node.Endpoint, n)
	for i := range eps {
		eps[i] = node.Endpoint{Addr: node.Addr(fmt.Sprintf("n%05d:9000", i)), ID: node.ID{High: tag, Low: uint64(i + 1)}}
	}
	return eps
}

// TestSharedBuildIsMadeOnce: however many views of one list are asked for at
// once, the process builds its K rings once and every view aliases that build.
func TestSharedBuildIsMadeOnce(t *testing.T) {
	eps := sortedEndpoints(500, 0xb01d)
	before := SharedBuilds()
	views := make([]*View, 64)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every caller brings its own copy of the list, as if decoded
			// from its own join response.
			views[i] = NewShared(10, slices.Clone(eps))
		}()
	}
	wg.Wait()
	if got := SharedBuilds() - before; got != 1 {
		t.Fatalf("64 concurrent views of one list made %d builds, want 1", got)
	}
	private := NewWithMembers(10, eps)
	for i, v := range views {
		if v.t != views[0].t || v.base == nil {
			t.Fatalf("view %d does not alias the one build", i)
		}
		if v.ConfigurationID() != private.ConfigurationID() || !slices.EqualFunc(v.Members(), eps, node.Endpoint.Equal) {
			t.Fatalf("view %d differs from a private build of the list", i)
		}
	}
	sameView(t, "shared vs private", views[63], private, eps, []node.Addr{"stranger:1"})
	m0, a0 := views[0].Membership()
	m1, a1 := views[1].Membership()
	if &m0[0] != &m1[0] || &a0[0] != &a1[0] || !slices.EqualFunc(m0, eps, node.Endpoint.Equal) || !slices.Equal(a0, node.EndpointAddrs(eps)) {
		t.Fatal("two views of one build do not hand out the same frozen membership")
	}
	if pm, _ := private.Membership(); &pm[0] == &m0[0] {
		t.Fatal("a private view handed out the frozen membership")
	}
}

// TestSharedBuildIsMatchedByContent: a build serves exactly the lists equal to
// it endpoint by endpoint, and only lists NewWithMembers would build to
// themselves are shared at all.
func TestSharedBuildIsMatchedByContent(t *testing.T) {
	eps := sortedEndpoints(50, 0xc0de)
	first := NewShared(10, eps)
	before := SharedBuilds()
	if again := NewShared(10, slices.Clone(eps)); again.t != first.t || SharedBuilds() != before {
		t.Fatal("an equal list did not find the build")
	}

	variants := map[string]func([]node.Endpoint){
		"one identifier":     func(l []node.Endpoint) { l[17].ID.Low = 9999 },
		"one address":        func(l []node.Endpoint) { l[49].Addr = "n99999:9000" },
		"one metadata value": func(l []node.Endpoint) { l[3].Metadata = map[string]string{"role": "x"} },
	}
	for name, change := range variants {
		list := slices.Clone(eps)
		change(list)
		v := NewShared(10, list)
		if v.t == first.t {
			t.Errorf("a list differing in %s was served the other list's build", name)
		}
		sameView(t, name, v, NewWithMembers(10, list), list, nil)
		if got, ok := v.Member(list[3].Addr); !ok || !reflect.DeepEqual(got, list[3]) {
			t.Errorf("%s: Member() = %v, want the caller's endpoint %v", name, got, list[3])
		}
	}
	if k9 := NewShared(9, eps); k9.t == first.t || k9.K() != 9 {
		t.Error("a different K was served the K=10 build")
	}

	// Lists that are not their own build are built privately.
	swapped := slices.Clone(eps)
	swapped[10], swapped[11] = swapped[11], swapped[10]
	dupAddr := slices.Insert(slices.Clone(eps), 20, eps[19])
	dupID := slices.Clone(eps)
	dupID[30].ID = dupID[5].ID
	for name, list := range map[string][]node.Endpoint{"out of order": swapped, "a repeated address": dupAddr, "a repeated identifier": dupID} {
		for range 2 { // the second call must not find a cached mistake
			v := NewShared(10, list)
			if v.base != nil {
				t.Errorf("%s: the view is shared", name)
			}
			want := NewWithMembers(10, list)
			sameView(t, name, v, want, want.Members(), nil)
		}
	}
}

// TestSharedBuildTableIsBounded: the process keeps the last few builds only,
// and a list that fell out is simply built again.
func TestSharedBuildTableIsBounded(t *testing.T) {
	for i := 0; i < 100; i++ {
		NewShared(3, sortedEndpoints(4, 0xb0d0+uint64(i)))
		builds.Lock()
		n := len(builds.recent)
		builds.Unlock()
		if n > maxBuilds {
			t.Fatalf("the table holds %d builds after %d lists, want at most %d", n, i+1, maxBuilds)
		}
	}
	before := SharedBuilds()
	NewShared(3, sortedEndpoints(4, 0xb0d0+99)) // the newest: still there
	if SharedBuilds() != before {
		t.Error("the newest list was built again")
	}
	v := NewShared(3, sortedEndpoints(4, 0xb0d0)) // the oldest: long gone
	if SharedBuilds() != before+1 || v.Size() != 4 {
		t.Error("a list that fell out of the table was not built again")
	}
}

// TestSharersMutateWhileReadersWalk is the race test of the sharing rule, and
// runs under -short so that the race lane executes it: 32 views of one build
// each apply a different cut while 32 more walk the frozen tables.
func TestSharersMutateWhileReadersWalk(t *testing.T) {
	eps := sortedEndpoints(300, 0x4ace)
	private := NewWithMembers(10, eps)
	var wg sync.WaitGroup
	writers, readers := make([]*View, 32), make([]*View, 32)
	for i := range writers {
		writers[i], readers[i] = NewShared(10, eps), NewShared(10, eps)
	}
	for i := range writers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			joiner := node.Endpoint{Addr: node.Addr(fmt.Sprintf("joiner-%d:1", i)), ID: node.ID{High: 0x4acf, Low: uint64(i)}}
			joined, left := writers[i].ApplyCut([]node.Endpoint{joiner}, []node.Addr{eps[i].Addr, eps[299-i].Addr})
			if len(joined) != 1 || len(left) != 2 {
				t.Errorf("writer %d: joined %d, removed %d", i, len(joined), len(left))
			}
		}()
		go func() {
			defer wg.Done()
			v := readers[i]
			for _, ep := range eps {
				if obs, err := v.ObserversOf(ep.Addr); err != nil || len(obs) != 10 {
					t.Errorf("reader %d: ObserversOf(%s) = %v, %v", i, ep.Addr, obs, err)
					return
				}
			}
			if v.ConfigurationID() != private.ConfigurationID() || len(v.Members()) != 300 {
				t.Errorf("reader %d saw another configuration", i)
			}
		}()
	}
	wg.Wait()
	for i, v := range writers {
		want := slices.Clone(eps)
		want = slices.Delete(want, 299-i, 300-i)
		want = slices.Delete(want, i, i+1)
		want = append(want, node.Endpoint{Addr: node.Addr(fmt.Sprintf("joiner-%d:1", i)), ID: node.ID{High: 0x4acf, Low: uint64(i)}})
		slices.SortFunc(want, node.CompareEndpoints)
		sameView(t, fmt.Sprintf("writer %d", i), v, NewWithMembers(10, want), want, nil)
	}
	sameView(t, "a reader, afterwards", readers[0], private, eps, nil)
}

// TestSharedCutIsBuiltOnce: 64 views of one build apply the same cut at once —
// what every member of an in-process fleet does with a decision. The process
// builds the next configuration once, every view aliases that build, and it
// answers like a private build of the new list.
func TestSharedCutIsBuiltOnce(t *testing.T) {
	eps := sortedEndpoints(500, 0xc07)
	views := make([]*View, 64)
	for i := range views {
		views[i] = NewShared(10, eps)
	}
	joiners := sortedEndpoints(3, 0xc08)
	for i := range joiners {
		joiners[i].Addr = node.Addr(fmt.Sprintf("joiner-%d:1", i))
	}
	leavers := []node.Addr{eps[7].Addr, eps[300].Addr}
	before := SharedBuilds()
	var wg sync.WaitGroup
	for _, v := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if joined, left := v.ApplyCut(joiners, leavers); len(joined) != 3 || len(left) != 2 {
				t.Errorf("a view joined %d and removed %d, want 3 and 2", len(joined), len(left))
			}
		}()
	}
	wg.Wait()
	if got := SharedBuilds() - before; got != 1 {
		t.Fatalf("64 views applying one cut made %d builds, want 1", got)
	}
	want := slices.Concat(eps[:7], eps[8:300], eps[301:], joiners)
	slices.SortFunc(want, node.CompareEndpoints)
	for i, v := range views {
		if v.t != views[0].t || v.base == nil {
			t.Fatalf("view %d does not alias the one build of the cut", i)
		}
	}
	sameView(t, "cut build vs private", views[63], NewWithMembers(10, want), want, []node.Addr{eps[7].Addr, "stranger:1"})
	m0, a0 := views[0].Membership()
	if m1, a1 := views[1].Membership(); &m0[0] != &m1[0] || &a0[0] != &a1[0] || !slices.EqualFunc(m0, want, node.Endpoint.Equal) {
		t.Fatal("two views of one cut build do not hand out the same frozen membership")
	}
	// A member handed the build's membership — a joiner of the new
	// configuration — finds the build without comparing the list.
	if v := NewShared(10, m0); v.t != views[0].t || SharedBuilds()-before != 1 {
		t.Fatal("NewShared of a cut build's own membership did not find the build")
	}
	// A view that left the cut's parent behind rejects what its history
	// rejects, where a newcomer to the build does not.
	back := node.Endpoint{Addr: "back:1", ID: eps[7].ID}
	if joined, _ := views[0].ApplyCut([]node.Endpoint{back}, nil); len(joined) != 0 || views[0].t != views[1].t {
		t.Fatal("a view admitted the identifier of a member it removed")
	}
	if joined, _ := NewShared(10, m0).ApplyCut([]node.Endpoint{back}, nil); len(joined) != 1 {
		t.Fatal("a newcomer to the build rejected an identifier it never saw")
	}
}

// TestPrivateMutationOfACutBuild: a view that aliases a build made by a
// removal — one with a free slot — and then mutates privately copies the free
// list with the tables, and each sequence with its own length. The parent
// build, which the removal was applied to, never reaches this state: a list
// build has no free slot and is never written. Nor does an engine, which
// changes a shared view only through ApplyCut.
func TestPrivateMutationOfACutBuild(t *testing.T) {
	eps := sortedEndpoints(40, 0xf4ee)
	v, parent := NewShared(10, eps), NewShared(10, eps)
	v.ApplyCut(nil, []node.Addr{eps[5].Addr, eps[20].Addr})
	if v.base == nil || len(v.t.free) != 2 {
		t.Fatalf("the cut build has %d free slots and is aliased = %v, want 2 and true", len(v.t.free), v.base != nil)
	}
	want := slices.Concat(eps[:5], eps[6:20], eps[21:])
	extra := node.Endpoint{Addr: "extra:1", ID: node.ID{High: 0xf4ef, Low: 1}}
	if err := v.AddMember(extra); err != nil {
		t.Fatal(err)
	}
	if v.base != nil {
		t.Fatal("AddMember did not copy the build")
	}
	if err := v.RemoveMember(eps[30].Addr); err != nil {
		t.Fatal(err)
	}
	want = slices.DeleteFunc(append(want, extra), func(ep node.Endpoint) bool { return ep.Addr == eps[30].Addr })
	slices.SortFunc(want, node.CompareEndpoints)
	sameView(t, "private mutation of a cut build", v, NewWithMembers(10, want), want, []node.Addr{eps[5].Addr})
	sameView(t, "the parent build, afterwards", parent, NewWithMembers(10, eps), eps, nil)
}
