package main

import (
	"fmt"
	"math/rand"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	rapid "repro"
	"repro/internal/node"
	"repro/internal/view"
)

const benchmarkJSON = "../BENCHMARK.json"

// No Benchmark* function in this package forms a fleet: CI's
// `-bench . -benchtime=1x` smoke would run it.

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkDeclarations(b) {
		t.Error(p)
	}
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(b.PerLayer), len(b.EndToEnd))
	}
}

// TestValidateSmoke is the toy-size run of all four workloads, untraced and
// traced, checked against BENCHMARK.json: about 15 s, mostly protocol timers.
func TestValidateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("forms eight toy fleets; skipped in -short mode")
	}
	b, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(b, options{seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func endpointsNamed(names ...string) []rapid.Endpoint {
	eps := make([]rapid.Endpoint, len(names))
	for i, n := range names {
		eps[i] = rapid.Endpoint{Addr: rapid.Addr(n), ID: node.ID{High: 1, Low: uint64(n[0])}}
	}
	return eps
}

func TestCheckerAcceptsAConsistentRun(t *testing.T) {
	ck := newChecker()
	abc, ab := endpointsNamed("a", "b", "c"), endpointsNamed("a", "b")
	ck.declareVictims("c")
	removed := []rapid.StatusChange{{Endpoint: abc[2], Joined: false}}
	for _, m := range []rapid.Addr{"a", "b"} {
		ck.observe(m, rapid.ViewChange{ConfigurationID: 1, Members: abc})
		ck.observe(m, rapid.ViewChange{ConfigurationID: 2, Members: ab, Changes: removed})
	}
	if v := ck.finish(map[rapid.Addr][]rapid.Endpoint{"a": ab, "b": ab}); len(v) != 0 {
		t.Fatalf("clean run reported %v", v)
	}
}

func TestCheckerCatchesEachViolation(t *testing.T) {
	abc, ab, ac := endpointsNamed("a", "b", "c"), endpointsNamed("a", "b"), endpointsNamed("a", "c")
	cases := []struct {
		name string
		run  func(ck *checker) []string
		want string
	}{
		{"two memberships under one configuration ID", func(ck *checker) []string {
			ck.observe("a", rapid.ViewChange{ConfigurationID: 7, Members: ab})
			ck.observe("b", rapid.ViewChange{ConfigurationID: 7, Members: ac})
			return ck.finish(nil)
		}, "configuration 7"},
		{"contradictory install orders", func(ck *checker) []string {
			ck.observe("a", rapid.ViewChange{ConfigurationID: 1, Members: ab})
			ck.observe("a", rapid.ViewChange{ConfigurationID: 2, Members: abc})
			ck.observe("b", rapid.ViewChange{ConfigurationID: 2, Members: abc})
			ck.observe("b", rapid.ViewChange{ConfigurationID: 1, Members: ab})
			return ck.finish(nil)
		}, "contradictory orders"},
		{"a healthy member evicted", func(ck *checker) []string {
			ck.observe("a", rapid.ViewChange{ConfigurationID: 2, Members: ab,
				Changes: []rapid.StatusChange{{Endpoint: abc[2], Joined: false}}})
			return ck.finish(nil)
		}, "unnecessary eviction"},
		{"final views disagree", func(ck *checker) []string {
			return ck.finish(map[rapid.Addr][]rapid.Endpoint{"a": ab, "b": abc})
		}, "final view of b"},
	}
	for _, c := range cases {
		got := strings.Join(c.run(newChecker()), "\n")
		if !strings.Contains(got, c.want) {
			t.Errorf("%s: violations %q do not mention %q", c.name, got, c.want)
		}
	}
}

// TestWrongExpectationFailsTheRun crashes one member of a live fleet while
// the workload declares a different one the victim: the checker must report
// the crashed member's removal as an unnecessary eviction, and the declared
// victim as wrongly present in the final views.
func TestWrongExpectationFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("forms a fleet; skipped in -short mode")
	}
	w := workload{Name: "wrong-expectation", N: 16, TimeScale: 40, Fleets: 1, Faults: []faultKind{faultCrash}}
	f := newFleet(&w, 0, 1, nil)
	if _, _, err := f.form(); err != nil {
		f.stop()
		t.Fatal(err)
	}
	members := f.healthyAddrs()
	crashed, declared := members[1], members[2]
	f.markVictims([]rapid.Addr{declared})
	f.sim.Crash(crashed)
	seed := f.members[f.seedAddr].c
	for deadline := time.Now().Add(f.wall(roundBudget)); seed.Size() == w.N; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			f.stop()
			t.Fatalf("%s was never removed", crashed)
		}
	}
	var s samples
	s.close(f)
	got := strings.Join(s.Violations, "\n")
	if !strings.Contains(got, "unnecessary eviction") || !strings.Contains(got, string(crashed)) {
		t.Errorf("violations %q do not report the eviction of %s", got, crashed)
	}
	if !strings.Contains(got, "final view") {
		t.Errorf("violations %q do not report the wrong final views", got)
	}
}

// TestDrawVictimsIsSeededAndStaysInTheFaultClass checks the victim draw at
// workload size: equal seeds draw equal victims from addresses alone, gray
// victims satisfy both rules of the fault class, and a pool too small to hold
// a fitting pair draws nothing instead of anyone.
func TestDrawVictimsIsSeededAndStaysInTheFaultClass(t *testing.T) {
	const k = 10
	pool := make([]rapid.Addr, 200)
	members := make([]rapid.Endpoint, len(pool))
	for i := range pool {
		pool[i] = rapid.Addr(fmt.Sprintf("n%05d:9000", i))
		members[i] = rapid.Endpoint{Addr: pool[i], ID: node.ID{High: 7, Low: uint64(1000 - i)}}
	}
	rings := view.NewWithMembers(k, members)
	exempt := map[rapid.Addr]bool{pool[0]: true, pool[199]: true}
	for _, kind := range []faultKind{faultCrash, faultOneWay, faultEgressLoss, faultSlow} {
		for seed := int64(0); seed < 50; seed++ {
			victims, deaf, _ := drawVictims(rand.New(rand.NewSource(seed)), kind, pool, exempt, k)
			again, _, _ := drawVictims(rand.New(rand.NewSource(seed)), kind, pool, exempt, k)
			if len(victims) != victimsPerRound || !reflect.DeepEqual(victims, again) {
				t.Fatalf("%s seed %d: drew %v, then %v", kind, seed, victims, again)
			}
			slots := make(map[rapid.Addr]int)
			for _, v := range victims {
				if exempt[v] {
					t.Errorf("%s seed %d: drew exempt member %s", kind, seed, v)
				}
				if kind == faultCrash {
					continue
				}
				subjects, _ := rings.SubjectsOf(v)
				for _, s := range subjects {
					if slots[s]++; slots[s] >= paperL {
						t.Errorf("%s seed %d: victims %v hold %d observer slots of %s", kind, seed, victims, slots[s], s)
					}
				}
				observers, _ := rings.ObserversOf(v)
				unheard := 0
				for _, o := range observers {
					if deaf[o] {
						unheard++
					}
				}
				if kind == faultOneWay && (unheard < paperL || unheard >= paperH) {
					t.Errorf("%s seed %d: victim %s is unheard by %d of its observers", kind, seed, v, unheard)
				}
			}
		}
	}
	// Three members: every subject has all its observer slots held by the two
	// others, so no gray pair fits.
	if victims, _, _ := drawVictims(rand.New(rand.NewSource(1)), faultSlow, pool[:3], nil, k); victims != nil {
		t.Errorf("drew %v from a pool in which no pair fits", victims)
	}
}

// TestBenchIsVetClean is TestRepoIsVetClean for this module, which the
// repository's own `go vet ./...` and rapid-vet sweep do not reach.
func TestBenchIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rapid-vet; skipped in -short mode")
	}
	tool := filepath.Join(t.TempDir(), "rapid-vet")
	build := exec.Command("go", "build", "-o", tool, "./cmd/rapid-vet")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rapid-vet: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"vet", "./..."}, {"vet", "-vettool=" + tool, "./..."}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Errorf("go %s:\n%s", strings.Join(args, " "), out)
		}
	}
}

func TestSubSeedsAreStableAndDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s := subSeed(42, i)
		if s != subSeed(42, i) || s < 0 || seen[s] {
			t.Fatalf("sub-seed %d of seed 42 is unstable, negative or repeated: %d", i, s)
		}
		seen[s] = true
	}
	if subSeed(42, 0) == subSeed(43, 0) {
		t.Fatal("neighbouring seeds share a sub-seed")
	}
}
