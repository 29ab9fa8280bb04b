package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	rapid "repro"
)

// checker verifies Rapid's two guarantees — consistent and stable membership —
// from the Subscribe stream of every member, on every run:
//
//   - consistency: one configuration ID never names two memberships, and no
//     two members install configurations in contradictory orders;
//   - stability: no view change removes an endpoint that the workload did not
//     declare a victim (an unnecessary eviction), and at the end every
//     healthy member holds the same view, made of exactly the healthy members.
type checker struct {
	mu      sync.Mutex
	configs map[uint64]fingerprint
	// logs holds, per member, the configuration IDs in the order its
	// Subscribe callback delivered them.
	logs    map[rapid.Addr][]uint64
	victims map[rapid.Addr]bool
	// evicted holds the healthy addresses already reported as evicted: every
	// member installs the same wrong view change, and one report is enough.
	evicted    map[rapid.Addr]bool
	violations []string
}

// fingerprint identifies a membership without keeping it: the member count
// and an order-independent hash of the 128-bit logical IDs. Keeping the
// Members slice of every callback would pin N endpoints x N members x every
// view change.
type fingerprint struct {
	size int
	hash uint64
}

func fingerprintOf(members []rapid.Endpoint) fingerprint {
	fp := fingerprint{size: len(members)}
	for i := range members {
		x := members[i].ID.High*0x9e3779b97f4a7c15 ^ members[i].ID.Low
		x ^= x >> 32
		fp.hash += x * 0xd6e8feb86659fd93
	}
	return fp
}

func newChecker() *checker {
	return &checker{
		configs: make(map[uint64]fingerprint),
		logs:    make(map[rapid.Addr][]uint64),
		victims: make(map[rapid.Addr]bool),
		evicted: make(map[rapid.Addr]bool),
	}
}

// maxViolations bounds the report; one broken invariant usually repeats on
// every member.
const maxViolations = 20

func (ck *checker) failf(format string, args ...any) {
	if len(ck.violations) < maxViolations {
		ck.violations = append(ck.violations, fmt.Sprintf(format, args...))
	}
}

// declareVictims marks addresses whose removal is expected from now on.
func (ck *checker) declareVictims(addrs ...rapid.Addr) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	for _, a := range addrs {
		ck.victims[a] = true
	}
}

// observe records one delivered view change of one member. It reports whether
// the configuration ID was new to the whole fleet.
func (ck *checker) observe(member rapid.Addr, vc rapid.ViewChange) bool {
	fp := fingerprintOf(vc.Members)
	ck.mu.Lock()
	defer ck.mu.Unlock()
	known, seen := ck.configs[vc.ConfigurationID]
	if !seen {
		ck.configs[vc.ConfigurationID] = fp
	} else if known != fp {
		ck.failf("configuration %x: %s installed %d members (hash %x), another member installed %d (hash %x)",
			vc.ConfigurationID, member, fp.size, fp.hash, known.size, known.hash)
	}
	for _, ch := range vc.Changes {
		if !ch.Joined && !ck.victims[ch.Endpoint.Addr] && !ck.evicted[ch.Endpoint.Addr] {
			ck.evicted[ch.Endpoint.Addr] = true
			ck.failf("unnecessary eviction: %s installed configuration %x removing healthy member %s",
				member, vc.ConfigurationID, ch.Endpoint.Addr)
		}
	}
	ck.logs[member] = append(ck.logs[member], vc.ConfigurationID)
	return !seen
}

// finish runs the end-of-run checks over the final views of the healthy
// members and returns every violation found during the run.
func (ck *checker) finish(finals map[rapid.Addr][]rapid.Endpoint) []string {
	ck.mu.Lock()
	defer ck.mu.Unlock()

	healthy := make([]rapid.Addr, 0, len(finals))
	for a := range finals {
		healthy = append(healthy, a)
	}
	sort.Slice(healthy, func(i, j int) bool { return healthy[i] < healthy[j] })
	for _, a := range healthy {
		view := finals[a] // Members() is sorted by address and already a copy
		if len(view) != len(healthy) {
			ck.failf("final view of %s has %d members, want the %d healthy ones", a, len(view), len(healthy))
			continue
		}
		for i := range view {
			if view[i].Addr != healthy[i] {
				ck.failf("final view of %s holds %s where %s is expected", a, view[i].Addr, healthy[i])
				break
			}
		}
	}
	if cycle := ck.orderCycle(); cycle != "" {
		ck.failf("members installed configurations in contradictory orders: %s", cycle)
	}
	return ck.violations
}

// orderCycle looks for two (or more) members whose install orders contradict
// each other: it builds the "installed before" graph from consecutive entries
// of every member's log and describes a cycle if one exists, naming for each
// step a member that took it. Configurations form a chain in Rapid, and the
// driver never brings the membership back to an earlier set (see
// fleet.newest), so no ID repeats and any cycle is a violation.
func (ck *checker) orderCycle() string {
	next := make(map[uint64]map[uint64]rapid.Addr) // from -> to -> a witness
	for member, log := range ck.logs {
		for i := 1; i < len(log); i++ {
			if log[i-1] == log[i] {
				continue
			}
			if next[log[i-1]] == nil {
				next[log[i-1]] = make(map[uint64]rapid.Addr)
			}
			next[log[i-1]][log[i]] = member
		}
	}
	const (
		unvisited = iota
		open
		done
	)
	state := make(map[uint64]int)
	var path []uint64
	var visit func(id uint64) []uint64
	visit = func(id uint64) []uint64 {
		state[id] = open
		path = append(path, id)
		for succ := range next[id] {
			switch state[succ] {
			case open:
				for i, p := range path {
					if p == succ {
						return append(append([]uint64(nil), path[i:]...), succ)
					}
				}
			case unvisited:
				if c := visit(succ); c != nil {
					return c
				}
			}
		}
		path = path[:len(path)-1]
		state[id] = done
		return nil
	}
	for id := range next {
		if state[id] != unvisited {
			continue
		}
		if c := visit(id); c != nil {
			var sb strings.Builder
			for i := 1; i < len(c); i++ {
				fmt.Fprintf(&sb, "%x -> %x at %s; ", c[i-1], c[i], next[c[i-1]][c[i]])
			}
			return sb.String()
		}
	}
	return ""
}
