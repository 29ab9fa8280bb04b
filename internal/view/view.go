// Package view implements Rapid's membership view and its K-ring expander
// monitoring topology (§4.1 of the paper). A view is a configuration: a set
// of member endpoints plus a configuration identifier. The same membership
// set always produces the same K rings on every process, so each process can
// locally determine its observers and subjects without communication.
//
// The topology is built from K pseudo-random rings: ring r orders all members
// by a per-ring hash of their address. A pair (o, s) is an observer/subject
// edge if o immediately precedes s in some ring. Every process therefore has
// K observers and K subjects, and the union of the rings is (with high
// probability) a good expander — the property §8 of the paper relies on.
//
// Hot-path design. Members live in a slot table; the K rings, and the
// membership in address order beside them, are sequences of int32 slot
// indexes, and every slot records its index in each sequence. The K·N arrays
// hold no pointers, so the collector never scans them.
//
//   - Topology queries (ObserversOf, SubjectsOf, RingNumbers) are O(K) array
//     lookups with no hashing and no searching: each member's K ring hashes
//     are computed exactly once, when it is staged.
//   - The address order is maintained, not derived: Members and MemberAddrs
//     are an O(N) copy, and a ConfigurationID miss is one pass over it with no
//     sort and no allocation.
//   - There is one mutation path, rewire, and it applies a whole cut at once:
//     the cut's ring keys are sorted and merged into each sequence in a single
//     in-place pass — O(K·(N + c log c)) for a cut of c — instead of c
//     shifted insertions. AddMember and RemoveMember are one-element cuts, and
//     NewWithMembers is the same path from the empty view.
//   - Large cuts order their ring keys with an LSD radix sort on the upper
//     half of the 64-bit ring hash, not a comparison sort; a tie-break pass
//     orders what the radix passes left equal by the full (hash, address) key,
//     so the order is total and identical on every process.
package view

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/node"
	"repro/internal/remoting"
)

// Errors returned by view mutations and queries.
var (
	// ErrNodeAlreadyInRing indicates an endpoint address is already a member.
	ErrNodeAlreadyInRing = errors.New("view: node already in ring")
	// ErrNodeNotInRing indicates the endpoint address is not a member.
	ErrNodeNotInRing = errors.New("view: node not in ring")
	// ErrUUIDAlreadyInRing indicates the logical identifier was already used
	// in this view; the joiner must retry with a fresh identifier.
	ErrUUIDAlreadyInRing = errors.New("view: UUID already in ring")
)

// View is a configuration: a membership set arranged into K rings. All methods
// are safe for concurrent use.
type View struct {
	k int
	// hashMask is ANDed onto every ring hash. It is all ones outside the
	// package's tests, which narrow it to force equal ring hashes.
	hashMask uint64

	mu sync.RWMutex
	// The slot table. A member keeps its slot for as long as it stays; free
	// lists the vacated ones. hashes holds K ring hashes per slot, pos K+1
	// sequence indexes per slot.
	eps    []node.Endpoint
	hashes []uint64
	pos    []int32
	free   []int32
	// seqs[r] for r < K is ring r: the slots ordered by (ring hash, address).
	// seqs[K] is the membership in address order, kept the way a ring is: a
	// ring whose key is the address alone.
	seqs    [][]int32
	byAddr  map[node.Addr]int32
	seenIDs map[node.ID]struct{}

	cachedConfig  uint64
	configIsValid bool
}

// New creates an empty view with k rings. k must be at least 1; the paper
// uses K=10.
func New(k int) *View { return newSized(k, 0, ^uint64(0)) }

// newSized creates an empty view with room for n members.
func newSized(k, n int, hashMask uint64) *View {
	if k < 1 {
		panic("view: k must be >= 1")
	}
	v := &View{
		k:        k,
		hashMask: hashMask,
		eps:      make([]node.Endpoint, 0, n),
		hashes:   make([]uint64, 0, n*k),
		pos:      make([]int32, 0, n*(k+1)),
		seqs:     make([][]int32, k+1),
		byAddr:   make(map[node.Addr]int32, n),
		seenIDs:  make(map[node.ID]struct{}, n),
	}
	block := make([]int32, (k+1)*n)
	for r := range v.seqs {
		v.seqs[r] = block[r*n : r*n : (r+1)*n]
	}
	return v
}

// NewWithMembers creates a view with k rings containing the given members.
// Duplicate addresses and identifiers are ignored silently: initial member
// lists may repeat seeds. It is one cut applied to the empty view, with every
// table sized up front; members is not retained.
func NewWithMembers(k int, members []node.Endpoint) *View {
	return build(k, members, ^uint64(0))
}

// build is NewWithMembers with the ring hash masked (see View.hashMask).
func build(k int, members []node.Endpoint, hashMask uint64) *View {
	v := newSized(k, len(members), hashMask)
	adds := make([]int32, 0, len(members))
	for _, ep := range members {
		if v.admissible(ep) == nil {
			adds = append(adds, v.stage(ep))
		}
	}
	v.rewire(adds, nil)
	return v
}

// K returns the number of rings (observers per subject).
func (v *View) K() int { return v.k }

// Size returns the number of members in the view.
func (v *View) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.byAddr)
}

// Contains reports whether addr is a member of the view.
func (v *View) Contains(addr node.Addr) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.byAddr[addr]
	return ok
}

// ContainsID reports whether the logical identifier has been seen in this view.
func (v *View) ContainsID(id node.ID) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.seenIDs[id]
	return ok
}

// Member returns the endpoint registered for addr.
func (v *View) Member(addr node.Addr) (node.Endpoint, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s, ok := v.byAddr[addr]
	if !ok {
		return node.Endpoint{}, false
	}
	return v.eps[s], true
}

// Members returns all member endpoints sorted by address, in a slice the
// caller owns.
func (v *View) Members() []node.Endpoint {
	v.mu.RLock()
	defer v.mu.RUnlock()
	order := v.seqs[v.k]
	out := make([]node.Endpoint, len(order))
	for i, s := range order {
		out[i] = v.eps[s]
	}
	return out
}

// MemberAddrs returns all member addresses sorted lexicographically, in a
// slice the caller owns.
func (v *View) MemberAddrs() []node.Addr {
	v.mu.RLock()
	defer v.mu.RUnlock()
	order := v.seqs[v.k]
	out := make([]node.Addr, len(order))
	for i, s := range order {
		out[i] = v.eps[s].Addr
	}
	return out
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fillRingHashes computes the hash that orders addr within each ring r into
// dst[r]. FNV-1a over the ring index (four little-endian bytes) and the
// address, followed by a 64-bit avalanche finalizer (the murmur3 fmix64
// routine), gives every ring an effectively independent pseudo-random
// permutation that every process computes identically. The finalizer matters:
// without it, orderings of nearby ring indices are correlated and the union
// of the rings is a much weaker expander.
//
// The rings advance together, one address byte at a time: the multiply chains
// of different rings are independent, so they pipeline instead of each
// waiting out its own latency.
func fillRingHashes(dst []uint64, addr node.Addr, mask uint64) {
	for r := range dst {
		h := uint64(fnvOffset)
		h = (h ^ uint64(byte(r))) * fnvPrime
		h = (h ^ uint64(byte(r>>8))) * fnvPrime
		h = (h ^ uint64(byte(r>>16))) * fnvPrime
		h = (h ^ uint64(byte(r>>24))) * fnvPrime
		dst[r] = h
	}
	for i := 0; i < len(addr); i++ {
		b := uint64(addr[i])
		for r := range dst {
			dst[r] = (dst[r] ^ b) * fnvPrime
		}
	}
	for r := range dst {
		dst[r] = fmix64(dst[r]) & mask
	}
}

// fmix64 is the murmur3 64-bit finalizer: a cheap bijective avalanche mix.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// probeHashes returns the K ring hashes of an address that is not (or need
// not be) a member. buf keeps the paper's K on the caller's stack.
func (v *View) probeHashes(buf *[16]uint64, addr node.Addr) []uint64 {
	hs := buf[:]
	if v.k > len(buf) {
		hs = make([]uint64, v.k)
	}
	hs = hs[:v.k]
	fillRingHashes(hs, addr, v.hashMask)
	return hs
}

// --- the mutation path ---------------------------------------------------------

// admissible reports why ep may not join, if it may not. Must be called with
// the lock held.
func (v *View) admissible(ep node.Endpoint) error {
	if _, ok := v.byAddr[ep.Addr]; ok {
		return ErrNodeAlreadyInRing
	}
	if _, ok := v.seenIDs[ep.ID]; ok {
		return ErrUUIDAlreadyInRing
	}
	return nil
}

// stage gives an admissible endpoint a slot, hashes it once per ring and
// registers its address and identifier; rewire then places it in the rings.
func (v *View) stage(ep node.Endpoint) int32 {
	var s int32
	if n := len(v.free); n > 0 {
		s, v.free = v.free[n-1], v.free[:n-1]
		v.eps[s] = ep
	} else {
		// The new rows are written before they are read: the hashes just
		// below, the positions when rewire places the slot.
		s = int32(len(v.eps))
		v.eps = append(v.eps, ep)
		v.hashes = slices.Grow(v.hashes, v.k)[:len(v.hashes)+v.k]
		v.pos = slices.Grow(v.pos, v.k+1)[:len(v.pos)+v.k+1]
	}
	fillRingHashes(v.hashes[int(s)*v.k:(int(s)+1)*v.k], ep.Addr, v.hashMask)
	v.byAddr[ep.Addr] = s
	v.seenIDs[ep.ID] = struct{}{}
	return s
}

// unstage unregisters a member's address and returns its slot, which stays
// occupied until rewire has taken it out of the rings. The logical ID stays
// in seenIDs: a process that rejoins must use a new identifier (§3).
func (v *View) unstage(addr node.Addr) (int32, bool) {
	s, ok := v.byAddr[addr]
	if ok {
		delete(v.byAddr, addr)
	}
	return s, ok
}

// AddMember inserts an endpoint into every ring. It fails if the address or
// the logical identifier is already present.
func (v *View) AddMember(ep node.Endpoint) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.admissible(ep); err != nil {
		return err
	}
	adds := [1]int32{v.stage(ep)}
	v.rewire(adds[:], nil)
	return nil
}

// RemoveMember removes the endpoint with the given address from every ring.
func (v *View) RemoveMember(addr node.Addr) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.unstage(addr)
	if !ok {
		return ErrNodeNotInRing
	}
	dels := [1]int32{s}
	v.rewire(nil, dels[:])
	return nil
}

// ApplyCut applies one multi-process cut (§4.2) with a single pass over each
// ring: the leavers are removed as RemoveMember would remove them, then the
// joiners are admitted as AddMember would admit them, in order — so a process
// may leave and return under a new identifier in one cut. It returns the
// endpoints actually added and removed. A leaver that is not a member, and a
// joiner whose address or identifier is taken — by a member or by an earlier
// joiner of the same cut — are skipped, where the one-element calls would
// have returned ErrNodeNotInRing, ErrNodeAlreadyInRing or
// ErrUUIDAlreadyInRing.
func (v *View) ApplyCut(joiners []node.Endpoint, leavers []node.Addr) (joined, left []node.Endpoint) {
	v.mu.Lock()
	defer v.mu.Unlock()
	dels := make([]int32, 0, len(leavers))
	for _, a := range leavers {
		if s, ok := v.unstage(a); ok {
			dels = append(dels, s)
			left = append(left, v.eps[s])
		}
	}
	adds := make([]int32, 0, len(joiners))
	for _, ep := range joiners {
		if v.admissible(ep) == nil {
			adds = append(adds, v.stage(ep))
			joined = append(joined, ep)
		}
	}
	v.rewire(adds, dels)
	return joined, left
}

// rewire is the view's one mutation path: it takes the slots in dels out of
// every sequence and merges the staged slots in adds into every sequence,
// touching only the part of a sequence behind the first slot that moves.
func (v *View) rewire(adds, dels []int32) {
	if len(adds)+len(dels) == 0 {
		return
	}
	var sorter cutSorter
	for r := range v.seqs {
		seq := v.seqs[r]
		if len(dels) > 0 {
			seq = v.drop(seq, r, dels)
		}
		if len(adds) > 0 {
			seq = v.merge(seq, r, sorter.sorted(v, r, adds))
		}
		v.seqs[r] = seq
	}
	for _, s := range dels {
		v.eps[s] = node.Endpoint{}
		v.free = append(v.free, s)
	}
	v.configIsValid = false
}

// drop compacts sequence r over the slots in dels, in place.
func (v *View) drop(seq []int32, r int, dels []int32) []int32 {
	stride := v.k + 1
	start := len(seq)
	for _, s := range dels {
		p := &v.pos[int(s)*stride+r]
		start = min(start, int(*p))
		*p = -1
	}
	w := start
	for _, s := range seq[start:] {
		p := &v.pos[int(s)*stride+r]
		if *p < 0 {
			continue
		}
		seq[w] = s
		*p = int32(w)
		w++
	}
	return seq[:w]
}

// merge inserts adds — already in sequence r's order — into sequence r, in
// place and from the back: the members behind each insertion point move once,
// by the number of joiners that land before them, and the members in front of
// the first insertion point are not touched.
func (v *View) merge(seq []int32, r int, adds []int32) []int32 {
	stride := v.k + 1
	n, c := len(seq), len(adds)
	seq = slices.Grow(seq, c)[:n+c]
	hi := n
	for j := c - 1; j >= 0; j-- {
		s := adds[j]
		idx := v.search(seq[:hi], r, v.hashOf(s, r), v.eps[s].Addr)
		copy(seq[idx+j+1:hi+j+1], seq[idx:hi])
		for x := idx + j + 1; x < hi+j+1; x++ {
			v.pos[int(seq[x])*stride+r] = int32(x)
		}
		seq[idx+j] = s
		v.pos[int(s)*stride+r] = int32(idx + j)
		hi = idx
	}
	return seq
}

// hashOf returns the key hash of slot s in sequence r: its ring hash, or zero
// in the address order, whose key is the address alone.
func (v *View) hashOf(s int32, r int) uint64 {
	if r == v.k {
		return 0
	}
	return v.hashes[int(s)*v.k+r]
}

// before reports whether slot s orders strictly before the key (hash, addr)
// in sequence r. The address is the tie-breaker, so the order is total even
// under hash collisions.
func (v *View) before(s int32, r int, hash uint64, addr node.Addr) bool {
	if h := v.hashOf(s, r); h != hash {
		return h < hash
	}
	return v.eps[s].Addr < addr
}

// search returns the insertion index in seq (a prefix of sequence r) for the
// key (hash, addr): the first index whose slot does not order before it.
func (v *View) search(seq []int32, r int, hash uint64, addr node.Addr) int {
	lo, hi := 0, len(seq)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.before(seq[mid], r, hash, addr) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ringKey is one slot keyed for the radix passes: the upper half of its ring
// hash. Eight bytes, so a pass moves half of what the full hash would.
type ringKey struct {
	top  uint32
	slot int32
}

// cutSorter orders a cut's staged slots for each sequence in turn, reusing
// its buffers across the K+1 sequences of one rewire.
type cutSorter struct {
	out       []int32
	keys, tmp []ringKey
}

// radixMin is the cut size from which ring keys are radix sorted; below it an
// insertion sort wins (a failure or a lone join is a cut of one or two).
const radixMin = 48

// sorted returns adds in the order of sequence r.
func (cs *cutSorter) sorted(v *View, r int, adds []int32) []int32 {
	if len(adds) == 1 {
		return adds
	}
	if cs.out == nil {
		cs.out = make([]int32, len(adds))
	}
	out := cs.out
	copy(out, adds)
	switch {
	case r == v.k:
		// Join responses and consensus proposals arrive sorted by address.
		byAddr := func(a, b int32) int { return strings.Compare(string(v.eps[a].Addr), string(v.eps[b].Addr)) }
		if !slices.IsSortedFunc(out, byAddr) {
			slices.SortFunc(out, byAddr)
		}
	case len(adds) < radixMin:
		v.insertionSort(out, r)
	default:
		if cs.keys == nil {
			cs.keys, cs.tmp = make([]ringKey, len(adds)), make([]ringKey, len(adds))
		}
		for i, s := range adds {
			cs.keys[i] = ringKey{top: uint32(v.hashes[int(s)*v.k+r] >> 32), slot: s}
		}
		keys := radixSort(cs.keys, cs.tmp)
		for i := range keys {
			out[i] = keys[i].slot
		}
		// The tie-break pass: a run of keys the radix passes could not tell
		// apart is ordered by the rest of the hash, then by address.
		for i := 0; i < len(keys); {
			j := i + 1
			for j < len(keys) && keys[j].top == keys[i].top {
				j++
			}
			if j-i > 1 {
				v.insertionSort(out[i:j], r)
			}
			i = j
		}
	}
	return out
}

// insertionSort orders slots by sequence r's key.
func (v *View) insertionSort(slots []int32, r int) {
	for i := 1; i < len(slots); i++ {
		s := slots[i]
		hash, addr := v.hashOf(s, r), v.eps[s].Addr
		j := i
		for ; j > 0 && !v.before(slots[j-1], r, hash, addr); j-- {
			slots[j] = slots[j-1]
		}
		slots[j] = s
	}
}

// radixSort orders keys by top with a stable LSD radix sort, one byte per
// pass, and returns whichever of the two buffers holds the result. The four
// histograms are taken in one read; a byte on which all keys agree is skipped.
func radixSort(keys, tmp []ringKey) []ringKey {
	var hist [4][256]int32
	for i := range keys {
		t := keys[i].top
		hist[0][byte(t)]++
		hist[1][byte(t>>8)]++
		hist[2][byte(t>>16)]++
		hist[3][byte(t>>24)]++
	}
	for d := range hist {
		shift := 8 * d
		count := &hist[d]
		if int(count[byte(keys[0].top>>shift)]) == len(keys) {
			continue
		}
		sum := int32(0)
		for b, n := range count {
			count[b], sum = sum, sum+n
		}
		for i := range keys {
			b := byte(keys[i].top >> shift)
			tmp[count[b]] = keys[i]
			count[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// --- topology queries ------------------------------------------------------------

// ObserversOf returns the K processes that monitor addr: the predecessor of
// addr in each ring. With fewer than two members there are no observers.
func (v *View) ObserversOf(addr node.Addr) ([]node.Addr, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s, ok := v.byAddr[addr]
	if !ok {
		return nil, ErrNodeNotInRing
	}
	return v.neighboursLocked(s, -1), nil
}

// SubjectsOf returns the K processes that addr monitors: the successor of
// addr in each ring.
func (v *View) SubjectsOf(addr node.Addr) ([]node.Addr, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s, ok := v.byAddr[addr]
	if !ok {
		return nil, ErrNodeNotInRing
	}
	return v.neighboursLocked(s, +1), nil
}

// UniqueSubjectsOf returns the distinct subjects of addr, excluding addr
// itself: the set of processes addr must run an edge failure detector
// against. Ring multiplicity is irrelevant to monitoring, so callers that
// start one monitor per subject want this rather than SubjectsOf.
func (v *View) UniqueSubjectsOf(addr node.Addr) ([]node.Addr, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	slot, ok := v.byAddr[addr]
	if !ok {
		return nil, ErrNodeNotInRing
	}
	subs := v.neighboursLocked(slot, +1)
	out := subs[:0]
	for _, s := range subs {
		if s != addr && !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out, nil
}

// predecessor returns the address in front of index idx of ring, wrapping.
func (v *View) predecessor(ring []int32, idx int) node.Addr {
	if idx == 0 {
		idx = len(ring)
	}
	return v.eps[ring[idx-1]].Addr
}

// neighboursLocked returns the ring neighbour of slot s in each ring in ring
// order; direction -1 selects predecessors (observers), +1 successors
// (subjects). Must be called with the lock held.
func (v *View) neighboursLocked(s int32, direction int) []node.Addr {
	out := make([]node.Addr, 0, v.k)
	if len(v.byAddr) <= 1 {
		return out
	}
	pos := v.pos[int(s)*(v.k+1):]
	for r, ring := range v.seqs[:v.k] {
		idx := int(pos[r]) + direction
		if idx < 0 {
			idx = len(ring) - 1
		} else if idx == len(ring) {
			idx = 0
		}
		out = append(out, v.eps[ring[idx]].Addr)
	}
	return out
}

// ExpectedObserversOf returns the processes that would observe addr if it
// were a member: the predecessors of addr's would-be position in each ring.
// A joining process contacts these as its temporary observers (§4.1).
func (v *View) ExpectedObserversOf(addr node.Addr) []node.Addr {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]node.Addr, 0, v.k)
	if len(v.byAddr) == 0 {
		return out
	}
	var buf [16]uint64
	for r, hash := range v.probeHashes(&buf, addr) {
		ring := v.seqs[r]
		out = append(out, v.predecessor(ring, v.search(ring, r, hash, addr)))
	}
	return out
}

// RingNumbers returns the ring indices in which observer immediately precedes
// subject, i.e. the rings on which an alert from observer about subject is
// valid. For a subject not in the view (a joiner) the would-be position is
// used, matching ExpectedObserversOf.
func (v *View) RingNumbers(observer, subject node.Addr) []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var out []int
	if s, ok := v.byAddr[subject]; ok {
		if len(v.byAddr) <= 1 {
			return out
		}
		pos := v.pos[int(s)*(v.k+1):]
		for r, ring := range v.seqs[:v.k] {
			if v.predecessor(ring, int(pos[r])) == observer {
				out = append(out, r)
			}
		}
		return out
	}
	if len(v.byAddr) == 0 {
		return out
	}
	// Joiner case: locate the would-be position by binary search.
	var buf [16]uint64
	for r, hash := range v.probeHashes(&buf, subject) {
		ring := v.seqs[r]
		if v.predecessor(ring, v.search(ring, r, hash, subject)) == observer {
			out = append(out, r)
		}
	}
	return out
}

// ConfigurationID returns a 64-bit identifier of this configuration: a hash
// over the sorted (address, identifier) pairs of the membership set. Two
// processes with identical views compute identical identifiers.
//
// The common case — the cached identifier is valid — takes only the read
// lock, so concurrent readers are not serialized; the write lock is taken
// only to recompute after a membership change (double-checked), and the
// recomputation is one pass over the address order.
func (v *View) ConfigurationID() uint64 {
	v.mu.RLock()
	if v.configIsValid {
		id := v.cachedConfig
		v.mu.RUnlock()
		return id
	}
	v.mu.RUnlock()

	v.mu.Lock()
	defer v.mu.Unlock()
	if v.configIsValid {
		return v.cachedConfig
	}
	h := uint64(fnvOffset)
	for _, s := range v.seqs[v.k] {
		ep := &v.eps[s]
		for i := 0; i < len(ep.Addr); i++ {
			h = (h ^ uint64(ep.Addr[i])) * fnvPrime
		}
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(ep.ID.High>>(8*i)))) * fnvPrime
		}
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(ep.ID.Low>>(8*i)))) * fnvPrime
		}
	}
	v.cachedConfig = h
	v.configIsValid = true
	return v.cachedConfig
}

// IsSafeToJoin classifies a join attempt against the current view.
func (v *View) IsSafeToJoin(addr node.Addr, id node.ID) remoting.JoinStatus {
	v.mu.RLock()
	defer v.mu.RUnlock()
	switch v.admissible(node.Endpoint{Addr: addr, ID: id}) {
	case ErrNodeAlreadyInRing:
		return remoting.JoinHostAlreadyInRing
	case ErrUUIDAlreadyInRing:
		return remoting.JoinUUIDAlreadyInRing
	}
	return remoting.JoinSafeToJoin
}

// Ring returns a copy of ring r, primarily for the expander analysis in
// package graph and for tests.
func (v *View) Ring(r int) ([]node.Endpoint, error) {
	if r < 0 || r >= v.k {
		return nil, fmt.Errorf("view: ring %d out of range [0,%d)", r, v.k)
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]node.Endpoint, len(v.seqs[r]))
	for i, s := range v.seqs[r] {
		out[i] = v.eps[s]
	}
	return out, nil
}
