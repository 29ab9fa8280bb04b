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
//     are an O(N) copy, a ConfigurationID miss is one pass over it with no
//     sort and no allocation, and a member is found by binary search of it —
//     the tables hold no map.
//   - There is one mutation path, rewire, and it applies a whole cut at once:
//     the cut's ring keys are sorted and merged into each sequence in a single
//     in-place pass — O(K·(N + c log c)) for a cut of c — instead of c
//     shifted insertions. AddMember and RemoveMember are one-element cuts, and
//     NewWithMembers is the same path from the empty view.
//   - Large cuts order their ring keys with an LSD radix sort on the upper
//     half of the 64-bit ring hash, not a comparison sort; a tie-break pass
//     orders what the radix passes left equal by the full (hash, address) key,
//     so the order is total and identical on every process.
//
// Sharing. The tables are a pure function of the member list, so a
// configuration is a process-wide value: views that NewShared returns for one
// list alias one frozen build, and ApplyCut moves such a view to the build of
// the cut, made once per process by the first view to apply it — an
// in-process fleet does not sort the same N members into the same K rings N
// times, at formation or at any view change after it. What a cut admits is
// still judged against each view's own identifier history, so a view whose
// history differs lands on a build of its own. Only AddMember and
// RemoveMember copy a shared build (own) and rewire the copy in place.
// NewWithMembers always builds privately, and a private view's cuts rewire
// its own tables.
package view

import (
	"errors"
	"fmt"
	"maps"
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

// tables are the part of a view that is a pure function of its member list,
// and so the part that views of one list share in a process (see NewShared).
type tables struct {
	// The slot table. A member keeps its slot for as long as it stays; free
	// lists the vacated ones. hashes holds K ring hashes per slot, pos K+1
	// sequence indexes per slot.
	eps    []node.Endpoint
	hashes []uint64
	pos    []int32
	free   []int32
	// seqs[r] for r < K is ring r: the slots ordered by (ring hash, address).
	// seqs[K] is the membership in address order, kept the way a ring is: a
	// ring whose key is the address alone. A member is found by searching it.
	seqs [][]int32
}

// View is a configuration: a membership set arranged into K rings. All methods
// are safe for concurrent use.
type View struct {
	k int
	// hashMask is ANDed onto every ring hash. It is all ones outside the
	// package's tests, which narrow it to force equal ring hashes.
	hashMask uint64

	mu sync.RWMutex
	// t is what every query reads: &private, or — while base is set — the
	// tables of a frozen build, which other views alias and nobody writes.
	t       *tables
	private tables
	base    *frozen
	// Identifiers only accumulate (§3: a process rejoins under a new one), so
	// the set is layered, not copied: baseIDs is the frozen build's and
	// read-only like its tables, seenIDs what this view staged itself.
	baseIDs map[node.ID]struct{}
	seenIDs map[node.ID]struct{}

	cachedConfig  uint64
	configIsValid bool
}

// New creates an empty view with k rings. k must be at least 1; the paper
// uses K=10.
func New(k int) *View { return newSized(k, 0, ^uint64(0)) }

// newSized creates an empty view with room for n members.
//
// owned-tables: the tables are being made.
func newSized(k, n int, hashMask uint64) *View {
	if k < 1 {
		panic("view: k must be >= 1")
	}
	v := &View{k: k, hashMask: hashMask, seenIDs: make(map[node.ID]struct{}, n)}
	v.t = &v.private
	v.private = tables{
		eps:    make([]node.Endpoint, 0, n),
		hashes: make([]uint64, 0, n*k),
		pos:    make([]int32, 0, n*(k+1)),
		seqs:   make([][]int32, k+1),
	}
	block := make([]int32, (k+1)*n)
	for r := range v.private.seqs {
		v.private.seqs[r] = block[r*n : r*n : (r+1)*n]
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
	c := v.stage(members, nil, false)
	v.place(nil, c.adds, nil)
	return v
}

// builds holds the last maxBuilds frozen builds of this process, oldest first:
// the ones made from a list and the ones made by a cut. A fleet forms in a
// wave or two and then moves from configuration to configuration together, so
// the builds wanted at any one time are few; one that fell out is built again.
// The table is the only link between builds: none holds a pointer to another,
// so nothing keeps a chain of past configurations alive.
var builds struct {
	sync.Mutex
	recent []*frozen
	made   int
}

// frozen is a view that is never handed out or mutated, with what every view
// that aliases it reads instead of deriving: its members and their addresses
// in address order (slot order is not address order once a cut has freed
// slots), its configuration identifier, and its members' identifiers, the
// history a NewShared view starts from. serial numbers the builds of the
// process; a build made by a cut records what it was made of — its parent's
// serial, the joiners it admitted in address order and the addresses it
// removed, sorted — and one made from a list has parent 0.
type frozen struct {
	*View
	members []node.Endpoint
	addrs   []node.Addr
	config  uint64
	ids     map[node.ID]struct{}

	serial  int
	parent  int
	joined  []node.Endpoint
	removed []node.Addr
}

const maxBuilds = 8

// SharedBuilds returns how many builds this process has made — one per
// distinct list NewShared was asked for and one per distinct cut ApplyCut
// applied to a shared view, however many views asked.
func SharedBuilds() int {
	builds.Lock()
	defer builds.Unlock()
	return builds.made
}

// file freezes b's view into a build of the process, numbers it and files it,
// evicting the oldest build when the table is full. Called with builds locked.
func file(b *frozen) *frozen {
	b.members = b.Members()
	b.addrs = node.EndpointAddrs(b.members)
	b.config = b.ConfigurationID()
	builds.made++
	b.serial = builds.made
	if len(builds.recent) == maxBuilds {
		builds.recent = slices.Delete(builds.recent, 0, 1)
	}
	builds.recent = append(builds.recent, b)
	return b
}

// view returns a new view that aliases b and whose history is b's members.
func (b *frozen) view() *View {
	return &View{k: b.k, hashMask: b.hashMask, t: b.t, base: b, baseIDs: b.ids, cachedConfig: b.config, configIsValid: true}
}

// holds reports whether members is b's member list: the very slice b hands
// out — what every joiner of a wave, and every member that learns b from an
// ensemble, is given in this process — or, for a list that crossed a
// network, an equal one endpoint by endpoint.
func (b *frozen) holds(members []node.Endpoint) bool {
	if len(members) != len(b.members) {
		return false
	}
	if len(members) == 0 || &members[0] == &b.members[0] {
		return true
	}
	return slices.EqualFunc(b.members, members, sameEndpoint)
}

// sameEndpoint reports whether x and y are equal down to their metadata.
func sameEndpoint(x, y node.Endpoint) bool { return x.Equal(y) && maps.Equal(x.Metadata, y.Metadata) }

// NewShared returns a view of the given members whose tables are built once
// per process, however many views of that list are asked for: every joiner of
// a wave in an in-process fleet is handed the same list, and a lone process
// pays one list comparison. The list must be strictly sorted by address and
// repeat no identifier; any other list gets NewWithMembers' private build.
//
// A build is found by the list itself, never by the configuration identifier
// alone — the list may have crossed a network — and callers that arrive
// together wait for one build instead of racing. The builds ApplyCut makes are
// found too. The view is as mutable as any: its ApplyCut moves it to the
// build of the cut, and AddMember and RemoveMember copy the tables (see own)
// and rewire the copy in place.
func NewShared(k int, members []node.Endpoint) *View {
	return shared(k, members, ^uint64(0))
}

// shared is NewShared with the ring hash masked (see View.hashMask).
func shared(k int, members []node.Endpoint, hashMask uint64) *View {
	for i := 1; i < len(members); i++ {
		if members[i-1].Addr >= members[i].Addr {
			return build(k, members, hashMask)
		}
	}
	builds.Lock()
	defer builds.Unlock()
	i := slices.IndexFunc(builds.recent, func(b *frozen) bool {
		return b.k == k && b.hashMask == hashMask && b.holds(members)
	})
	if i >= 0 {
		return builds.recent[i].view()
	}
	v := build(k, members, hashMask)
	if len(v.seenIDs) != len(members) {
		return v // a repeated identifier: the list does not build to itself
	}
	return file(&frozen{View: v, ids: v.seenIDs}).view()
}

// cutBuild returns the build that the cut c, staged against a view of build
// b, leads to: the one the process already has, or one it makes now, once,
// by applying c to a copy of b's tables.
func cutBuild(b *frozen, c *cut) *frozen {
	removed := node.SortAddrs(node.EndpointAddrs(c.left))
	builds.Lock()
	defer builds.Unlock()
	for _, x := range builds.recent {
		if x.parent == b.serial && slices.EqualFunc(x.joined, c.adds, sameEndpoint) && slices.Equal(x.removed, removed) {
			return x
		}
	}
	w := &View{k: b.k, hashMask: b.hashMask, t: b.t, base: b}
	w.place(nil, c.adds, c.dels)
	ids := make(map[node.ID]struct{}, w.Size())
	for _, s := range w.t.seqs[w.k] {
		ids[w.t.eps[s].ID] = struct{}{}
	}
	return file(&frozen{View: w, ids: ids, parent: b.serial, joined: c.adds, removed: removed})
}

// K returns the number of rings (observers per subject).
func (v *View) K() int { return v.k }

// Size returns the number of members in the view.
func (v *View) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.t.seqs[v.k])
}

// slot finds a member in the address order. Called with the lock held.
func (v *View) slot(addr node.Addr) (int32, bool) {
	order := v.t.seqs[v.k]
	i := v.search(order, v.k, 0, addr)
	if i == len(order) || v.t.eps[order[i]].Addr != addr {
		return 0, false
	}
	return order[i], true
}

// Contains reports whether addr is a member of the view.
func (v *View) Contains(addr node.Addr) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.slot(addr)
	return ok
}

// Member returns the endpoint registered for addr.
func (v *View) Member(addr node.Addr) (node.Endpoint, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s, ok := v.slot(addr)
	if !ok {
		return node.Endpoint{}, false
	}
	return v.t.eps[s], true
}

// Members returns all member endpoints sorted by address, in a slice the
// caller owns.
func (v *View) Members() []node.Endpoint {
	v.mu.RLock()
	defer v.mu.RUnlock()
	order := v.t.seqs[v.k]
	out := make([]node.Endpoint, len(order))
	for i, s := range order {
		out[i] = v.t.eps[s]
	}
	return out
}

// MemberAddrs returns all member addresses sorted lexicographically, in a
// slice the caller owns.
func (v *View) MemberAddrs() []node.Addr {
	v.mu.RLock()
	defer v.mu.RUnlock()
	order := v.t.seqs[v.k]
	out := make([]node.Addr, len(order))
	for i, s := range order {
		out[i] = v.t.eps[s].Addr
	}
	return out
}

// Membership returns the members and their addresses in address order, in
// slices nobody may write: the frozen build's own — the same two for every
// view of the build — while the view aliases one, fresh copies otherwise.
func (v *View) Membership() ([]node.Endpoint, []node.Addr) {
	v.mu.RLock()
	b := v.base
	v.mu.RUnlock()
	if b != nil {
		return b.members, b.addrs
	}
	members := v.Members()
	return members, node.EndpointAddrs(members)
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

// own makes the tables this view's to write: a view that aliases a frozen
// build copies it — the slot table, the free list and two pointer-free blocks
// — before its first private mutation. rapid-vet's snapshot check allows
// writes to the tables only in functions marked as this one is.
//
// owned-tables: this is where they become owned.
func (v *View) own() {
	if v.base == nil {
		return
	}
	src, n, stride := v.t, len(v.t.eps), v.k+1
	block := make([]int32, 2*stride*n) // the position index, then the sequences
	v.private = tables{eps: slices.Clone(src.eps), hashes: slices.Clone(src.hashes), free: slices.Clone(src.free), pos: block[: stride*n : stride*n], seqs: make([][]int32, stride)}
	copy(v.private.pos, src.pos)
	for r, seq := range src.seqs {
		// A build with free slots has fewer members than slots: each sequence
		// keeps its own length, with room for the slots to fill up again.
		v.private.seqs[r] = block[(stride+r)*n:][:len(seq):n]
		copy(v.private.seqs[r], seq)
	}
	v.t, v.base = &v.private, nil
}

// cut is a multi-process cut staged against a view: what applying it does.
type cut struct {
	dels   []int32         // the slots of the leavers that are members
	left   []node.Endpoint // those members, in the order the leavers were named
	joined []node.Endpoint // the admitted joiners, in the order they were named
	adds   []node.Endpoint // the same joiners, in address order
}

// stage works out what a cut does to this view without touching its tables:
// which leavers are members, and which joiners are admissible, each judged
// after the ones named before it; named says whether c.joined is wanted. The
// admitted identifiers join the view's history here. Must be called with the
// lock held.
func (v *View) stage(joiners []node.Endpoint, leavers []node.Addr, named bool) (c cut) {
	for _, a := range leavers {
		if s, ok := v.slot(a); ok && !slices.Contains(c.dels, s) {
			c.dels = append(c.dels, s)
			c.left = append(c.left, v.t.eps[s])
		}
	}
	if len(joiners) > 0 {
		c.adds = make([]node.Endpoint, 0, len(joiners))
		if named {
			c.joined = make([]node.Endpoint, 0, len(joiners))
		}
	}
	for _, ep := range joiners {
		if at, err := v.admissible(ep, c.adds, c.dels); err == nil {
			c.adds = slices.Insert(c.adds, at, ep)
			if named {
				c.joined = append(c.joined, ep)
			}
			v.see(ep.ID)
		}
	}
	return c
}

// admissible reports why ep may not join, if it may not, and otherwise where
// it belongs in adds. adds and dels are the cut being staged: the joiners
// admitted so far, in address order, and the slots of the leavers, whose
// addresses are free again. Must be called with the lock held.
func (v *View) admissible(ep node.Endpoint, adds []node.Endpoint, dels []int32) (at int, err error) {
	if s, ok := v.slot(ep.Addr); ok && !slices.Contains(dels, s) {
		return 0, ErrNodeAlreadyInRing
	}
	// Join responses and consensus proposals arrive sorted by address, so the
	// last joiner staged usually settles where this one goes.
	if at = len(adds); at > 0 && adds[at-1].Addr >= ep.Addr {
		var taken bool
		if at, taken = slices.BinarySearchFunc(adds, ep.Addr, func(x node.Endpoint, a node.Addr) int {
			return strings.Compare(string(x.Addr), string(a))
		}); taken {
			return 0, ErrNodeAlreadyInRing
		}
	}
	_, seen := v.seenIDs[ep.ID]
	if !seen {
		_, seen = v.baseIDs[ep.ID]
	}
	if seen {
		return 0, ErrUUIDAlreadyInRing
	}
	return at, nil
}

// see records id in the view's history. Must be called with the lock held.
func (v *View) see(id node.ID) {
	if v.seenIDs == nil {
		v.seenIDs = make(map[node.ID]struct{})
	}
	v.seenIDs[id] = struct{}{}
}

// place applies a staged cut to the view's own tables: each joiner of adds,
// in address order, gets a slot — appended to slots, which a caller may
// provide — and its ring hashes, and rewire places them in the rings and
// takes the slots in dels out.
//
// owned-tables: own comes first.
func (v *View) place(slots []int32, adds []node.Endpoint, dels []int32) {
	v.own()
	t := v.t
	slots = slices.Grow(slots, len(adds))
	for _, ep := range adds {
		var s int32
		if n := len(t.free); n > 0 {
			s, t.free = t.free[n-1], t.free[:n-1]
			t.eps[s] = ep
		} else {
			// The new rows are written before they are read: the hashes just
			// below, the positions when rewire places the slot.
			s = int32(len(t.eps))
			t.eps = append(t.eps, ep)
			t.hashes = slices.Grow(t.hashes, v.k)[:len(t.hashes)+v.k]
			t.pos = slices.Grow(t.pos, v.k+1)[:len(t.pos)+v.k+1]
		}
		fillRingHashes(t.hashes[int(s)*v.k:(int(s)+1)*v.k], ep.Addr, v.hashMask)
		slots = append(slots, s)
	}
	v.rewire(slots, dels)
}

// AddMember inserts an endpoint into every ring. It fails if the address or
// the logical identifier is already present.
func (v *View) AddMember(ep node.Endpoint) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, err := v.admissible(ep, nil, nil); err != nil {
		return err
	}
	v.see(ep.ID)
	var one [1]int32
	v.place(one[:0], []node.Endpoint{ep}, nil)
	return nil
}

// RemoveMember removes the endpoint with the given address from every ring.
// Its logical identifier stays seen: a process that rejoins must use a new one
// (§3).
func (v *View) RemoveMember(addr node.Addr) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.slot(addr)
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
//
// A view that aliases a frozen build moves to the build of the cut: what the
// cut admits and removes is judged against this view's own history, and the
// process applies each distinct cut of a build once (see cutBuild), however
// many views apply it. A private view rewires its own tables.
func (v *View) ApplyCut(joiners []node.Endpoint, leavers []node.Addr) (joined, left []node.Endpoint) {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.stage(joiners, leavers, true)
	switch {
	case len(c.adds)+len(c.dels) == 0:
	case v.base != nil:
		b := cutBuild(v.base, &c)
		v.t, v.base = b.t, b
		v.cachedConfig, v.configIsValid = b.config, true
	default:
		v.place(nil, c.adds, c.dels)
	}
	return c.joined, c.left
}

// rewire is the view's one mutation path: it takes the slots in dels out of
// every sequence and merges the staged slots in adds — in address order, as
// admit keeps them — into every sequence, touching only the part of a
// sequence behind the first slot that moves.
//
// owned-tables: own comes first.
func (v *View) rewire(adds, dels []int32) {
	if len(adds)+len(dels) == 0 {
		return
	}
	v.own()
	t := v.t
	var sorter cutSorter
	for r := range t.seqs {
		seq := t.seqs[r]
		if len(dels) > 0 {
			seq = v.drop(seq, r, dels)
		}
		if len(adds) > 0 {
			seq = v.merge(seq, r, sorter.sorted(v, r, adds))
		}
		t.seqs[r] = seq
	}
	for _, s := range dels {
		t.eps[s] = node.Endpoint{}
		t.free = append(t.free, s)
	}
	v.configIsValid = false
}

// drop compacts sequence r over the slots in dels, in place.
//
// owned-tables: rewire calls it after own.
func (v *View) drop(seq []int32, r int, dels []int32) []int32 {
	stride, pos := v.k+1, v.t.pos
	start := len(seq)
	for _, s := range dels {
		p := &pos[int(s)*stride+r]
		start = min(start, int(*p))
		*p = -1
	}
	w := start
	for _, s := range seq[start:] {
		p := &pos[int(s)*stride+r]
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
//
// owned-tables: rewire calls it after own.
func (v *View) merge(seq []int32, r int, adds []int32) []int32 {
	stride, pos := v.k+1, v.t.pos
	n, c := len(seq), len(adds)
	seq = slices.Grow(seq, c)[:n+c]
	hi := n
	for j := c - 1; j >= 0; j-- {
		s := adds[j]
		idx := v.search(seq[:hi], r, v.hashOf(s, r), v.t.eps[s].Addr)
		copy(seq[idx+j+1:hi+j+1], seq[idx:hi])
		for x := idx + j + 1; x < hi+j+1; x++ {
			pos[int(seq[x])*stride+r] = int32(x)
		}
		seq[idx+j] = s
		pos[int(s)*stride+r] = int32(idx + j)
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
	return v.t.hashes[int(s)*v.k+r]
}

// before reports whether slot s orders strictly before the key (hash, addr)
// in sequence r. The address is the tie-breaker, so the order is total even
// under hash collisions.
func (v *View) before(s int32, r int, hash uint64, addr node.Addr) bool {
	if h := v.hashOf(s, r); h != hash {
		return h < hash
	}
	return v.t.eps[s].Addr < addr
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
	if len(adds) == 1 || r == v.k {
		return adds // admit keeps a cut's joiners in address order
	}
	if cs.out == nil {
		cs.out = make([]int32, len(adds))
	}
	out := cs.out
	copy(out, adds)
	if len(adds) < radixMin {
		v.insertionSort(out, r)
	} else {
		if cs.keys == nil {
			cs.keys, cs.tmp = make([]ringKey, len(adds)), make([]ringKey, len(adds))
		}
		for i, s := range adds {
			cs.keys[i] = ringKey{top: uint32(v.t.hashes[int(s)*v.k+r] >> 32), slot: s}
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
		hash, addr := v.hashOf(s, r), v.t.eps[s].Addr
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
func (v *View) ObserversOf(addr node.Addr) ([]node.Addr, error) { return v.neighbours(addr, -1) }

// SubjectsOf returns the K processes that addr monitors: the successor of
// addr in each ring.
func (v *View) SubjectsOf(addr node.Addr) ([]node.Addr, error) { return v.neighbours(addr, +1) }

// neighbours returns the ring neighbour of addr in each ring, in ring order;
// direction -1 selects predecessors (observers), +1 successors (subjects).
func (v *View) neighbours(addr node.Addr, direction int) ([]node.Addr, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s, ok := v.slot(addr)
	if !ok {
		return nil, ErrNodeNotInRing
	}
	t := v.t
	out := make([]node.Addr, 0, v.k)
	if len(t.seqs[v.k]) <= 1 {
		return out, nil
	}
	pos := t.pos[int(s)*(v.k+1):]
	for r, ring := range t.seqs[:v.k] {
		idx := int(pos[r]) + direction
		if idx < 0 {
			idx = len(ring) - 1
		} else if idx == len(ring) {
			idx = 0
		}
		out = append(out, t.eps[ring[idx]].Addr)
	}
	return out, nil
}

// UniqueSubjectsOf returns the distinct subjects of addr, excluding addr
// itself: the set of processes addr must run an edge failure detector
// against. Ring multiplicity is irrelevant to monitoring, so callers that
// start one monitor per subject want this rather than SubjectsOf.
func (v *View) UniqueSubjectsOf(addr node.Addr) ([]node.Addr, error) {
	subs, err := v.SubjectsOf(addr)
	out := subs[:0]
	for _, s := range subs {
		if s != addr && !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out, err
}

// predecessor returns the address in front of index idx of ring, wrapping.
func (v *View) predecessor(ring []int32, idx int) node.Addr {
	if idx == 0 {
		idx = len(ring)
	}
	return v.t.eps[ring[idx-1]].Addr
}

// ExpectedObserversOf returns the processes that would observe addr if it
// were a member: the predecessors of addr's would-be position in each ring.
// A joining process contacts these as its temporary observers (§4.1).
func (v *View) ExpectedObserversOf(addr node.Addr) []node.Addr {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]node.Addr, 0, v.k)
	if len(v.t.seqs[v.k]) == 0 {
		return out
	}
	var buf [16]uint64
	for r, hash := range v.probeHashes(&buf, addr) {
		ring := v.t.seqs[r]
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
	if s, ok := v.slot(subject); ok {
		if len(v.t.seqs[v.k]) <= 1 {
			return out
		}
		pos := v.t.pos[int(s)*(v.k+1):]
		for r, ring := range v.t.seqs[:v.k] {
			if v.predecessor(ring, int(pos[r])) == observer {
				out = append(out, r)
			}
		}
		return out
	}
	if len(v.t.seqs[v.k]) == 0 {
		return out
	}
	// Joiner case: locate the would-be position by binary search.
	var buf [16]uint64
	for r, hash := range v.probeHashes(&buf, subject) {
		ring := v.t.seqs[r]
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
	for _, s := range v.t.seqs[v.k] {
		addr, id := v.t.eps[s].Addr, v.t.eps[s].ID
		for i := 0; i < len(addr); i++ {
			h = (h ^ uint64(addr[i])) * fnvPrime
		}
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(id.High>>(8*i)))) * fnvPrime
		}
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(id.Low>>(8*i)))) * fnvPrime
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
	switch _, err := v.admissible(node.Endpoint{Addr: addr, ID: id}, nil, nil); err {
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
	out := make([]node.Endpoint, len(v.t.seqs[r]))
	for i, s := range v.t.seqs[r] {
		out[i] = v.t.eps[s]
	}
	return out, nil
}
