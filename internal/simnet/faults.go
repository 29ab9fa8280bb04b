// Composable fault kinds beyond loss/blackhole/crash: slow-but-alive nodes
// (per-node delay injection), WAN-style per-link latency classes, flapping
// rules that toggle on a simclock schedule, asymmetric partitions, and
// best-effort delivery chaos (duplication and reordering). Every kind is
// installable and removable at runtime, sharded like the loss rules, and
// seed-deterministic: probabilistic decisions draw from the per-shard RNGs in
// send order, and time-driven kinds (flap schedules, delays) read only the
// network's simclock, so a manual clock replays them exactly.
//
// Delayed delivery rides a per-shard min-heap drained by a dedicated pump
// goroutine: events due in the future wait in the heap ordered by
// (due, sequence) and are handed to the shard's ordinary delivery queue once
// the clock passes their deadline. This is also what makes Options.Latency
// apply to best-effort traffic, not just synchronous request/response.
package simnet

import (
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/simclock"
)

// LatencyModel assigns a one-way propagation delay to a (src, dst) link.
// Models must be pure functions of the addresses so that runs stay
// reproducible; see ZoneLatency for the WAN-class implementation.
type LatencyModel func(src, dst node.Addr) time.Duration

// latencyModelBox wraps a LatencyModel for atomic storage (atomic.Pointer
// needs a concrete type, and func types cannot be pointed at directly).
type latencyModelBox struct{ model LatencyModel }

// addrHash is the FNV-1a hash simnet uses everywhere address-keyed
// partitioning is needed (delivery shards, latency zones).
func addrHash(addr node.Addr) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(addr); i++ {
		h ^= uint32(addr[i])
		h *= prime32
	}
	return h
}

// ZoneLatency models a WAN deployment: every address hashes into one of
// `zones` zones; links inside a zone cost `intra` one-way, links across zones
// cost `inter`. Deterministic in the addresses, so identically seeded runs
// see identical link delays.
func ZoneLatency(zones int, intra, inter time.Duration) LatencyModel {
	if zones < 1 {
		zones = 1
	}
	return func(src, dst node.Addr) time.Duration {
		if addrHash(src)%uint32(zones) == addrHash(dst)%uint32(zones) {
			return intra
		}
		return inter
	}
}

// SetLatencyModel installs (or, with nil, removes) a per-link latency model.
// The model applies on top of Options.Latency and any per-node delays, to
// synchronous and best-effort traffic alike.
func (n *Network) SetLatencyModel(m LatencyModel) {
	if m == nil {
		if n.latencyModel.Swap(nil) != nil {
			n.delayRules.Add(-1)
		}
		return
	}
	if n.latencyModel.Swap(&latencyModelBox{model: m}) == nil {
		n.delayRules.Add(1)
	}
}

// SetNodeDelay makes a node slow-but-alive: every message it sends or
// receives (requests, responses, and best-effort alike) takes an extra d
// one-way. Unlike loss rules the node stays perfectly reachable — the gray
// failure the paper's multi-process cut detection is argued to tolerate.
// A non-positive d removes the rule.
func (n *Network) SetNodeDelay(addr node.Addr, d time.Duration) {
	s := n.shardFor(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, had := s.delays[addr]
	if d <= 0 {
		if had {
			delete(s.delays, addr)
			n.delayRules.Add(-1)
		}
		return
	}
	s.delays[addr] = d
	if !had {
		n.delayRules.Add(1)
	}
}

// extraDelay sums the installed delay rules for one direction of a link:
// per-node delays of both ends plus the latency model's link cost. With no
// rules installed it is a single atomic load.
func (n *Network) extraDelay(src, dst node.Addr) time.Duration {
	if n.delayRules.Load() == 0 {
		return 0
	}
	var d time.Duration
	ss := n.shardFor(src)
	ss.mu.RLock()
	d += ss.delays[src]
	ss.mu.RUnlock()
	ds := n.shardFor(dst)
	ds.mu.RLock()
	d += ds.delays[dst]
	ds.mu.RUnlock()
	if box := n.latencyModel.Load(); box != nil {
		d += box.model(src, dst)
	}
	return d
}

// --- flapping faults ---------------------------------------------------------

// FlapSpec describes a loss rule that toggles on a fixed simclock schedule:
// starting from installation the rule is active for On, inactive for Off,
// and repeats. Loss is the drop probability while active (1.0 = total
// partition, the Figure 9 flip-flop); Ingress selects which side of the
// node's traffic it applies to.
type FlapSpec struct {
	Loss    float64
	Ingress bool
	On      time.Duration
	Off     time.Duration
}

// flapRule is an installed FlapSpec plus its schedule origin.
type flapRule struct {
	FlapSpec
	start time.Time
}

// active evaluates the schedule at the given instant. The rule is evaluated
// lazily at message time — no goroutine toggles state — so the on/off
// boundary is exact in simulated time and replays deterministically under a
// manual clock.
func (r flapRule) active(now time.Time) bool {
	cycle := r.On + r.Off
	if cycle <= 0 {
		return true
	}
	phase := now.Sub(r.start) % cycle
	return phase < r.On
}

// SetFlap installs a flapping loss rule for addr, replacing any previous
// flap on that address. The schedule starts at the network clock's current
// time. A non-positive Loss removes the rule (as does ClearFlap).
func (n *Network) SetFlap(addr node.Addr, spec FlapSpec) {
	if spec.Loss <= 0 {
		n.ClearFlap(addr)
		return
	}
	rule := flapRule{FlapSpec: spec, start: n.clock.Now()}
	s := n.shardFor(addr)
	s.mu.Lock()
	_, had := s.flaps[addr]
	s.flaps[addr] = rule
	s.mu.Unlock()
	if !had {
		n.flapCount.Add(1)
		n.faultRules.Add(1)
	}
}

// ClearFlap removes addr's flapping rule.
func (n *Network) ClearFlap(addr node.Addr) {
	s := n.shardFor(addr)
	s.mu.Lock()
	_, had := s.flaps[addr]
	if had {
		delete(s.flaps, addr)
	}
	s.mu.Unlock()
	if had {
		n.flapCount.Add(-1)
		n.faultRules.Add(-1)
	}
}

// --- asymmetric partitions ---------------------------------------------------

// asymPartition is an installed asymmetric partition: the deaf set hears
// only itself while its own traffic still reaches everyone.
type asymPartition struct {
	deaf map[node.Addr]bool
}

// blocked reports whether the partition drops a src->dst packet.
func (p *asymPartition) blocked(src, dst node.Addr) bool {
	return p.deaf[dst] && !p.deaf[src]
}

// SetAsymmetricPartition makes the given members deaf: packets from outside
// the set to a member are dropped, while members keep sending (and keep
// hearing each other). This is the group generalization of a one-way link
// failure — to the rest of the cluster the deaf members look alive (their
// alerts, probes and gossip still arrive) while they themselves stop
// observing anyone. Installing a new partition replaces the previous one;
// an empty set clears it.
func (n *Network) SetAsymmetricPartition(deaf ...node.Addr) {
	if len(deaf) == 0 {
		n.ClearAsymmetricPartition()
		return
	}
	set := make(map[node.Addr]bool, len(deaf))
	for _, a := range deaf {
		set[a] = true
	}
	if n.partition.Swap(&asymPartition{deaf: set}) == nil {
		n.faultRules.Add(1)
	}
}

// ClearAsymmetricPartition removes the installed asymmetric partition.
func (n *Network) ClearAsymmetricPartition() {
	if n.partition.Swap(nil) != nil {
		n.faultRules.Add(-1)
	}
}

// --- best-effort chaos: duplication and reordering ---------------------------

// ChaosSpec configures best-effort delivery chaos. Each message is
// independently duplicated with probability Duplicate and delayed by a
// uniform random jitter in (0, MaxJitter] with probability Reorder;
// duplicates draw their own jitter. Jittered messages overtake each other in
// the per-shard delay heap, which is what produces reordering. Synchronous
// request/response traffic is unaffected — RPCs do not duplicate.
type ChaosSpec struct {
	Duplicate float64
	Reorder   float64
	MaxJitter time.Duration
}

// SetChaos installs best-effort chaos, replacing any previous spec. A spec
// with neither probability positive clears it.
func (n *Network) SetChaos(spec ChaosSpec) {
	if spec.Duplicate <= 0 && spec.Reorder <= 0 {
		n.ClearChaos()
		return
	}
	n.chaos.Store(&spec)
}

// ClearChaos removes the chaos spec.
func (n *Network) ClearChaos() {
	n.chaos.Store(nil)
}

// Duplicates returns how many best-effort messages the chaos layer has
// duplicated so far.
func (n *Network) Duplicates() int64 {
	return n.dups.Load()
}

// randJitter draws a uniform duration in (0, max] from the shard RNG (in
// send order, like the drop decisions, so traces stay seed-reproducible).
func (s *shard) randJitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return time.Duration(s.rng.Int63n(int64(max))) + 1
}

// --- delayed delivery --------------------------------------------------------

// delayedItem is one best-effort message waiting in a shard's delay heap.
type delayedItem struct {
	ev  deliveryEvent
	due time.Time
	seq uint64
}

// delayQueue is a min-heap of delayed deliveries ordered by (due, seq): seq
// is assigned under the lock in push order, so messages with equal deadlines
// keep their send order and the drain order is fully determined by the
// deadlines — the reproducibility contract of the delay-based fault kinds.
type delayQueue struct {
	mu     sync.Mutex
	items  []delayedItem
	notify chan struct{}
	closed bool
	seq    uint64
}

func (q *delayQueue) init() { q.notify = make(chan struct{}, 1) }

// less orders the heap by deadline, then arrival.
func (q *delayQueue) less(i, j int) bool {
	if !q.items[i].due.Equal(q.items[j].due) {
		return q.items[i].due.Before(q.items[j].due)
	}
	return q.items[i].seq < q.items[j].seq
}

// push schedules ev for delivery at due. It reports false when the queue is
// already closed, in which case the caller still owns the event.
func (q *delayQueue) push(ev deliveryEvent, due time.Time) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.seq++
	q.items = append(q.items, delayedItem{ev: ev, due: due, seq: q.seq})
	// Sift up.
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
	return true
}

// popLocked removes the heap head. Callers hold q.mu.
func (q *delayQueue) popLocked() delayedItem {
	head := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = delayedItem{}
	q.items = q.items[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.items) && q.less(l, smallest) {
			smallest = l
		}
		if r < len(q.items) && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return head
}

// close marks the queue closed, releases everything still waiting, and wakes
// the pump so it can exit.
func (q *delayQueue) close() {
	q.mu.Lock()
	q.closed = true
	items := q.items
	q.items = nil
	q.mu.Unlock()
	for _, it := range items {
		releaseEvent(it.ev)
	}
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// delayPump drains one shard's delay heap: ready events move to the shard's
// ordinary delivery queue (preserving heap order), future events are waited
// out on the network clock, and a notify wake re-evaluates the head whenever
// a new (possibly earlier) event arrives. The wait is one re-armable timer per
// pump, stopped and drained before every re-arm and before the pump idles, so
// a burst of pushes leaves one armed deadline, not one per wake. Once the
// timer is armed the clock is read again: a manual clock advanced past the
// head's deadline between the first read and the arming has set the timer a
// full wait beyond the advanced time, and without the second look nothing
// would wake the pump for the head.
func (n *Network) delayPump(s *shard) {
	defer n.workers.Done()
	q := &s.delayed
	var wake simclock.Timer
	// disarm stops the timer and drops a firing already delivered, which the
	// Timer contract requires before Reset (pre-Go 1.23 timer channels).
	disarm := func() {
		if wake == nil {
			return
		}
		wake.Stop()
		select {
		case <-wake.C():
		default:
		}
	}
	defer disarm()
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return
		}
		if len(q.items) == 0 {
			q.mu.Unlock()
			disarm()
			<-q.notify
			continue
		}
		now := n.clock.Now()
		if head := q.items[0]; !head.due.After(now) {
			q.popLocked()
			q.mu.Unlock()
			s.queue.push(head.ev)
			continue
		}
		due := q.items[0].due
		q.mu.Unlock()
		if wake == nil {
			wake = n.clock.Timer(due.Sub(now))
		} else {
			disarm()
			wake.Reset(due.Sub(now))
		}
		if !due.After(n.clock.Now()) {
			continue
		}
		select {
		case <-q.notify:
		case <-wake.C():
		}
	}
}
