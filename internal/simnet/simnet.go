// Package simnet is an in-process network used to run whole clusters inside a
// single test or benchmark. It implements the transport interfaces and adds
// the fault-injection facilities needed to reproduce the paper's failure
// scenarios: probabilistic packet loss on a node's ingress or egress path
// (the iptables INPUT/OUTPUT rules of §7), directional blackholes between
// node pairs, crashes, and optional per-message latency. It can also account
// sent/received bytes per node to regenerate Table 2.
//
// Beyond the paper's faults, a composable fault-kind layer (faults.go) adds
// the gray-failure vocabulary of the adversarial scenario matrix: per-node
// delay injection (slow-but-alive processes), WAN-style per-link latency
// classes, loss rules that flap on a simclock schedule, asymmetric
// partitions, and best-effort duplication/reordering. All of them install
// and remove at runtime like the loss rules, shard the same way, and draw
// any randomness from the per-shard seeded RNGs so traces replay.
//
// The network is built to carry paper-scale fleets (1000–2000 nodes) in one
// process. Nothing funnels through a global dispatcher: endpoints, fault
// rules, RNG state, message counters and the best-effort delivery queues are
// all hash-partitioned into shards, so enqueue and delivery never serialize
// on a single lock or goroutine. A best-effort message travels as a delivery
// event held by value in its shard's ring or delay heap, which reuse their
// storage, so steady-state delivery allocates nothing per message. When no
// fault rules are installed — the entire bootstrap workload — the per-message
// fault check reduces to two atomic loads.
//
// Call Close when done with a network to stop the per-shard delivery workers;
// fleets created by the harness do this automatically.
package simnet

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// deliveryEvent is a queued best-effort message awaiting dispatch to a
// handler. It is a value copied into and out of the shard's queues: at 1000+
// nodes the best-effort path carries millions of messages per bootstrap, and a
// fresh allocation per message is what used to cap fleet sizes.
type deliveryEvent struct {
	from node.Addr
	req  *remoting.Request
	// st is the endpoint the message was addressed to when it was sent. The
	// worker delivers to this state's handler (not whatever is registered at
	// delivery time), so a deregistered endpoint's queued traffic is dropped
	// exactly as it was when each endpoint owned its inbox.
	st *endpointState
}

// releaseEvent returns an undeliverable event's inbox slot.
func releaseEvent(ev deliveryEvent) { ev.st.pending.Add(-1) }

// eventQueue is a growable FIFO ring of delivery events. The overall
// backlog is bounded by the per-destination pending counters (the queue never
// holds more than the sum of every endpoint's inbox bound), so the ring only
// grows under genuine load and is reused afterwards; steady-state enqueue and
// dequeue allocate nothing.
type eventQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []deliveryEvent
	head   int
	len    int
	closed bool
}

func (q *eventQueue) init() { q.cond = sync.NewCond(&q.mu) }

// push appends one event. It never blocks.
func (q *eventQueue) push(ev deliveryEvent) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		releaseEvent(ev)
		return
	}
	if q.len == len(q.buf) {
		grown := make([]deliveryEvent, max(64, 2*len(q.buf)))
		for i := 0; i < q.len; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.len)%len(q.buf)] = ev
	q.len++
	q.mu.Unlock()
	q.cond.Signal()
}

// pop removes the oldest event, blocking until one is available or the queue
// is closed (false).
func (q *eventQueue) pop() (deliveryEvent, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.len == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.len == 0 {
		return deliveryEvent{}, false
	}
	ev := q.buf[q.head]
	q.buf[q.head] = deliveryEvent{}
	q.head = (q.head + 1) % len(q.buf)
	q.len--
	return ev, true
}

// close wakes the worker and makes further pushes no-ops.
func (q *eventQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// endpointState is the simnet-side representation of one registered process.
type endpointState struct {
	handler transport.Handler
	// gone is set on deregistration; queued messages to a gone endpoint are
	// dropped at delivery time.
	gone atomic.Bool
	// pending counts queued-but-undelivered best-effort messages, bounding
	// each destination's backlog like a UDP socket buffer.
	pending atomic.Int32
}

// Options configure a simulated network.
type Options struct {
	// Clock supplies time for latency simulation and bandwidth accounting.
	Clock simclock.Clock
	// Seed makes drop decisions reproducible.
	Seed int64
	// Latency, if non-zero, is added to every message: each direction of a
	// synchronous request/response pays it (racing the caller's context
	// deadline), and best-effort messages are held in the destination
	// shard's delay heap until it elapses.
	Latency time.Duration
	// AccountBandwidth enables per-node byte accounting. It costs one encoding
	// pass per message (into a scratch buffer the sender's shard keeps), so it
	// is off by default.
	AccountBandwidth bool
	// InboxSize bounds each node's best-effort message backlog; further
	// messages are dropped, mimicking UDP behaviour under load.
	InboxSize int
	// Shards is the number of delivery shards (rounded up to a power of two).
	// Endpoints, fault rules, counters and delivery queues are partitioned by
	// destination-address hash across shards, each drained by its own worker
	// goroutine. Defaults to 8.
	Shards int
}

// shard is one hash partition of the network: the endpoints whose addresses
// hash here, the fault rules keyed by those addresses, a private RNG for drop
// decisions, message counters, and the delivery queue + worker goroutine for
// best-effort traffic addressed to those endpoints.
type shard struct {
	mu          sync.RWMutex
	endpoints   map[node.Addr]*endpointState
	crashed     map[node.Addr]bool
	ingressLoss map[node.Addr]float64
	egressLoss  map[node.Addr]float64
	// blackholes for a (src, dst) pair live on src's shard.
	blackholes map[[2]node.Addr]bool
	// delays holds the slow-but-alive rules (per-node one-way delay).
	delays map[node.Addr]time.Duration
	// flaps holds the schedule-toggled loss rules, evaluated at message time.
	flaps map[node.Addr]flapRule

	rngMu sync.Mutex
	rng   *rand.Rand

	queue eventQueue
	// delayed holds best-effort messages whose delivery deadline lies in the
	// future (latency simulation, slow nodes, WAN classes, reorder jitter).
	delayed delayQueue

	msgTotal  atomic.Int64
	msgCounts sync.Map // request kind -> *atomic.Int64

	// recMu guards the recorders of the shard's endpoints and sizeBuf, the
	// scratch buffer their messages are encoded into to be measured.
	recMu     sync.Mutex
	recorders map[node.Addr]*metrics.BandwidthRecorder
	sizeBuf   []byte
}

// Network is a simulated cluster interconnect.
type Network struct {
	clock   simclock.Clock
	latency time.Duration
	start   time.Time

	shards    []*shard
	shardMask uint32

	// faultRules counts installed drop-deciding rules (loss, blackholes,
	// flaps, the asymmetric partition) and crashedCount the crash markers.
	// When both are zero — the entire bootstrap workload — the per-message
	// fault check short-circuits without touching any shard lock.
	faultRules   atomic.Int64
	crashedCount atomic.Int64
	// delayRules counts installed delay rules (per-node delays plus the
	// latency model); zero keeps the extra-delay lookup to one atomic load.
	// flapCount gates the clock read that flap evaluation needs.
	delayRules atomic.Int64
	flapCount  atomic.Int64

	latencyModel atomic.Pointer[latencyModelBox]
	partition    atomic.Pointer[asymPartition]
	chaos        atomic.Pointer[ChaosSpec]
	dups         atomic.Int64

	accounting bool
	inboxSize  int

	closeOnce sync.Once
	workers   sync.WaitGroup
}

// New creates a simulated network.
func New(opts Options) *Network {
	clk := opts.Clock
	if clk == nil {
		clk = simclock.NewReal()
	}
	inbox := opts.InboxSize
	if inbox <= 0 {
		inbox = 4096
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 8
	}
	// Round up to a power of two so routing is a mask, not a modulo.
	size := 1
	for size < shards {
		size <<= 1
	}
	n := &Network{
		clock:      clk,
		latency:    opts.Latency,
		start:      clk.Now(),
		shards:     make([]*shard, size),
		shardMask:  uint32(size - 1),
		accounting: opts.AccountBandwidth,
		inboxSize:  inbox,
	}
	for i := range n.shards {
		s := &shard{
			endpoints:   make(map[node.Addr]*endpointState),
			crashed:     make(map[node.Addr]bool),
			ingressLoss: make(map[node.Addr]float64),
			egressLoss:  make(map[node.Addr]float64),
			blackholes:  make(map[[2]node.Addr]bool),
			delays:      make(map[node.Addr]time.Duration),
			flaps:       make(map[node.Addr]flapRule),
			rng:         rand.New(rand.NewSource(opts.Seed + int64(i))),
			recorders:   make(map[node.Addr]*metrics.BandwidthRecorder),
		}
		s.queue.init()
		s.delayed.init()
		n.shards[i] = s
		n.workers.Add(2)
		go n.deliverLoop(s)
		go n.delayPump(s)
	}
	return n
}

// Close stops the delivery workers. Queued best-effort messages that have not
// been handed to a handler yet are dropped. Close is idempotent; using the
// network after Close only affects best-effort delivery (synchronous Sends
// still work, matching a network object kept alive by late Stop calls).
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		for _, s := range n.shards {
			s.delayed.close()
			s.queue.close()
		}
	})
	n.workers.Wait()
}

// shardFor routes an address to its shard with an FNV-1a hash.
func (n *Network) shardFor(addr node.Addr) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(addr); i++ {
		h ^= uint32(addr[i])
		h *= prime32
	}
	return n.shards[h&n.shardMask]
}

// deliverLoop drains one shard's best-effort queue. Handlers are thin
// enqueuers (the membership engine applies messages on its own goroutine), so
// delivery passes a plain background context instead of allocating a
// per-message timeout: the simulated network owns no cancellation semantics.
//
// One worker serves all endpoints on the shard, so a handler that blocks
// (core's enqueue exerts backpressure when a node's event queue fills) stalls
// delivery to the shard's other endpoints until it drains — head-of-line
// blocking the old one-goroutine-per-endpoint design did not have, accepted
// here because per-endpoint dispatchers (N goroutines with N fixed-size
// inboxes) are what capped fleets at ~100 nodes. The engine side keeps the
// stall rare: its adaptive batching window keeps its event queue from
// filling, which the paper-scale bootstrap smokes gate on.
func (n *Network) deliverLoop(s *shard) {
	defer n.workers.Done()
	for {
		ev, ok := s.queue.pop()
		if !ok {
			return
		}
		ev.st.pending.Add(-1)
		if !ev.st.gone.Load() {
			_, _ = ev.st.handler.HandleRequest(context.Background(), ev.from, ev.req)
		}
	}
}

// countMessage tallies one send attempt by request kind on the source's
// shard. Unlike bandwidth accounting this is always on — experiments use it
// to compare dissemination strategies by message count (e.g. messages per
// view change) — so it must not contend: counters are per-shard lock-free
// atomics (the per-kind map only allocates on first sight of a kind).
func (s *shard) countMessage(req *remoting.Request) {
	s.msgTotal.Add(1)
	kind := req.Kind()
	if c, ok := s.msgCounts.Load(kind); ok {
		c.(*atomic.Int64).Add(1)
		return
	}
	c, _ := s.msgCounts.LoadOrStore(kind, new(atomic.Int64))
	c.(*atomic.Int64).Add(1)
}

// TotalMessages returns the number of send attempts observed so far
// (requests only; responses are not counted).
func (n *Network) TotalMessages() int64 {
	var total int64
	for _, s := range n.shards {
		total += s.msgTotal.Load()
	}
	return total
}

// MessageCount returns the number of send attempts of one request kind (as
// named by remoting.Request.Kind, e.g. "alerts", "votebatch", "fastround").
func (n *Network) MessageCount(kind string) int64 {
	var total int64
	for _, s := range n.shards {
		if c, ok := s.msgCounts.Load(kind); ok {
			total += c.(*atomic.Int64).Load()
		}
	}
	return total
}

// Register implements transport.Network. It binds a handler to an address.
// Registering clears any previous crash marker for the address (the process
// came back); a replaced registration stops receiving queued traffic.
func (n *Network) Register(addr node.Addr, handler transport.Handler) error {
	s := n.shardFor(addr)
	st := &endpointState{handler: handler}
	s.mu.Lock()
	if old, ok := s.endpoints[addr]; ok {
		old.gone.Store(true)
	}
	s.endpoints[addr] = st
	if s.crashed[addr] {
		delete(s.crashed, addr)
		n.crashedCount.Add(-1)
	}
	s.mu.Unlock()
	return nil
}

// Deregister implements transport.Network: the address becomes unreachable
// and its queued best-effort messages are dropped at delivery time.
func (n *Network) Deregister(addr node.Addr) {
	s := n.shardFor(addr)
	s.mu.Lock()
	st, ok := s.endpoints[addr]
	if ok {
		delete(s.endpoints, addr)
	}
	s.mu.Unlock()
	if ok {
		st.gone.Store(true)
	}
}

// Crash removes a process abruptly: it becomes unreachable and anything it
// still tries to send is dropped (unlike Deregister, which only stops it from
// receiving). Experiment code uses this to model process crashes without
// having to tear down the process object itself.
func (n *Network) Crash(addr node.Addr) {
	s := n.shardFor(addr)
	s.mu.Lock()
	if !s.crashed[addr] {
		s.crashed[addr] = true
		n.crashedCount.Add(1)
	}
	s.mu.Unlock()
	n.Deregister(addr)
}

// Client implements transport.Network.
func (n *Network) Client(addr node.Addr) transport.Client {
	return &client{net: n, from: addr}
}

// Registered reports whether an address currently has a handler.
func (n *Network) Registered(addr node.Addr) bool {
	s := n.shardFor(addr)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.endpoints[addr]
	return ok
}

// NumRegistered returns the number of live endpoints.
func (n *Network) NumRegistered() int {
	total := 0
	for _, s := range n.shards {
		s.mu.RLock()
		total += len(s.endpoints)
		s.mu.RUnlock()
	}
	return total
}

// --- fault injection -------------------------------------------------------

// setLoss installs or clears one loss rule, keeping the global rule count in
// step so the no-fault fast path stays exact. The map is selected under the
// shard lock: ClearFaults replaces the map objects, so a map captured before
// locking could be the orphaned one.
func (n *Network) setLoss(addr node.Addr, ingress bool, probability float64) {
	s := n.shardFor(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.egressLoss
	if ingress {
		m = s.ingressLoss
	}
	_, had := m[addr]
	if probability <= 0 {
		if had {
			delete(m, addr)
			n.faultRules.Add(-1)
		}
		return
	}
	m[addr] = probability
	if !had {
		n.faultRules.Add(1)
	}
}

// SetIngressLoss drops the given fraction [0,1] of packets arriving at addr.
func (n *Network) SetIngressLoss(addr node.Addr, probability float64) {
	n.setLoss(addr, true, probability)
}

// SetEgressLoss drops the given fraction [0,1] of packets leaving addr.
func (n *Network) SetEgressLoss(addr node.Addr, probability float64) {
	n.setLoss(addr, false, probability)
}

// BlockDirectional drops every packet flowing from src to dst (one direction
// only), modelling the one-way reachability problems of §7.
func (n *Network) BlockDirectional(src, dst node.Addr) {
	s := n.shardFor(src)
	s.mu.Lock()
	defer s.mu.Unlock()
	key := [2]node.Addr{src, dst}
	if !s.blackholes[key] {
		s.blackholes[key] = true
		n.faultRules.Add(1)
	}
}

// UnblockDirectional removes a directional blackhole.
func (n *Network) UnblockDirectional(src, dst node.Addr) {
	s := n.shardFor(src)
	s.mu.Lock()
	defer s.mu.Unlock()
	key := [2]node.Addr{src, dst}
	if s.blackholes[key] {
		delete(s.blackholes, key)
		n.faultRules.Add(-1)
	}
}

// BlockPair drops packets in both directions between a and b (a full packet
// blackhole, as in the Figure 12 experiment).
func (n *Network) BlockPair(a, b node.Addr) {
	n.BlockDirectional(a, b)
	n.BlockDirectional(b, a)
}

// UnblockPair removes a bidirectional blackhole.
func (n *Network) UnblockPair(a, b node.Addr) {
	n.UnblockDirectional(a, b)
	n.UnblockDirectional(b, a)
}

// ClearFaults removes every installed fault rule: loss, blackholes, flaps,
// the asymmetric partition, per-node delays, the latency model and chaos.
// (Options.Latency, being part of the network itself, stays.)
func (n *Network) ClearFaults() {
	for _, s := range n.shards {
		s.mu.Lock()
		removed := int64(len(s.ingressLoss) + len(s.egressLoss) + len(s.blackholes) + len(s.flaps))
		flapped := int64(len(s.flaps))
		delays := int64(len(s.delays))
		s.ingressLoss = make(map[node.Addr]float64)
		s.egressLoss = make(map[node.Addr]float64)
		s.blackholes = make(map[[2]node.Addr]bool)
		s.flaps = make(map[node.Addr]flapRule)
		s.delays = make(map[node.Addr]time.Duration)
		s.mu.Unlock()
		n.faultRules.Add(-removed)
		n.flapCount.Add(-flapped)
		n.delayRules.Add(-delays)
	}
	n.ClearAsymmetricPartition()
	n.SetLatencyModel(nil)
	n.ClearChaos()
}

// --- bandwidth accounting ---------------------------------------------------

func (n *Network) recorder(addr node.Addr) *metrics.BandwidthRecorder {
	s := n.shardFor(addr)
	s.recMu.Lock()
	defer s.recMu.Unlock()
	r, ok := s.recorders[addr]
	if !ok {
		r = metrics.NewBandwidthRecorder(n.start, time.Second)
		s.recorders[addr] = r
	}
	return r
}

// Bandwidth returns the recorder for addr (creating it if needed). Only
// meaningful when the network was created with AccountBandwidth.
func (n *Network) Bandwidth(addr node.Addr) *metrics.BandwidthRecorder {
	return n.recorder(addr)
}

func (n *Network) account(from, to node.Addr, req *remoting.Request, resp *remoting.Response) {
	if !n.accounting {
		return
	}
	now := n.clock.Now()
	if req != nil {
		size := n.shardFor(from).encodedSize(req, nil)
		n.recorder(from).RecordSent(now, size)
		n.recorder(to).RecordReceived(now, size)
	}
	if resp != nil {
		size := n.shardFor(to).encodedSize(nil, resp)
		n.recorder(to).RecordSent(now, size)
		n.recorder(from).RecordReceived(now, size)
	}
}

// encodedSize returns the wire length of a request, or of resp when req is
// nil, by encoding it into the shard's scratch buffer, which keeps the
// largest message seen so far so that sizing allocates nothing once warm.
func (s *shard) encodedSize(req *remoting.Request, resp *remoting.Response) int {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	if req != nil {
		s.sizeBuf = remoting.AppendRequest(s.sizeBuf[:0], req)
	} else {
		s.sizeBuf = remoting.AppendResponse(s.sizeBuf[:0], resp)
	}
	return len(s.sizeBuf)
}

// --- delivery ---------------------------------------------------------------

// chance draws one drop decision from the shard's private RNG. Sharding the
// RNG keeps decisions reproducible per shard for a fixed seed and send order
// without a global lock.
func (s *shard) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Float64() < p
}

// allowed checks the fault rules for a packet from src to dst. With no rules
// installed anywhere — the common case — it is two atomic loads. Flap rules
// fold into the loss probabilities of whichever direction they cover, so the
// RNG draw order (egress on the source shard, then ingress on the
// destination shard) is identical with and without flaps active.
func (n *Network) allowed(src, dst node.Addr) bool {
	if n.faultRules.Load() == 0 && n.crashedCount.Load() == 0 {
		return true
	}
	if p := n.partition.Load(); p != nil && p.blocked(src, dst) {
		return false
	}
	var now time.Time
	if n.flapCount.Load() > 0 {
		now = n.clock.Now()
	}
	ss := n.shardFor(src)
	ss.mu.RLock()
	egress := ss.egressLoss[src]
	blocked := ss.blackholes[[2]node.Addr{src, dst}]
	crashed := ss.crashed[src]
	if fr, ok := ss.flaps[src]; ok && !fr.Ingress && fr.active(now) && fr.Loss > egress {
		egress = fr.Loss
	}
	ss.mu.RUnlock()
	if blocked || crashed {
		return false
	}
	ds := n.shardFor(dst)
	ds.mu.RLock()
	ingress := ds.ingressLoss[dst]
	if fr, ok := ds.flaps[dst]; ok && fr.Ingress && fr.active(now) && fr.Loss > ingress {
		ingress = fr.Loss
	}
	ds.mu.RUnlock()
	if ss.chance(egress) {
		return false
	}
	if ds.chance(ingress) {
		return false
	}
	return true
}

func (n *Network) lookup(addr node.Addr) (*endpointState, bool) {
	s := n.shardFor(addr)
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.endpoints[addr]
	return st, ok
}

// client implements transport.Client for one source address.
type client struct {
	net  *Network
	from node.Addr
}

// arrive waits for a message that arrives at at, honoring the caller's
// deadline: a slow link makes RPCs *time out*, not merely take longer, which
// is what turns delay injection into a protocol-visible gray failure
// (probers bound each RPC with a context deadline). The deadline is held
// against the arrival time, not against the moment this goroutine wakes up:
// a host that wakes the sleeper late (timer slack, a loaded CPU) must not
// turn a round trip inside the timeout into a timeout. Only a caller that
// canceled gets nothing from a message that arrived in time.
func (n *Network) arrive(ctx context.Context, at time.Time) bool {
	if ctx == nil || ctx.Done() == nil {
		if wait := at.Sub(n.clock.Now()); wait > 0 {
			n.clock.Sleep(wait)
		}
		return true
	}
	if deadline, ok := ctx.Deadline(); ok && at.After(deadline) {
		<-ctx.Done()
		return false
	}
	if wait := at.Sub(n.clock.Now()); wait > 0 {
		select {
		case <-ctx.Done():
		case <-n.clock.After(wait):
			return true
		}
	}
	return !errors.Is(ctx.Err(), context.Canceled)
}

// Send implements transport.Client. Both the request and the response path
// are subject to fault rules, so one-way partitions affect RPCs correctly:
// a node whose ingress is blocked can still send requests but never hears
// responses. Propagation delay (Options.Latency plus any delay rules) is
// paid per direction and races the context deadline. The reply leaves the
// handler's time after the request arrived, so how late the request's
// sleeper woke up is not paid twice.
func (c *client) Send(ctx context.Context, to node.Addr, req *remoting.Request) (*remoting.Response, error) {
	n := c.net
	n.shardFor(c.from).countMessage(req)
	delay := n.latency + n.extraDelay(c.from, to)
	var arrived, handled time.Time
	if delay > 0 {
		if arrived = n.clock.Now().Add(delay); !n.arrive(ctx, arrived) {
			return nil, transport.ErrTimeout
		}
		handled = n.clock.Now()
	}
	if !n.allowed(c.from, to) {
		return nil, transport.ErrUnreachable
	}
	st, ok := n.lookup(to)
	if !ok {
		return nil, transport.ErrUnreachable
	}
	resp, err := st.handler.HandleRequest(ctx, c.from, req)
	if err != nil {
		return nil, err
	}
	// Response travels dst -> src and is subject to the reverse-path rules.
	if !n.allowed(to, c.from) {
		return nil, transport.ErrTimeout
	}
	n.account(c.from, to, req, resp)
	if delay > 0 && !n.arrive(ctx, arrived.Add(n.clock.Since(handled)+delay)) {
		return nil, transport.ErrTimeout
	}
	return resp, nil
}

// SendBestEffort implements transport.Client: the message is queued on the
// destination shard if the fault rules allow it, and silently dropped
// otherwise (or if the destination's backlog or the shard queue is full).
// The steady-state path performs no allocation: the delivery event is a value
// the shard's queues copy, and per-kind counters are pre-existing atomics.
func (c *client) SendBestEffort(to node.Addr, req *remoting.Request) {
	n := c.net
	src := n.shardFor(c.from)
	src.countMessage(req)
	if !n.allowed(c.from, to) {
		return
	}
	st, ok := n.lookup(to)
	if !ok {
		return
	}
	delay := n.latency + n.extraDelay(c.from, to)
	if ch := n.chaos.Load(); ch != nil {
		// Chaos draws happen on the source shard in send order (after the
		// loss draws of allowed), keeping traces seed-reproducible.
		var jitter time.Duration
		if src.chance(ch.Reorder) {
			jitter = src.randJitter(ch.MaxJitter)
		}
		if src.chance(ch.Duplicate) {
			dupJitter := src.randJitter(ch.MaxJitter)
			n.dups.Add(1)
			n.deliverBestEffort(c.from, to, st, req, delay+dupJitter)
		}
		delay += jitter
	}
	n.deliverBestEffort(c.from, to, st, req, delay)
}

// deliverBestEffort queues one best-effort copy: immediately when it carries
// no delay, through the destination shard's delay heap otherwise. Each copy
// consumes an inbox slot (a duplicate beyond the destination's backlog bound
// is dropped like any other message).
func (n *Network) deliverBestEffort(from, to node.Addr, st *endpointState, req *remoting.Request, delay time.Duration) {
	// Backlog bound per destination, like a UDP socket buffer under load.
	if int(st.pending.Add(1)) > n.inboxSize {
		st.pending.Add(-1)
		return
	}
	n.account(from, to, req, nil)
	ev := deliveryEvent{from: from, req: req, st: st}
	s := n.shardFor(to)
	if delay <= 0 {
		s.queue.push(ev)
		return
	}
	if !s.delayed.push(ev, n.clock.Now().Add(delay)) {
		releaseEvent(ev)
	}
}

var _ transport.Network = (*Network)(nil)
var _ transport.Client = (*client)(nil)
