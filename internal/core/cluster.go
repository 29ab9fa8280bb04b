package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// Errors returned by the public API.
var (
	errInvalidWatermarks = errors.New("core: require 1 <= L <= H <= K")
	// ErrJoinFailed indicates the joiner exhausted its join attempts.
	ErrJoinFailed = errors.New("core: join failed after all attempts")
	// ErrAddressInUse indicates the cluster already contains this address.
	ErrAddressInUse = errors.New("core: hostname already in the membership ring")
	// ErrStopped indicates an operation on a stopped cluster handle.
	ErrStopped = errors.New("core: cluster handle is stopped")
)

// StatusChange describes one endpoint's transition in a view change.
type StatusChange struct {
	Endpoint node.Endpoint
	// Joined is true when the endpoint was added, false when removed.
	Joined bool
}

// ViewChange is delivered to subscribers on every configuration change.
type ViewChange struct {
	// ConfigurationID identifies the new configuration.
	ConfigurationID uint64
	// Members is the full membership of the new configuration, sorted by
	// address. Every subscriber, the engine and concurrent readers share this
	// one slice: it must not be written to (clone it first).
	Members []node.Endpoint
	// Changes lists the endpoints added or removed relative to the previous
	// configuration the subscriber was notified of.
	Changes []StatusChange
	// Coalesced is the gap marker for slow subscribers: when the bounded
	// notification queue (notifierQueueBound entries) overflows, pending
	// view changes are merged and Coalesced counts how many separate view
	// changes this notification absorbed. Zero in normal operation; when
	// non-zero, Members and Changes describe the net transition across the
	// gap, not each intermediate configuration.
	Coalesced int
}

// Subscriber receives view-change notifications. Callbacks are invoked in
// order from a dedicated delivery goroutine, off the protocol path, so they
// may block without stalling the membership service. A callback that stays
// blocked for more than notifierQueueBound (64) view changes starts
// receiving coalesced notifications (ViewChange.Coalesced > 0) instead of
// growing the pending queue without bound. A callback already in flight when
// Stop is called may complete after Stop returns.
type Subscriber func(ViewChange)

// snapshot is the immutable membership state published by the engine after
// every view change. Public accessors read the latest snapshot lock-free, so
// readers only ever observe fully installed configurations.
type snapshot struct {
	configID    uint64
	members     []node.Endpoint // sorted by address; the engine's slice, immutable
	viewChanges int
}

const (
	// eventQueueSize bounds the engine's inbound event queue.
	eventQueueSize = 1024
	// notifierQueueBound caps the pending view-change notification queue.
	notifierQueueBound = 64
	// joinAnswersSize bounds the phase-2 answers waiting for the join in
	// progress: K observers answer a round, and the join reads them as they
	// come, so an answer is dropped only in a burst of stale ones.
	joinAnswersSize = 64
)

// Cluster is one process' handle on the Rapid membership service. Create one
// with StartCluster (to bootstrap a new cluster) or JoinCluster (to join an
// existing one through seed processes), or, in Rapid-C, with StartEnsemble and
// JoinViaEnsemble.
//
// Internally the handle is a thin shell around a single-writer protocol
// engine (see engine.go): transport handlers enqueue events on one queue, one
// goroutine steps the engine with them and performs what it returns (see
// driver.go), and the results are published as atomic snapshots.
type Cluster struct {
	settings Settings
	net      transport.Network
	client   transport.Client
	clock    simclock.Clock
	me       node.Endpoint
	// ensemble is the electorate of a Rapid-C handle, an ensemble node's or a
	// managed member's; nil for Rapid, where the membership votes.
	ensemble []node.Addr

	// events is the engine's only way in: every protocol message, join phase
	// and probe outcome queues here in arrival order.
	events   chan event
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	started atomic.Bool
	// joinAnswers carries the observers' answers to this process' phase-2
	// join requests from HandleRequest to join, until the handle starts.
	joinAnswers chan *remoting.JoinResponse
	snap        atomic.Pointer[snapshot]

	notifier *notifier
	probeReq *remoting.Request // the one request every probe of this member sends

	emetrics EngineMetrics
}

// EngineMetrics instruments the protocol engine. The event queue depth and
// the notifier queue depth are not stored metrics: Stats() reads them live
// from the queues themselves.
type EngineMetrics struct {
	// EventsProcessed counts events the driver stepped the engine with.
	EventsProcessed metrics.Counter
	// BatchesSent counts flushed alert batches and vote pushes.
	BatchesSent metrics.Counter
	// BatchSizes aggregates the alerts per flushed alert batch and the
	// proposals per vote push.
	BatchSizes metrics.Distribution
	// BatchWindow is the engine's current adaptive flush window, nanoseconds.
	BatchWindow metrics.Gauge
	// QueueFullNanos accumulates the time producers spent blocked on a full
	// event queue.
	QueueFullNanos metrics.Counter
	// NotifierCoalesced counts view changes merged away by the bounded
	// notification queue.
	NotifierCoalesced metrics.Counter
	// JoinsTimedOut counts this process' own phase-2 join rounds whose
	// JoinPhase2Timeout ran out with observers still unanswered, one per
	// round; it is counted while the handle joins, never after.
	JoinsTimedOut metrics.Counter
}

// EngineStats is a point-in-time summary of the engine metrics.
type EngineStats struct {
	QueueDepth      int
	EventsProcessed int64
	BatchesSent     int64
	BatchSizes      metrics.DistributionSummary
	// BatchWindow is the current adaptive flush window, sized by load between
	// a hundredth and two fifths of Settings.ProbeInterval.
	BatchWindow time.Duration
	// ShedBatches always reads 0: an inbound batch blocks on a full event
	// queue like every other event, and is never dropped. It is kept for the
	// benchmark, which reads it, until a change to the benchmark drops it.
	ShedBatches int64
	// QueueFullTime is the cumulative time producers spent blocked on a full
	// event queue.
	QueueFullTime time.Duration
	// NotifierDepth is the number of undelivered view-change notifications.
	NotifierDepth int
	// NotifierCoalesced is the number of view changes merged away because a
	// slow subscriber hit the notification queue bound.
	NotifierCoalesced int64
	// JoinsTimedOut is the number of phase-2 rounds this process' own join
	// ran, whose JoinPhase2Timeout ran out before every observer answered:
	// each failed an attempt. Observers answer at the next view change, with
	// an admission or a redirect, so a healthy bootstrap reads 0.
	JoinsTimedOut int64
}

// StartCluster bootstraps a brand-new cluster consisting of just this
// process. Other processes join it by listing this address in their seeds.
func StartCluster(addr node.Addr, settings Settings, net transport.Network) (*Cluster, error) {
	c, err := register(addr, nil, settings, net)
	if err != nil {
		return nil, err
	}
	c.initialize([]node.Endpoint{c.me})
	return c, nil
}

// JoinCluster joins an existing cluster through the given seed addresses
// using Rapid's two-phase join protocol, and returns a started handle once
// the view change admitting this process has been installed.
func JoinCluster(addr node.Addr, seeds []node.Addr, settings Settings, net transport.Network) (*Cluster, error) {
	return joinThrough(addr, seeds, nil, settings, net)
}

// StartEnsemble boots the auxiliary ensemble of Rapid-C (§5), typically three
// processes, which is the ground truth for the membership of a cluster it
// manages, the way applications use ZooKeeper. Each handle is an engine whose
// electorate is the ensemble and whose view is the managed cluster, empty at
// first; Size, Members and ConfigurationID describe that cluster.
func StartEnsemble(addrs []node.Addr, settings Settings, net transport.Network) ([]*Cluster, error) {
	ensemble := node.SortAddrs(slices.Clone(addrs))
	nodes := make([]*Cluster, 0, len(ensemble))
	for _, addr := range ensemble {
		c, err := register(addr, ensemble, settings, net)
		if err != nil {
			for _, n := range nodes {
				n.Stop()
			}
			return nil, err
		}
		c.initialize(nil)
		nodes = append(nodes, c)
	}
	return nodes, nil
}

// JoinViaEnsemble joins the cluster a Rapid-C ensemble manages: JoinCluster
// with the ensemble as the seeds, which names itself as the joiner's
// observers. The member it starts probes its ring subjects, reports to the
// ensemble, and learns every configuration by polling it.
func JoinViaEnsemble(addr node.Addr, ensemble []node.Addr, settings Settings, net transport.Network) (*Cluster, error) {
	return joinThrough(addr, ensemble, node.SortAddrs(slices.Clone(ensemble)), settings, net)
}

// joinThrough registers a handle whose electorate is the given ensemble (nil:
// the membership), joins through seeds and starts it.
func joinThrough(addr node.Addr, seeds, ensemble []node.Addr, settings Settings, net transport.Network) (*Cluster, error) {
	c, err := register(addr, ensemble, settings, net)
	if err != nil {
		return nil, err
	}
	members, err := c.join(seeds)
	if err != nil {
		net.Deregister(addr)
		return nil, err
	}
	c.initialize(members)
	return c, nil
}

// register builds the unstarted handle and registers it with the transport.
func register(addr node.Addr, ensemble []node.Addr, settings Settings, net transport.Network) (*Cluster, error) {
	c, err := newCluster(addr, settings, net)
	if err != nil {
		return nil, err
	}
	c.ensemble = ensemble
	if err := net.Register(addr, c); err != nil {
		return nil, fmt.Errorf("core: register %s: %w", addr, err)
	}
	return c, nil
}

// newCluster builds the unstarted handle.
func newCluster(addr node.Addr, settings Settings, net transport.Network) (*Cluster, error) {
	if err := settings.validate(); err != nil {
		return nil, err
	}
	me := node.Endpoint{Addr: addr, ID: node.NewID()}
	if settings.Metadata != nil {
		me = me.WithMetadata(settings.Metadata)
	}
	c := &Cluster{
		settings:    settings,
		net:         net,
		client:      net.Client(addr),
		clock:       settings.Clock,
		me:          me,
		events:      make(chan event, eventQueueSize),
		stopCh:      make(chan struct{}),
		joinAnswers: make(chan *remoting.JoinResponse, joinAnswersSize),
		probeReq:    &remoting.Request{Probe: &remoting.ProbeRequest{Sender: addr}},
	}
	c.notifier = newNotifier(notifierQueueBound, &c.emetrics.NotifierCoalesced)
	return c, nil
}

// initialize installs the first configuration and starts the engine's
// driver and the subscriber delivery goroutine. The engine's first outputs
// are performed, and the driver's timer armed for its first wake, here, before
// the driver exists: the snapshot is there when the constructor returns.
func (c *Cluster) initialize(members []node.Endpoint) {
	now := c.clock.Now()
	e, first := newEngine(c.me, &c.settings, &c.emetrics, members, c.ensemble, now)
	c.perform(first)
	c.started.Store(true)
	timer := newWakeTimer(c.clock)
	timer.set(first.wakeAt)
	c.wg.Add(1)
	go e.run(c, timer)
	go c.notifier.run()
}

// enqueue submits an event to the engine, blocking if the queue is full
// (backpressure). It returns false if the cluster stopped instead. Time spent
// blocked on a full queue is accumulated in QueueFullNanos, so overload is
// visible in EngineStats.
func (c *Cluster) enqueue(ev event) bool {
	select {
	case c.events <- ev:
		return true
	default:
	}
	start := c.clock.Now()
	defer func() {
		c.emetrics.QueueFullNanos.Add(int64(c.clock.Since(start)))
	}()
	select {
	case c.events <- ev:
		return true
	case <-c.stopCh:
		return false
	}
}

// member returns the endpoint registered for addr, by binary search of the
// sorted membership.
func (s *snapshot) member(addr node.Addr) (node.Endpoint, bool) {
	i, ok := slices.BinarySearchFunc(s.members, node.Endpoint{Addr: addr}, node.CompareEndpoints)
	if !ok {
		return node.Endpoint{}, false
	}
	return s.members[i], true
}

// --- public accessors --------------------------------------------------------

// Addr returns this process' listen address.
func (c *Cluster) Addr() node.Addr { return c.me.Addr }

// ID returns the logical identifier this process joined with.
func (c *Cluster) ID() node.ID { return c.me.ID }

// Size returns the number of members in the current configuration.
func (c *Cluster) Size() int {
	if s := c.snap.Load(); s != nil {
		return len(s.members)
	}
	return 0
}

// Members returns the endpoints of the current configuration sorted by
// address, in a slice the caller owns.
func (c *Cluster) Members() []node.Endpoint {
	s := c.snap.Load()
	if s == nil {
		return nil
	}
	return slices.Clone(s.members)
}

// ConfigurationID returns the identifier of the current configuration.
func (c *Cluster) ConfigurationID() uint64 {
	if s := c.snap.Load(); s != nil {
		return s.configID
	}
	return 0
}

// IsMember reports whether this process is part of its own current view.
// It becomes false if the rest of the cluster removed this process.
func (c *Cluster) IsMember() bool {
	s := c.snap.Load()
	if s == nil {
		return false
	}
	_, ok := s.member(c.me.Addr)
	return ok
}

// ViewChangeCount returns how many view changes this handle has applied.
func (c *Cluster) ViewChangeCount() int {
	if s := c.snap.Load(); s != nil {
		return s.viewChanges
	}
	return 0
}

// Metadata returns the metadata registered for the given member address.
func (c *Cluster) Metadata(addr node.Addr) (map[string]string, bool) {
	s := c.snap.Load()
	if s == nil {
		return nil, false
	}
	ep, ok := s.member(addr)
	if !ok {
		return nil, false
	}
	return ep.Metadata, true
}

// Stats returns a point-in-time summary of the engine instrumentation.
func (c *Cluster) Stats() EngineStats {
	return EngineStats{
		QueueDepth:        len(c.events),
		EventsProcessed:   c.emetrics.EventsProcessed.Value(),
		BatchesSent:       c.emetrics.BatchesSent.Value(),
		BatchSizes:        c.emetrics.BatchSizes.Summary(),
		BatchWindow:       time.Duration(c.emetrics.BatchWindow.Value()),
		QueueFullTime:     time.Duration(c.emetrics.QueueFullNanos.Value()),
		NotifierDepth:     c.notifier.depth(),
		NotifierCoalesced: c.emetrics.NotifierCoalesced.Value(),
		JoinsTimedOut:     c.emetrics.JoinsTimedOut.Value(),
	}
}

// Metrics exposes the live engine instrumentation.
func (c *Cluster) Metrics() *EngineMetrics { return &c.emetrics }

// Subscribe registers a view-change callback. It is invoked for every
// configuration change applied after registration.
func (c *Cluster) Subscribe(cb Subscriber) { c.notifier.subscribe(cb) }

// Leave announces a graceful departure: observers of this process convert the
// announcement into REMOVE alerts so a coordinated view change removes it.
// The announcement is an event like any other: the engine sends it to every
// member when its turn comes, and a handle that has stopped sends nothing.
// The handle keeps serving protocol messages until Stop is called.
func (c *Cluster) Leave() {
	if c.started.Load() {
		c.enqueue(leaveEvent)
	}
}

// Stop halts all background work and deregisters from the transport. The
// handle cannot be restarted. Undelivered view-change notifications are
// discarded; at most one subscriber callback that was already executing when
// Stop was called may still complete after Stop returns.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		close(c.stopCh)
		c.wg.Wait()
		c.notifier.stop()
		c.net.Deregister(c.me.Addr)
	})
}

var _ transport.Handler = (*Cluster)(nil)
