// Package tcpnet is the real-network transport: requests and responses over
// TCP, framed by a length prefix and a per-request ID around the compact
// binary encoding of package remoting. It is used by cmd/rapid-node to run a
// membership agent as an ordinary process; the simulated network (package
// simnet) is used everywhere else in tests and experiments.
//
// Unlike the seed transport (one dial, one request, one goroutine per
// message), connections are pooled per destination and pipelined: concurrent
// Sends to the same peer ride one TCP connection, a demux reader matches
// responses to waiters by request ID, dial failures open a backoff window so
// alert storms at a dead peer fail fast instead of piling up SYNs, and
// best-effort sends flow through a bounded worker pool that sheds (and
// counts) overflow instead of spawning a goroutine and an FD per message.
// A best-effort send is a one-way frame (see frame.go): its worker is free
// again once the frame is written, not once the peer has answered.
// Stats exposes dial/request/drop counters so deployments can verify reuse
// (dials should sit orders of magnitude below requests).
package tcpnet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// Options configure the TCP network. Zero values take defaults; negative
// values (and an inverted backoff range) are configuration mistakes and are
// rejected by New, mirroring core.Settings validation.
type Options struct {
	// DialTimeout bounds connection establishment. Defaults to 1s.
	DialTimeout time.Duration
	// RequestTimeout bounds a whole request/response exchange when the
	// caller's context carries no deadline, and bounds server-side handler
	// execution and response writes. Defaults to 3s.
	RequestTimeout time.Duration
	// IdleTimeout is how long a pooled or inbound connection may sit with no
	// traffic before it is closed (the client end closes slightly earlier
	// than the server end so reuse rarely races a server-side close).
	// Defaults to 60s.
	IdleTimeout time.Duration
	// MaxInFlightPerConn bounds concurrently executing handlers per inbound
	// connection on the server side. Defaults to 256.
	MaxInFlightPerConn int
	// BestEffortWorkers is the size of the worker pool draining the
	// best-effort send queue. A worker waits for a dial or a full socket
	// buffer, never for the peer's answer. Defaults to 4.
	BestEffortWorkers int
	// BestEffortQueue bounds the best-effort send queue; overflow is dropped
	// and counted in Stats.BestEffortDropped. Defaults to 1024.
	BestEffortQueue int
	// DialBackoffBase is the first post-failure backoff window during which
	// dials to a peer fail fast. It doubles per consecutive failure up to
	// DialBackoffMax. Defaults: 50ms base, 2s max.
	DialBackoffBase time.Duration
	DialBackoffMax  time.Duration
	// Dial, when non-nil, replaces the default dialer. A TLS deployment
	// supplies a tls.Dialer's DialContext here.
	Dial func(ctx context.Context, network, address string) (net.Conn, error)
	// Listen, when non-nil, replaces net.Listen. A TLS deployment supplies
	// tls.Listen here; tests inject failing listeners through it.
	Listen func(network, address string) (net.Listener, error)
}

// validate rejects negative or inverted options and fills in defaults,
// following the same convention as core.Settings: zero means "default",
// nonsense is an error rather than a silent rewrite.
func (o *Options) validate() error {
	if o.DialTimeout < 0 || o.RequestTimeout < 0 || o.IdleTimeout < 0 ||
		o.DialBackoffBase < 0 || o.DialBackoffMax < 0 {
		return fmt.Errorf("tcpnet: negative timeout in options (dial=%v request=%v idle=%v backoff=%v/%v)",
			o.DialTimeout, o.RequestTimeout, o.IdleTimeout, o.DialBackoffBase, o.DialBackoffMax)
	}
	if o.MaxInFlightPerConn < 0 || o.BestEffortWorkers < 0 || o.BestEffortQueue < 0 {
		return fmt.Errorf("tcpnet: negative bound in options (inflight=%d workers=%d queue=%d)",
			o.MaxInFlightPerConn, o.BestEffortWorkers, o.BestEffortQueue)
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 3 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 60 * time.Second
	}
	if o.MaxInFlightPerConn == 0 {
		o.MaxInFlightPerConn = 256
	}
	if o.BestEffortWorkers == 0 {
		o.BestEffortWorkers = 4
	}
	if o.BestEffortQueue == 0 {
		o.BestEffortQueue = 1024
	}
	if o.DialBackoffBase == 0 {
		o.DialBackoffBase = 50 * time.Millisecond
	}
	if o.DialBackoffMax == 0 {
		o.DialBackoffMax = 2 * time.Second
	}
	if o.DialBackoffBase > o.DialBackoffMax {
		return fmt.Errorf("tcpnet: dial backoff base %v exceeds max %v", o.DialBackoffBase, o.DialBackoffMax)
	}
	if o.Dial == nil {
		d := &net.Dialer{}
		o.Dial = d.DialContext
	}
	if o.Listen == nil {
		o.Listen = net.Listen
	}
	return nil
}

// Stats is a point-in-time snapshot of the transport's instrumentation.
// The pooling invariant to watch in production is Dials << Requests.
type Stats struct {
	// Dials counts TCP connections established by the client side.
	Dials int64
	// DialErrors counts failed dial attempts (backoff fail-fasts excluded).
	DialErrors int64
	// Requests counts messages sent over pooled connections:
	// request/response exchanges and one-way best-effort frames alike.
	Requests int64
	// StaleRetries counts sends transparently retried on a fresh connection
	// after writing to a pooled connection the peer had already closed.
	StaleRetries int64
	// OpenConns is the number of currently open pooled (outbound) connections.
	OpenConns int64
	// BestEffortQueued / BestEffortDropped count fire-and-forget sends
	// accepted into, or shed from, the bounded best-effort queue.
	BestEffortQueued  int64
	BestEffortDropped int64
	// AcceptedConns counts inbound connections accepted across listeners.
	AcceptedConns int64
	// AcceptErrors counts transient listener Accept failures survived via
	// backoff (FD exhaustion shows up here instead of as a spinning core).
	AcceptErrors int64
}

// netStats hold the live counters behind Stats.
type netStats struct {
	dials             metrics.Counter
	dialErrors        metrics.Counter
	requests          metrics.Counter
	staleRetries      metrics.Counter
	openConns         metrics.Gauge
	bestEffortQueued  metrics.Counter
	bestEffortDropped metrics.Counter
	acceptedConns     metrics.Counter
	acceptErrors      metrics.Counter
}

// Network implements transport.Network over TCP. Each Register call starts a
// listener on the registered address; Clients share per-destination
// connection pools owned by the Network.
type Network struct {
	opts Options
	st   netStats

	mu        sync.Mutex
	closed    bool
	listeners map[node.Addr]*listenerState
	pools     map[node.Addr]*pool

	beCh chan beTask
	beWG sync.WaitGroup
}

// New creates a TCP transport network. It fails on invalid options (negative
// timeouts or bounds, inverted backoff range).
func New(opts Options) (*Network, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := &Network{
		opts:      opts,
		listeners: make(map[node.Addr]*listenerState),
		pools:     make(map[node.Addr]*pool),
		beCh:      make(chan beTask, opts.BestEffortQueue),
	}
	n.beWG.Add(opts.BestEffortWorkers)
	for i := 0; i < opts.BestEffortWorkers; i++ {
		go n.bestEffortWorker()
	}
	return n, nil
}

// Register implements transport.Network: it listens on addr and serves
// inbound requests with handler until Deregister is called.
func (n *Network) Register(addr node.Addr, handler transport.Handler) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("tcpnet: network closed")
	}
	if _, dup := n.listeners[addr]; dup {
		n.mu.Unlock()
		return fmt.Errorf("tcpnet: %s already registered", addr)
	}
	n.mu.Unlock()

	ln, err := n.opts.Listen("tcp", string(addr))
	if err != nil {
		return fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	st := &listenerState{
		net:     n,
		ln:      ln,
		handler: handler,
		quit:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}

	n.mu.Lock()
	if n.closed || n.listeners[addr] != nil {
		n.mu.Unlock()
		ln.Close()
		return fmt.Errorf("tcpnet: %s already registered", addr)
	}
	n.listeners[addr] = st
	n.mu.Unlock()

	st.wg.Add(1)
	go st.acceptLoop()
	return nil
}

// Deregister stops the listener bound to addr, closes its inbound
// connections and waits for in-flight handlers to drain.
func (n *Network) Deregister(addr node.Addr) {
	n.mu.Lock()
	st, ok := n.listeners[addr]
	if ok {
		delete(n.listeners, addr)
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	st.shutdown()
}

// Client implements transport.Network. All clients share the network's
// per-destination pools; from only labels the client.
func (n *Network) Client(addr node.Addr) transport.Client {
	return &client{net: n, from: addr}
}

// ListenAddr returns the actual address a listener is bound to. Useful when
// registering with port 0 in tests.
func (n *Network) ListenAddr(addr node.Addr) (node.Addr, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.listeners[addr]
	if !ok {
		return "", false
	}
	return node.Addr(st.ln.Addr().String()), true
}

// Stats snapshots the transport counters.
func (n *Network) Stats() Stats {
	return Stats{
		Dials:             n.st.dials.Value(),
		DialErrors:        n.st.dialErrors.Value(),
		Requests:          n.st.requests.Value(),
		StaleRetries:      n.st.staleRetries.Value(),
		OpenConns:         n.st.openConns.Value(),
		BestEffortQueued:  n.st.bestEffortQueued.Value(),
		BestEffortDropped: n.st.bestEffortDropped.Value(),
		AcceptedConns:     n.st.acceptedConns.Value(),
		AcceptErrors:      n.st.acceptErrors.Value(),
	}
}

// Close tears the whole transport down: every listener, every pooled
// connection, and the best-effort worker pool. The network cannot be reused
// afterwards. Safe to call more than once.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	listeners := make([]*listenerState, 0, len(n.listeners))
	for addr, st := range n.listeners {
		delete(n.listeners, addr)
		listeners = append(listeners, st)
	}
	pools := make([]*pool, 0, len(n.pools))
	for addr, pl := range n.pools {
		delete(n.pools, addr)
		pools = append(pools, pl)
	}
	close(n.beCh)
	n.mu.Unlock()

	for _, st := range listeners {
		st.shutdown()
	}
	for _, pl := range pools {
		pl.closeAll()
	}
	n.beWG.Wait()
}

// beTask is one queued best-effort send.
type beTask struct {
	to  node.Addr
	req *remoting.Request
}

// bestEffortWorker drains the bounded queue; each delivery is a one-way frame
// on the pooled connection, whose outcome is intentionally ignored.
func (n *Network) bestEffortWorker() {
	defer n.beWG.Done()
	for task := range n.beCh {
		ctx, cancel := context.WithTimeout(context.Background(), n.opts.RequestTimeout)
		_, _ = n.send(ctx, ctx, task.to, task.req, true)
		cancel()
	}
}

// pool returns (creating on demand) the connection pool for a destination.
func (n *Network) pool(to node.Addr) *pool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	pl, ok := n.pools[to]
	if !ok {
		pl = newPool(n, to)
		n.pools[to] = pl
	}
	return pl
}

var _ transport.Network = (*Network)(nil)
