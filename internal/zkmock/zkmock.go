// Package zkmock models membership management through a logically
// centralized coordination service, the way applications use Apache ZooKeeper
// (§2.1 of the paper): members register ephemeral nodes kept alive by session
// heartbeats, and discover each other by reading the group and registering
// one-shot watches.
//
// The model captures the behaviours the paper measures against:
//
//   - Watch herds: every membership change fires a notification to every
//     watcher, each of which re-reads the full member list and re-registers
//     its watch, so the i-th join triggers i−1 full reads.
//   - Eventually consistent client views: clients observe different
//     sequences of membership sizes while notifications and re-reads race.
//   - Session-expiry based failure detection: a member is removed only when
//     its session times out, regardless of what other members observe. A
//     member whose egress path still works keeps its session alive even if
//     nobody can reach it (the Figure 9 blind spot).
package zkmock

import (
	"bytes"
	"context"
	"encoding/gob"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/transport"
)

const messageKind = "zk"

// message is the wire payload for the ZooKeeper-style protocol.
type message struct {
	Type    string // "register", "heartbeat", "read-watch", "watch-fire", "deregister"
	From    node.Addr
	Members []node.Addr // responses: the full group listing
	Version uint64
}

func encode(m *message) []byte {
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(m)
	return buf.Bytes()
}

func decode(data []byte) (*message, bool) {
	var m message
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, false
	}
	return &m, true
}

func wrap(m *message) *remoting.Request {
	return &remoting.Request{Custom: &remoting.CustomMessage{Kind: messageKind, Data: encode(m)}}
}

func wrapResp(m *message) *remoting.Response {
	return &remoting.Response{Custom: &remoting.CustomMessage{Kind: messageKind, Data: encode(m)}}
}

// RegistryOptions tune the coordination service.
type RegistryOptions struct {
	// SessionTimeout is how long a member may go without heartbeats before
	// its ephemeral registration is expired.
	SessionTimeout time.Duration
	// ExpiryTick is how often sessions are checked.
	ExpiryTick time.Duration
	// Clock supplies time.
	Clock simclock.Clock
}

// DefaultRegistryOptions mirrors common ZooKeeper deployments (10 s sessions).
func DefaultRegistryOptions() RegistryOptions {
	return RegistryOptions{SessionTimeout: 10 * time.Second, ExpiryTick: time.Second, Clock: simclock.NewReal()}
}

// Scaled divides every duration by factor.
func (o RegistryOptions) Scaled(factor float64) RegistryOptions {
	if factor <= 0 {
		return o
	}
	scale := func(d time.Duration) time.Duration {
		s := time.Duration(float64(d) / factor)
		if s < time.Millisecond {
			s = time.Millisecond
		}
		return s
	}
	o.SessionTimeout = scale(o.SessionTimeout)
	o.ExpiryTick = scale(o.ExpiryTick)
	return o
}

// Registry is the coordination service (standing in for a 3-node ensemble).
type Registry struct {
	opts   RegistryOptions
	addr   node.Addr
	net    transport.Network
	client transport.Client
	clock  simclock.Clock

	mu       sync.Mutex
	sessions map[node.Addr]time.Time
	watchers map[node.Addr]bool
	version  uint64
	stopped  bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// StartRegistry boots the coordination service at the given address.
func StartRegistry(addr node.Addr, opts RegistryOptions, net transport.Network) (*Registry, error) {
	if opts.Clock == nil {
		opts.Clock = simclock.NewReal()
	}
	if opts.SessionTimeout <= 0 {
		opts.SessionTimeout = 10 * time.Second
	}
	if opts.ExpiryTick <= 0 {
		opts.ExpiryTick = time.Second
	}
	r := &Registry{
		opts:     opts,
		addr:     addr,
		net:      net,
		client:   net.Client(addr),
		clock:    opts.Clock,
		sessions: make(map[node.Addr]time.Time),
		watchers: make(map[node.Addr]bool),
		stopCh:   make(chan struct{}),
	}
	if err := net.Register(addr, r); err != nil {
		return nil, err
	}
	r.wg.Add(1)
	go r.expiryLoop()
	return r, nil
}

// Stop halts the registry.
func (r *Registry) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
	close(r.stopCh)
	r.wg.Wait()
	r.net.Deregister(r.addr)
}

// Addr returns the registry's address.
func (r *Registry) Addr() node.Addr { return r.addr }

// GroupSize returns the number of registered (non-expired) members.
func (r *Registry) GroupSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// membersLocked returns the sorted group listing.
func (r *Registry) membersLocked() []node.Addr {
	out := make([]node.Addr, 0, len(r.sessions))
	for a := range r.sessions {
		out = append(out, a)
	}
	node.SortAddrs(out)
	return out
}

// fireWatchesLocked notifies every one-shot watcher and clears the watch set
// (this is the herd: every watcher will come back to re-read and re-watch).
func (r *Registry) fireWatchesLocked() {
	watchers := make([]node.Addr, 0, len(r.watchers))
	for w := range r.watchers {
		watchers = append(watchers, w)
	}
	r.watchers = make(map[node.Addr]bool)
	version := r.version
	for _, w := range watchers {
		r.client.SendBestEffort(w, wrap(&message{Type: "watch-fire", From: r.addr, Version: version}))
	}
}

// expiryLoop removes members whose sessions have timed out.
func (r *Registry) expiryLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stopCh:
			return
		case <-r.clock.After(r.opts.ExpiryTick):
		}
		now := r.clock.Now()
		r.mu.Lock()
		expired := false
		for a, last := range r.sessions {
			if now.Sub(last) >= r.opts.SessionTimeout {
				delete(r.sessions, a)
				expired = true
			}
		}
		if expired {
			r.version++
			r.fireWatchesLocked()
		}
		r.mu.Unlock()
	}
}

// HandleRequest implements transport.Handler for the registry.
func (r *Registry) HandleRequest(_ context.Context, _ node.Addr, req *remoting.Request) (*remoting.Response, error) {
	if req == nil || req.Custom == nil || req.Custom.Kind != messageKind {
		return remoting.AckResponse(), nil
	}
	m, ok := decode(req.Custom.Data)
	if !ok {
		return remoting.AckResponse(), nil
	}
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	switch m.Type {
	case "register":
		if _, exists := r.sessions[m.From]; !exists {
			r.sessions[m.From] = now
			r.version++
			r.fireWatchesLocked()
		} else {
			r.sessions[m.From] = now
		}
		return wrapResp(&message{Type: "ok", Version: r.version}), nil
	case "deregister":
		if _, exists := r.sessions[m.From]; exists {
			delete(r.sessions, m.From)
			r.version++
			r.fireWatchesLocked()
		}
		return wrapResp(&message{Type: "ok", Version: r.version}), nil
	case "heartbeat":
		if _, exists := r.sessions[m.From]; exists {
			r.sessions[m.From] = now
		}
		return wrapResp(&message{Type: "ok", Version: r.version}), nil
	case "read-watch":
		r.watchers[m.From] = true
		return wrapResp(&message{Type: "listing", Members: r.membersLocked(), Version: r.version}), nil
	default:
		return remoting.AckResponse(), nil
	}
}

var _ transport.Handler = (*Registry)(nil)

// ClientOptions tune a member agent.
type ClientOptions struct {
	// HeartbeatInterval is the session keepalive period.
	HeartbeatInterval time.Duration
	// ReadTimeout bounds registry RPCs.
	ReadTimeout time.Duration
	// Clock supplies time.
	Clock simclock.Clock
}

// DefaultClientOptions uses a heartbeat of one third of the default session.
func DefaultClientOptions() ClientOptions {
	return ClientOptions{HeartbeatInterval: 3 * time.Second, ReadTimeout: 2 * time.Second, Clock: simclock.NewReal()}
}

// Scaled divides every duration by factor.
func (o ClientOptions) Scaled(factor float64) ClientOptions {
	if factor <= 0 {
		return o
	}
	scale := func(d time.Duration) time.Duration {
		s := time.Duration(float64(d) / factor)
		if s < time.Millisecond {
			s = time.Millisecond
		}
		return s
	}
	o.HeartbeatInterval = scale(o.HeartbeatInterval)
	o.ReadTimeout = scale(o.ReadTimeout)
	return o
}

// Client is a member agent: it registers itself, heartbeats, and maintains a
// watched view of the group.
type Client struct {
	opts     ClientOptions
	addr     node.Addr
	registry node.Addr
	net      transport.Network
	client   transport.Client
	clock    simclock.Clock

	mu       sync.Mutex
	members  []node.Addr
	version  uint64 // registry version of members
	reads    int
	onChange []func(members []node.Addr)
	stopped  bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// StartClient registers a member with the registry and begins heartbeating
// and watching the group.
func StartClient(addr node.Addr, registry node.Addr, opts ClientOptions, net transport.Network) (*Client, error) {
	if opts.Clock == nil {
		opts.Clock = simclock.NewReal()
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 3 * time.Second
	}
	if opts.ReadTimeout <= 0 {
		opts.ReadTimeout = 2 * time.Second
	}
	c := &Client{
		opts:     opts,
		addr:     addr,
		registry: registry,
		net:      net,
		client:   net.Client(addr),
		clock:    opts.Clock,
		stopCh:   make(chan struct{}),
	}
	if err := net.Register(addr, c); err != nil {
		return nil, err
	}
	c.call(&message{Type: "register", From: addr})
	c.readAndWatch()
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c, nil
}

// Stop halts the client and removes its registration.
func (c *Client) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	c.call(&message{Type: "deregister", From: c.addr})
	close(c.stopCh)
	c.wg.Wait()
	c.net.Deregister(c.addr)
}

// Addr returns the client's address.
func (c *Client) Addr() node.Addr { return c.addr }

// NumAlive returns the size of the group as last read from the registry.
func (c *Client) NumAlive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.members)
}

// Reads returns how many full group reads this client has performed (a proxy
// for the herd cost).
func (c *Client) Reads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads
}

// OnChange registers a callback invoked with the member list after every read.
func (c *Client) OnChange(cb func(members []node.Addr)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onChange = append(c.onChange, cb)
}

func (c *Client) call(m *message) (*message, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ReadTimeout)
	defer cancel()
	resp, err := c.client.Send(ctx, c.registry, wrap(m))
	if err != nil || resp == nil || resp.Custom == nil {
		return nil, false
	}
	return decode(resp.Custom.Data)
}

// readAndWatch performs the read + watch re-registration cycle.
func (c *Client) readAndWatch() {
	resp, ok := c.call(&message{Type: "read-watch", From: c.addr})
	if !ok || resp.Type != "listing" {
		return
	}
	c.mu.Lock()
	c.reads++
	if resp.Version < c.version {
		// Two watch fires are served by two concurrent reads, and their
		// responses may land in either order: an older listing must not
		// overwrite a newer one, or the view stays stale for good (the watch
		// the newer read re-registered never fires again).
		c.mu.Unlock()
		return
	}
	c.members, c.version = resp.Members, resp.Version
	callbacks := make([]func([]node.Addr), len(c.onChange))
	copy(callbacks, c.onChange)
	members := append([]node.Addr(nil), resp.Members...)
	c.mu.Unlock()
	for _, cb := range callbacks {
		cb(members)
	}
}

func (c *Client) heartbeatLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopCh:
			return
		case <-c.clock.After(c.opts.HeartbeatInterval):
		}
		c.call(&message{Type: "heartbeat", From: c.addr})
	}
}

// HandleRequest implements transport.Handler: the client only reacts to watch
// notifications, by re-reading the group and re-registering its watch.
func (c *Client) HandleRequest(_ context.Context, _ node.Addr, req *remoting.Request) (*remoting.Response, error) {
	if req == nil || req.Custom == nil || req.Custom.Kind != messageKind {
		return remoting.AckResponse(), nil
	}
	m, ok := decode(req.Custom.Data)
	if !ok || m.Type != "watch-fire" {
		return remoting.AckResponse(), nil
	}
	c.mu.Lock()
	stopped := c.stopped
	c.mu.Unlock()
	if !stopped {
		c.readAndWatch()
	}
	return remoting.AckResponse(), nil
}

var _ transport.Handler = (*Client)(nil)
