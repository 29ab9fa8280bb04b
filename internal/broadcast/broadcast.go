// Package broadcast provides standalone dissemination primitives: a
// best-effort unicast-to-all broadcaster and a fanout gossip broadcaster. The
// membership service (package core), Rapid-C's ensemble included, uses
// neither: its engine returns its sends — the alert batch for every voter,
// vote bitmaps for the K ring subjects — and its driver performs them.
// Neither has a user left in this module; both stay because the frozen
// benchmark times them (broadcast.unicast_flush500_ns,
// broadcast.gossip_flush_ns) and go with the [benchmark] PR that drops those
// rows.
//
// A recipient list is immutable once set: SetMembership hands over a slice
// its caller may share, so UnicastToAll keeps it without a copy and nobody
// writes to it again.
package broadcast

import (
	"math/rand"
	"sync"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// Broadcaster delivers a request to every member of the current membership.
type Broadcaster interface {
	// Broadcast sends req to all current members, best-effort.
	Broadcast(req *remoting.Request)
	// SetMembership replaces the recipient list after a view change. The
	// broadcaster may retain members: neither side writes to it afterwards.
	SetMembership(members []node.Addr)
}

// UnicastToAll sends each broadcast directly to every member. This mirrors
// Rapid's default broadcaster: O(N) messages per broadcast from the sender.
type UnicastToAll struct {
	client transport.Client

	mu      sync.RWMutex
	members []node.Addr
}

// NewUnicastToAll creates a broadcaster sending via the given client.
func NewUnicastToAll(client transport.Client) *UnicastToAll {
	return &UnicastToAll{client: client}
}

// SetMembership implements Broadcaster. members is retained, not copied.
func (b *UnicastToAll) SetMembership(members []node.Addr) {
	b.mu.Lock()
	b.members = members
	b.mu.Unlock()
}

// Broadcast implements Broadcaster.
func (b *UnicastToAll) Broadcast(req *remoting.Request) {
	b.mu.RLock()
	members := b.members
	b.mu.RUnlock()
	for _, m := range members {
		b.client.SendBestEffort(m, req)
	}
}

// Gossip forwards each broadcast to a random fanout subset of the membership;
// receivers are expected to re-broadcast what they had not seen. It reduces
// per-sender cost from O(N) to O(fanout) per hop.
type Gossip struct {
	client transport.Client
	self   node.Addr
	fanout int

	// rngMu guards the rng and the scratch index permutation reused across
	// Broadcast calls, keeping recipient sampling O(fanout) per call with no
	// allocation.
	rngMu   sync.Mutex
	rng     *rand.Rand
	scratch []int

	mu      sync.RWMutex
	members []node.Addr
}

// NewGossip creates a gossip broadcaster with the given fanout (minimum 1).
// The sender's own address is excluded from recipient sampling: the local
// process applies its batches directly, so a self-send would only waste a
// fanout slot.
func NewGossip(client transport.Client, self node.Addr, fanout int, seed int64) *Gossip {
	if fanout < 1 {
		fanout = 1
	}
	return &Gossip{client: client, self: self, fanout: fanout, rng: rand.New(rand.NewSource(seed))}
}

// SetMembership implements Broadcaster. The local address is filtered out
// once here so Broadcast's sampling stays O(fanout).
func (g *Gossip) SetMembership(members []node.Addr) {
	copied := make([]node.Addr, 0, len(members))
	for _, m := range members {
		if m != g.self {
			copied = append(copied, m)
		}
	}
	g.mu.Lock()
	g.members = copied
	g.mu.Unlock()
}

// Broadcast implements Broadcaster: the request is sent to `fanout` members
// chosen uniformly at random (without replacement). Sampling is a partial
// Fisher-Yates over a reused index slice — starting each call from the
// previous call's arrangement still yields a uniform subset, because every
// prefix position is re-drawn — so the cost per call is O(fanout), not O(N).
func (g *Gossip) Broadcast(req *remoting.Request) {
	g.mu.RLock()
	members := g.members
	g.mu.RUnlock()
	n := len(members)
	if n == 0 {
		return
	}
	count := g.fanout
	if count > n {
		count = n
	}
	var targets [16]node.Addr
	picks := targets[:0]
	if count > len(targets) {
		picks = make([]node.Addr, 0, count)
	}
	g.rngMu.Lock()
	if len(g.scratch) != n {
		g.scratch = make([]int, n)
		for i := range g.scratch {
			g.scratch[i] = i
		}
	}
	for i := 0; i < count; i++ {
		j := i + g.rng.Intn(n-i)
		g.scratch[i], g.scratch[j] = g.scratch[j], g.scratch[i]
		picks = append(picks, members[g.scratch[i]])
	}
	g.rngMu.Unlock()
	for _, to := range picks {
		g.client.SendBestEffort(to, req)
	}
}

var _ Broadcaster = (*UnicastToAll)(nil)
var _ Broadcaster = (*Gossip)(nil)
