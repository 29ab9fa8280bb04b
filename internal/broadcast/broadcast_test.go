package broadcast

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// recordingClient captures best-effort sends for inspection.
type recordingClient struct {
	mu    sync.Mutex
	sends []node.Addr
}

func (c *recordingClient) Send(_ context.Context, to node.Addr, _ *remoting.Request) (*remoting.Response, error) {
	c.mu.Lock()
	c.sends = append(c.sends, to)
	c.mu.Unlock()
	return remoting.AckResponse(), nil
}

func (c *recordingClient) SendBestEffort(to node.Addr, _ *remoting.Request) {
	c.mu.Lock()
	c.sends = append(c.sends, to)
	c.mu.Unlock()
}

func (c *recordingClient) sent() []node.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]node.Addr, len(c.sends))
	copy(out, c.sends)
	return out
}

var _ transport.Client = (*recordingClient)(nil)

func members(n int) []node.Addr {
	out := make([]node.Addr, n)
	for i := range out {
		out[i] = node.Addr(string(rune('a'+i)) + ":1")
	}
	return out
}

func TestUnicastToAllSendsToEveryMember(t *testing.T) {
	cl := &recordingClient{}
	b := NewUnicastToAll(cl)
	b.SetMembership(members(5))
	b.Broadcast(&remoting.Request{Leave: &remoting.LeaveMessage{}})
	got := cl.sent()
	if len(got) != 5 {
		t.Fatalf("broadcast reached %d members, want 5", len(got))
	}
	seen := make(map[node.Addr]bool)
	for _, a := range got {
		seen[a] = true
	}
	if len(seen) != 5 {
		t.Fatalf("broadcast had duplicate destinations: %v", got)
	}
}

func TestUnicastToAllEmptyMembershipIsNoop(t *testing.T) {
	cl := &recordingClient{}
	b := NewUnicastToAll(cl)
	b.Broadcast(&remoting.Request{})
	if len(cl.sent()) != 0 {
		t.Fatal("broadcast with no membership should send nothing")
	}
}

// TestUnicastToAllSetMembershipRetainsTheSlice: a recipient list is shared
// with the rest of a configuration's consumers and immutable, so the
// broadcaster keeps it as it is — an N-address copy per member per view change
// is what this replaced.
func TestUnicastToAllSetMembershipRetainsTheSlice(t *testing.T) {
	cl := &recordingClient{}
	b := NewUnicastToAll(cl)
	m := members(500)
	if allocs := testing.AllocsPerRun(10, func() { b.SetMembership(m) }); allocs != 0 {
		t.Fatalf("SetMembership allocates %.0f times, want 0", allocs)
	}
	b.Broadcast(&remoting.Request{})
	if got := cl.sent(); !slices.Equal(got, m) {
		t.Fatal("the retained recipient list is not the one that was set")
	}
}

func TestUnicastToAllMembershipReplacedOnViewChange(t *testing.T) {
	cl := &recordingClient{}
	b := NewUnicastToAll(cl)
	b.SetMembership(members(5))
	b.SetMembership(members(2))
	b.Broadcast(&remoting.Request{})
	if len(cl.sent()) != 2 {
		t.Fatalf("broadcast after view change reached %d members, want 2", len(cl.sent()))
	}
}

func TestGossipFanoutRespected(t *testing.T) {
	cl := &recordingClient{}
	g := NewGossip(cl, "self:0", 3, 1)
	g.SetMembership(members(10))
	g.Broadcast(&remoting.Request{})
	if len(cl.sent()) != 3 {
		t.Fatalf("gossip broadcast sent %d messages, want fanout 3", len(cl.sent()))
	}
}

func TestGossipFanoutLargerThanMembership(t *testing.T) {
	cl := &recordingClient{}
	g := NewGossip(cl, "self:0", 10, 1)
	g.SetMembership(members(4))
	g.Broadcast(&remoting.Request{})
	if len(cl.sent()) != 4 {
		t.Fatalf("gossip should cap fanout at membership size, sent %d", len(cl.sent()))
	}
}

func TestGossipMinimumFanout(t *testing.T) {
	cl := &recordingClient{}
	g := NewGossip(cl, "self:0", 0, 1)
	g.SetMembership(members(4))
	g.Broadcast(&remoting.Request{})
	if len(cl.sent()) != 1 {
		t.Fatalf("fanout below 1 should be clamped to 1, sent %d", len(cl.sent()))
	}
}

func TestGossipEmptyMembership(t *testing.T) {
	cl := &recordingClient{}
	g := NewGossip(cl, "self:0", 3, 1)
	g.Broadcast(&remoting.Request{})
	if len(cl.sent()) != 0 {
		t.Fatal("gossip with no members should send nothing")
	}
}

func TestGossipTargetsDistinct(t *testing.T) {
	cl := &recordingClient{}
	g := NewGossip(cl, "self:0", 5, 99)
	g.SetMembership(members(20))
	g.Broadcast(&remoting.Request{})
	seen := make(map[node.Addr]bool)
	for _, a := range cl.sent() {
		if seen[a] {
			t.Fatalf("gossip chose the same target twice: %v", a)
		}
		seen[a] = true
	}
}
