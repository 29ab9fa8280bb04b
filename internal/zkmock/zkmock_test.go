package zkmock

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simnet"
)

const registryAddr = node.Addr("zk:2181")

func regOpts() RegistryOptions { return DefaultRegistryOptions().Scaled(50) }
func cliOpts() ClientOptions   { return DefaultClientOptions().Scaled(50) }
func caddr(i int) node.Addr    { return node.Addr(fmt.Sprintf("zkc-%02d:1", i)) }

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

func TestRegisterAndDiscover(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 1})
	reg, err := StartRegistry(registryAddr, regOpts(), net)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	const n = 5
	var clients []*Client
	for i := 0; i < n; i++ {
		c, err := StartClient(caddr(i), registryAddr, cliOpts(), net)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	defer func() {
		for _, c := range clients {
			c.Stop()
		}
	}()
	if reg.GroupSize() != n {
		t.Fatalf("registry group size = %d, want %d", reg.GroupSize(), n)
	}
	if !waitUntil(t, 10*time.Second, func() bool {
		for _, c := range clients {
			if c.NumAlive() != n {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("clients did not converge to group size %d", n)
	}
}

func TestWatchHerdOnJoins(t *testing.T) {
	// The i-th registration fires a watch at each of the i-1 existing
	// watchers, each of which re-reads the group: the total number of reads
	// grows quadratically with the group size (the documented ZooKeeper herd).
	net := simnet.New(simnet.Options{Seed: 2})
	reg, err := StartRegistry(registryAddr, regOpts(), net)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	const n = 8
	var clients []*Client
	for i := 0; i < n; i++ {
		c, err := StartClient(caddr(i), registryAddr, cliOpts(), net)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	defer func() {
		for _, c := range clients {
			c.Stop()
		}
	}()
	waitUntil(t, 10*time.Second, func() bool {
		for _, c := range clients {
			if c.NumAlive() != n {
				return false
			}
		}
		return true
	})
	totalReads := 0
	for _, c := range clients {
		totalReads += c.Reads()
	}
	// Each client does one initial read; the herd adds re-reads at every
	// registration (watch notifications can coalesce, so we only require
	// clear evidence of herd re-reads beyond the n initial reads).
	if totalReads < n+n/2 {
		t.Fatalf("expected a watch herd (many re-reads), got only %d total reads", totalReads)
	}
}

func TestSessionExpiryRemovesSilentMember(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 3})
	reg, err := StartRegistry(registryAddr, regOpts(), net)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	c0, err := StartClient(caddr(0), registryAddr, cliOpts(), net)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Stop()
	c1, err := StartClient(caddr(1), registryAddr, cliOpts(), net)
	if err != nil {
		t.Fatal(err)
	}
	if reg.GroupSize() != 2 {
		t.Fatalf("group size = %d, want 2", reg.GroupSize())
	}
	// Crash client 1: its heartbeats stop and its session expires.
	net.Crash(c1.Addr())
	if !waitUntil(t, 20*time.Second, func() bool { return reg.GroupSize() == 1 }) {
		t.Fatal("silent member's session never expired")
	}
	if !waitUntil(t, 10*time.Second, func() bool { return c0.NumAlive() == 1 }) {
		t.Fatal("surviving client was not notified of the expiry")
	}
}

func TestIngressBlockedClientKeepsSessionAlive(t *testing.T) {
	// The Figure 9 blind spot: a client that cannot receive any packets keeps
	// its registration because its outgoing heartbeats still reach the
	// registry, so ZooKeeper-style membership does not react at all.
	net := simnet.New(simnet.Options{Seed: 4})
	reg, err := StartRegistry(registryAddr, regOpts(), net)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	c0, err := StartClient(caddr(0), registryAddr, cliOpts(), net)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Stop()
	c1, err := StartClient(caddr(1), registryAddr, cliOpts(), net)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Stop()
	net.SetIngressLoss(c1.Addr(), 1.0)
	// Wait for several session timeouts; the victim must still be registered.
	time.Sleep(5 * regOpts().SessionTimeout)
	if reg.GroupSize() != 2 {
		t.Fatalf("registry removed a member that still sends heartbeats: size=%d", reg.GroupSize())
	}
}

// scriptedRegistry answers each read-watch with the next scripted listing.
type scriptedRegistry struct{ listings []*message }

func (s *scriptedRegistry) HandleRequest(_ context.Context, _ node.Addr, req *remoting.Request) (*remoting.Response, error) {
	if m, ok := decode(req.Custom.Data); ok && m.Type == "read-watch" && len(s.listings) > 0 {
		next := s.listings[0]
		s.listings = s.listings[1:]
		return wrapResp(next), nil
	}
	return wrapResp(&message{Type: "ok"}), nil
}

// TestOlderListingDoesNotOverwriteNewer: two watch fires are served by two
// concurrent reads whose responses may land in either order. When the older
// listing landed last it used to win, and the client's view stayed one member
// short for good (TestLaunchZooKeeperFleetConverges failed about 1 run in 30).
func TestOlderListingDoesNotOverwriteNewer(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 1})
	defer net.Close()
	three := []node.Addr{caddr(0), caddr(1), caddr(2)}
	reg := &scriptedRegistry{listings: []*message{
		{Type: "listing", Members: three, Version: 3},
		{Type: "listing", Members: three[:2], Version: 2},
	}}
	if err := net.Register(registryAddr, reg); err != nil {
		t.Fatal(err)
	}
	c, err := StartClient(caddr(0), registryAddr, cliOpts(), net) // applies version 3
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.readAndWatch() // the version 2 response lands late
	if got := c.NumAlive(); got != 3 {
		t.Fatalf("after a stale listing landed last the client sees %d members, want 3", got)
	}
	if c.Reads() != 2 {
		t.Fatalf("reads = %d, want 2 (a stale read still costs the registry a read)", c.Reads())
	}
}
