package rapid_test

import (
	"sync/atomic"
	"testing"
	"time"

	rapid "repro"
	"repro/internal/edgefd"
)

// TestPublicAPIQuickstart exercises the facade exactly the way README's
// quickstart does: bootstrap, join, subscribe, crash, converge.
func TestPublicAPIQuickstart(t *testing.T) {
	net := rapid.NewSimulatedNetwork(rapid.SimulatedNetworkOptions{Seed: 21})
	settings := rapid.ScaledSettings(50)

	seed, err := rapid.StartCluster("api-0:4000", settings, net)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer seed.Stop()

	viewChanges := make(chan rapid.ViewChange, 16)
	seed.Subscribe(func(vc rapid.ViewChange) { viewChanges <- vc })

	var members []*rapid.Cluster
	for _, addr := range []rapid.Addr{"api-1:4000", "api-2:4000", "api-3:4000"} {
		m, err := rapid.JoinCluster(addr, []rapid.Addr{"api-0:4000"}, settings, net)
		if err != nil {
			t.Fatalf("JoinCluster(%s): %v", addr, err)
		}
		members = append(members, m)
	}
	defer func() {
		for _, m := range members {
			m.Stop()
		}
	}()

	waitFor(t, func() bool { return seed.Size() == 4 })
	select {
	case vc := <-viewChanges:
		if len(vc.Members) == 0 {
			t.Fatal("view change carried no members")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no view change delivered to the subscriber")
	}

	// All handles agree on the configuration.
	cfg := seed.ConfigurationID()
	for _, m := range members {
		waitFor(t, func() bool { return m.ConfigurationID() == cfg })
	}

	// Crash one member; the rest converge to 3.
	net.Crash(members[2].Addr())
	waitFor(t, func() bool {
		return seed.Size() == 3 && members[0].Size() == 3 && members[1].Size() == 3
	})
}

// TestPublicAPIFailureDetectorPlugins verifies that an edge failure detector
// of the application's own can be plugged into Settings (§4.1): it judges
// every probe, and its verdict removes a crashed member.
func TestPublicAPIFailureDetectorPlugins(t *testing.T) {
	net := rapid.NewSimulatedNetwork(rapid.SimulatedNetworkOptions{Seed: 22})
	settings := rapid.ScaledSettings(50)
	// An edge is faulty on its third failed probe in a row.
	var judged atomic.Int64
	settings.FailureDetector = func() edgefd.Judge {
		streak := 0
		return func(ok bool, _ time.Time) bool {
			judged.Add(1)
			if ok {
				streak = 0
			} else {
				streak++
			}
			return streak >= 3
		}
	}

	seed, err := rapid.StartCluster("fd-0:4000", settings, net)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()
	peer1, err := rapid.JoinCluster("fd-1:4000", []rapid.Addr{"fd-0:4000"}, settings, net)
	if err != nil {
		t.Fatal(err)
	}
	defer peer1.Stop()
	peer2, err := rapid.JoinCluster("fd-2:4000", []rapid.Addr{"fd-0:4000"}, settings, net)
	if err != nil {
		t.Fatal(err)
	}
	defer peer2.Stop()
	waitFor(t, func() bool { return seed.Size() == 3 })

	// Crash one member. With one of three members gone the fast path cannot
	// form its ¾ quorum, so this also exercises the classical Paxos fallback.
	net.Crash(peer2.Addr())
	waitFor(t, func() bool { return seed.Size() == 2 && peer1.Size() == 2 })
	if judged.Load() == 0 {
		t.Fatal("the plugged-in detector judged no probe")
	}
}

// TestPublicAPICentralizedMode exercises Rapid-C through the facade.
func TestPublicAPICentralizedMode(t *testing.T) {
	net := rapid.NewSimulatedNetwork(rapid.SimulatedNetworkOptions{Seed: 23})
	settings := rapid.ScaledSettings(50)
	ensemble, err := rapid.StartEnsemble([]rapid.Addr{"e-a:1", "e-b:1", "e-c:1"}, settings, net)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range ensemble {
			e.Stop()
		}
	}()
	m1, err := rapid.JoinViaEnsemble("w-1:1", []rapid.Addr{"e-a:1", "e-b:1", "e-c:1"}, settings, net)
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Stop()
	m2, err := rapid.JoinViaEnsemble("w-2:1", []rapid.Addr{"e-a:1", "e-b:1", "e-c:1"}, settings, net)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	waitFor(t, func() bool { return ensemble[0].Size() == 2 && m1.Size() == 2 })
}

// TestPublicAPIOverTCP runs a two-node cluster over the real TCP transport.
func TestPublicAPIOverTCP(t *testing.T) {
	net, err := rapid.NewTCPNetwork(rapid.TCPNetworkOptions{})
	if err != nil {
		t.Fatalf("NewTCPNetwork: %v", err)
	}
	defer net.Close()
	settings := rapid.ScaledSettings(20)

	seed, err := rapid.StartCluster("127.0.0.1:39801", settings, net)
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer seed.Stop()
	peer, err := rapid.JoinCluster("127.0.0.1:39802", []rapid.Addr{"127.0.0.1:39801"}, settings, net)
	if err != nil {
		t.Fatalf("TCP join failed: %v", err)
	}
	defer peer.Stop()
	waitFor(t, func() bool { return seed.Size() == 2 && peer.Size() == 2 })
	if seed.ConfigurationID() != peer.ConfigurationID() {
		t.Fatal("TCP cluster members disagree on the configuration")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !cond() {
		t.Fatal("condition never became true")
	}
}
