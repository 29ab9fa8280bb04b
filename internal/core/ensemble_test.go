package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/simnet"
)

// --- Rapid-C: an ensemble of engines manages a cluster of engines -----------------

func ensembleAddrs() []node.Addr {
	return []node.Addr{"ens-a:1", "ens-b:1", "ens-c:1"}
}

func memberAddr(i int) node.Addr { return node.Addr(fmt.Sprintf("member-%02d:1", i)) }

// startEnsemble boots the test ensemble on net and stops it when the test ends.
func startEnsemble(t *testing.T, net *simnet.Network) []*Cluster {
	t.Helper()
	ensemble, err := StartEnsemble(ensembleAddrs(), testSettings(), net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stopAll(ensemble) })
	return ensemble
}

// joinEnsemble joins n members through the ensemble, one after the other,
// and stops them when the test ends.
func joinEnsemble(t *testing.T, net *simnet.Network, n int) []*Cluster {
	t.Helper()
	var members []*Cluster
	t.Cleanup(func() { stopAll(members) })
	for i := 0; i < n; i++ {
		m, err := JoinViaEnsemble(memberAddr(i), ensembleAddrs(), testSettings(), net)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		members = append(members, m)
	}
	return members
}

func TestEnsembleBootAndJoin(t *testing.T) {
	node.SeedIDGenerator(101)
	net := simnet.New(simnet.Options{Seed: 1})
	ensemble := startEnsemble(t, net)
	const n = 6
	members := joinEnsemble(t, net, n)

	if !waitUntil(t, 20*time.Second, func() bool {
		for _, e := range ensemble {
			if e.Size() != n {
				return false
			}
		}
		for _, m := range members {
			if m.Size() != n {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("ensemble/members did not converge: ensemble=%d members[0]=%d",
			ensemble[0].Size(), members[0].Size())
	}

	// All ensemble members agree on the configuration.
	cfg := ensemble[0].ConfigurationID()
	for _, e := range ensemble {
		if e.ConfigurationID() != cfg {
			t.Fatal("ensemble members disagree on the configuration")
		}
	}
	for _, m := range members {
		if m.ConfigurationID() != cfg {
			t.Fatal("a member holds a configuration different from the ensemble's")
		}
	}
}

func TestEnsembleRemovesCrashedMember(t *testing.T) {
	node.SeedIDGenerator(102)
	net := simnet.New(simnet.Options{Seed: 2})
	ensemble := startEnsemble(t, net)
	const n = 8
	members := joinEnsemble(t, net, n)
	if !waitUntil(t, 20*time.Second, func() bool { return ensemble[0].Size() == n }) {
		t.Fatal("cluster did not form")
	}

	victim := members[3]
	net.Crash(victim.Addr())

	if !waitUntil(t, 30*time.Second, func() bool {
		for _, e := range ensemble {
			if e.Size() != n-1 {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("ensemble did not remove the crashed member: size=%d", ensemble[0].Size())
	}
	// Other members learn the new view through polling.
	if !waitUntil(t, 10*time.Second, func() bool {
		for i, m := range members {
			if i == 3 {
				continue
			}
			if m.Size() != n-1 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("surviving members did not learn the new configuration")
	}
}

func TestEnsembleGracefulLeave(t *testing.T) {
	node.SeedIDGenerator(103)
	net := simnet.New(simnet.Options{Seed: 3})
	ensemble := startEnsemble(t, net)
	const n = 4
	members := joinEnsemble(t, net, n)
	if !waitUntil(t, 20*time.Second, func() bool { return ensemble[0].Size() == n }) {
		t.Fatal("cluster did not form")
	}
	members[n-1].Leave()
	if !waitUntil(t, 20*time.Second, func() bool { return ensemble[0].Size() == n-1 }) {
		t.Fatal("graceful leave was not applied by the ensemble")
	}
}

func TestMemberSubscriberNotified(t *testing.T) {
	node.SeedIDGenerator(104)
	net := simnet.New(simnet.Options{Seed: 4})
	startEnsemble(t, net)
	first := joinEnsemble(t, net, 1)[0]

	notified := make(chan int, 16)
	first.Subscribe(func(vc ViewChange) {
		notified <- len(vc.Members)
	})
	second, err := JoinViaEnsemble(memberAddr(1), ensembleAddrs(), testSettings(), net)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Stop()

	deadline := time.After(20 * time.Second)
	for {
		select {
		case n := <-notified:
			if n == 2 {
				return
			}
		case <-deadline:
			t.Fatal("first member was never notified of the second member joining")
		}
	}
}
