// Command centralized demonstrates Rapid-C (§5): a three-node auxiliary
// ensemble is the ground truth for the membership of a managed cluster, the
// way applications commonly use ZooKeeper — but with Rapid's k-ring
// monitoring and multi-process cut detection feeding it.
package main

import (
	"fmt"
	"log"
	"time"

	rapid "repro"
)

func main() {
	net := rapid.NewSimulatedNetwork(rapid.SimulatedNetworkOptions{Seed: 3})
	// Every protocol duration divided by 40: 25 ms probes, 125 ms polls.
	settings := rapid.ScaledSettings(40)

	ensembleAddrs := []rapid.Addr{"ensemble-a:7000", "ensemble-b:7000", "ensemble-c:7000"}
	ensemble, err := rapid.StartEnsemble(ensembleAddrs, settings, net)
	if err != nil {
		log.Fatalf("start ensemble: %v", err)
	}
	fmt.Printf("started a %d-node membership ensemble\n", len(ensemble))

	var members []*rapid.Cluster
	for i := 1; i <= 6; i++ {
		addr := rapid.Addr(fmt.Sprintf("worker-%d:7100", i))
		m, err := rapid.JoinViaEnsemble(addr, ensembleAddrs, settings, net)
		if err != nil {
			log.Fatalf("join %s: %v", addr, err)
		}
		members = append(members, m)
		fmt.Printf("%s joined via the ensemble\n", addr)
	}

	waitFor(func() bool { return ensemble[0].Size() == len(members) })
	fmt.Printf("\nensemble records %d managed members (configuration %x)\n",
		ensemble[0].Size(), ensemble[0].ConfigurationID())

	fmt.Println("crashing worker-3; its k-ring observers report the failure to the ensemble...")
	net.Crash("worker-3:7100")
	waitFor(func() bool { return ensemble[0].Size() == len(members)-1 })
	waitFor(func() bool { return members[0].Size() == len(members)-1 })
	fmt.Printf("ensemble removed the crashed worker; members learned the new view by polling\n")
	fmt.Printf("worker-1 now sees %d members\n", members[0].Size())

	for i, m := range members {
		if i != 2 {
			m.Stop()
		}
	}
	for _, e := range ensemble {
		e.Stop()
	}
}

func waitFor(cond func() bool) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
