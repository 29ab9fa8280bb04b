// Command rapid-node runs a standalone Rapid membership agent over TCP. The
// first node of a cluster is started without --join; every other node joins
// through one or more seed addresses. View changes are logged as they are
// installed, and SIGINT/SIGTERM triggers a graceful leave.
//
// With --status-addr the agent also serves a JSON status document over HTTP
// (GET /status): its configuration ID, reported size, the phase-2 join
// requests it gave up on after JoinPhase2Timeout (0 on a healthy cluster), and
// the TCP transport's dial/request/drop counters. cmd/rapid-fleet polls this
// endpoint to drive and verify real-process loopback fleets.
//
// Example:
//
//	rapid-node --listen 10.0.0.1:5000
//	rapid-node --listen 10.0.0.2:5000 --join 10.0.0.1:5000 --metadata role=backend
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	rapid "repro"
	"repro/internal/node"
)

// leaveDrain is how long a leaving agent keeps its transport up after Leave.
// The announcement is not batched: Leave hands one message per member to the
// transport's best-effort queue and returns, so this only waits for that
// queue to drain before Stop closes the connections under it.
const leaveDrain = 200 * time.Millisecond

// status is the JSON document served on /status.
type status struct {
	Addr            string                `json:"addr"`
	State           string                `json:"state"` // starting | running | left
	ConfigurationID string                `json:"configuration_id,omitempty"`
	Size            int                   `json:"size"`
	JoinsTimedOut   int64                 `json:"joins_timed_out"` // EngineStats.JoinsTimedOut
	Transport       rapid.TCPNetworkStats `json:"transport"`
}

// statusServer publishes the agent's state for fleet runners; the cluster
// handle is attached once the join completes.
type statusServer struct {
	addr string
	net  *rapid.TCPNetwork

	mu      sync.Mutex
	cluster *rapid.Cluster
	state   string
}

func (s *statusServer) setCluster(c *rapid.Cluster) {
	s.mu.Lock()
	s.cluster = c
	s.state = "running"
	s.mu.Unlock()
}

func (s *statusServer) setState(state string) {
	s.mu.Lock()
	s.state = state
	s.mu.Unlock()
}

func (s *statusServer) serve(listen string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		st := status{Addr: s.addr, State: s.state, Transport: s.net.Stats()}
		if s.cluster != nil {
			st.ConfigurationID = fmt.Sprintf("%x", s.cluster.ConfigurationID())
			st.Size = s.cluster.Size()
			st.JoinsTimedOut = s.cluster.Stats().JoinsTimedOut
		}
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	if err := http.ListenAndServe(listen, mux); err != nil {
		log.Printf("status server: %v", err)
	}
}

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:5000", "host:port this agent listens on")
		join       = flag.String("join", "", "comma-separated seed addresses (empty = bootstrap a new cluster)")
		metadata   = flag.String("metadata", "", "comma-separated key=value pairs attached to this process")
		interval   = flag.Duration("probe-interval", time.Second, "edge failure detector probe interval")
		statusAddr = flag.String("status-addr", "", "host:port for the HTTP /status endpoint (empty = disabled)")
		idle       = flag.Duration("idle-timeout", 0, "close pooled/inbound TCP connections idle this long (0 = default 60s)")
		joinWait   = flag.Duration("join-deadline", 2*time.Minute, "keep retrying the cluster join until this deadline")
	)
	flag.Parse()

	// The library seeds its ID generator deterministically so simulations are
	// reproducible; a real process must draw identifiers no other process will.
	if err := node.SeedIDGeneratorFromEntropy(); err != nil {
		log.Fatalf("seeding ID generator: %v", err)
	}

	settings := rapid.DefaultSettings()
	settings.ProbeInterval = *interval
	settings.ProbeTimeout = *interval / 2
	if md := parseMetadata(*metadata); len(md) > 0 {
		settings.Metadata = md
	}

	net, err := rapid.NewTCPNetwork(rapid.TCPNetworkOptions{IdleTimeout: *idle})
	if err != nil {
		log.Fatalf("transport options: %v", err)
	}
	defer net.Close()
	addr := rapid.Addr(*listen)

	var srv *statusServer
	if *statusAddr != "" {
		srv = &statusServer{addr: *listen, net: net, state: "starting"}
		go srv.serve(*statusAddr)
	}

	var cluster *rapid.Cluster
	if *join == "" {
		log.Printf("bootstrapping a new cluster on %s", addr)
		cluster, err = rapid.StartCluster(addr, settings, net)
	} else {
		seeds := parseSeeds(*join)
		log.Printf("joining via seeds %v", seeds)
		// Join storms make individual join sequences fail legitimately (the
		// configuration changes while this joiner's proposal is in flight), so
		// keep retrying with jittered backoff until the deadline.
		deadline := time.Now().Add(*joinWait)
		backoff := 250 * time.Millisecond
		for {
			cluster, err = rapid.JoinCluster(addr, seeds, settings, net)
			if err == nil || time.Now().After(deadline) {
				break
			}
			wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
			log.Printf("join attempt failed: %v; retrying in %v", err, wait.Round(time.Millisecond))
			time.Sleep(wait)
			if backoff < 4*time.Second {
				backoff *= 2
			}
		}
	}
	if err != nil {
		log.Fatalf("failed to start: %v", err)
	}
	log.Printf("member of configuration %x with %d nodes", cluster.ConfigurationID(), cluster.Size())
	if srv != nil {
		srv.setCluster(cluster)
	}

	cluster.Subscribe(func(vc rapid.ViewChange) {
		var joined, removed []string
		for _, ch := range vc.Changes {
			if ch.Joined {
				joined = append(joined, string(ch.Endpoint.Addr))
			} else {
				removed = append(removed, string(ch.Endpoint.Addr))
			}
		}
		log.Printf("view change: configuration %x, %d members (joined: %v, removed: %v)",
			vc.ConfigurationID, len(vc.Members), joined, removed)
	})

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("leaving the cluster...")
	if srv != nil {
		srv.setState("left")
	}
	cluster.Leave()
	time.Sleep(leaveDrain)
	cluster.Stop()
	fmt.Println("stopped")
}

func parseSeeds(s string) []rapid.Addr {
	var out []rapid.Addr
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, rapid.Addr(part))
		}
	}
	return out
}

func parseMetadata(s string) map[string]string {
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) == 2 {
			out[kv[0]] = kv[1]
		}
	}
	return out
}
