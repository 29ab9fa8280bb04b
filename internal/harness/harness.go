// Package harness boots whole clusters of membership agents — Rapid, Rapid-C,
// the SWIM/Memberlist baseline and the ZooKeeper-style baseline — inside one
// process on the simulated network, injects the paper's failure scenarios,
// and records the per-node time series of reported cluster sizes that the
// evaluation figures are drawn from.
//
// A Fleet owns the simulated network (including its delivery shards, sized
// via Options.SimnetShards and released by Stop), launches every member
// through the paper's bootstrap-storm workload (all joins at once unless
// Options.JoinConcurrency bounds them), samples each agent's reported size on
// a fixed interval, and retains per-member join-call latencies for the
// Figure 5 percentiles. Fleets of 1000–2000 Rapid agents are routine. The
// fault vocabulary lives here too: Fault names every failure scenario and
// Fleet.Inject installs one, so experiments.RunScenarioCell and cmd/rapid-sim
// spell a fault the same way.
package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/centralized"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/swim"
	"repro/internal/zkmock"
)

// System identifies which membership implementation a fleet runs.
type System string

// The systems compared throughout the paper's evaluation.
const (
	SystemRapid      System = "rapid"
	SystemRapidC     System = "rapid-c"
	SystemMemberlist System = "memberlist"
	SystemZooKeeper  System = "zookeeper"
)

// Agent is the minimal surface the harness needs from any membership agent.
type Agent interface {
	// Addr is the agent's address.
	Addr() node.Addr
	// ReportedSize is the cluster size this agent currently believes in.
	ReportedSize() int
	// Stop shuts the agent down.
	Stop()
}

// --- adapters ----------------------------------------------------------------

type rapidAgent struct{ c *core.Cluster }

func (a rapidAgent) Addr() node.Addr   { return a.c.Addr() }
func (a rapidAgent) ReportedSize() int { return a.c.Size() }
func (a rapidAgent) Stop()             { a.c.Stop() }

type rapidCAgent struct{ m *centralized.Member }

func (a rapidCAgent) Addr() node.Addr   { return a.m.Addr() }
func (a rapidCAgent) ReportedSize() int { return a.m.Size() }
func (a rapidCAgent) Stop()             { a.m.Stop() }

type swimAgent struct{ n *swim.Node }

func (a swimAgent) Addr() node.Addr   { return a.n.Addr() }
func (a swimAgent) ReportedSize() int { return a.n.NumAlive() }
func (a swimAgent) Stop()             { a.n.Stop() }

type zkAgent struct{ c *zkmock.Client }

func (a zkAgent) Addr() node.Addr   { return a.c.Addr() }
func (a zkAgent) ReportedSize() int { return a.c.NumAlive() }
func (a zkAgent) Stop()             { a.c.Stop() }

// --- fleet -------------------------------------------------------------------

// Options configure a fleet.
type Options struct {
	// System selects the membership implementation.
	System System
	// N is the number of cluster members (agents).
	N int
	// TimeScale compresses every protocol duration by this factor so the
	// paper's second-scale experiments run in milliseconds.
	TimeScale float64
	// SampleInterval is how often every agent's reported size is recorded.
	SampleInterval time.Duration
	// Seed makes the run reproducible.
	Seed int64
	// AccountBandwidth enables per-node byte accounting (Table 2).
	AccountBandwidth bool
	// JoinConcurrency bounds how many joins run at once (0 = all at once).
	JoinConcurrency int
	// SimnetShards overrides the simulated network's delivery shard count
	// (0 = simnet default). Paper-scale fleets (1000+) spread enqueue and
	// delivery across shards, so more shards help when cores are available.
	SimnetShards int
}

// Fleet is a running cluster of agents plus its infrastructure processes.
type Fleet struct {
	Options Options
	Net     *simnet.Network

	mu       sync.Mutex
	agents   []Agent
	series   map[node.Addr]*metrics.Series
	joinTime map[node.Addr]time.Duration
	started  time.Time
	infra    []func() // shutdown hooks for seeds/registries/ensembles

	samplerStop chan struct{}
	samplerDone sync.WaitGroup
}

// seedAddr is the bootstrap address used by every system.
const seedAddr = node.Addr("seed-0:9000")

// registryAddr is the ZooKeeper-style registry address.
const registryAddr = node.Addr("zk-registry:2181")

func ensembleAddrs() []node.Addr {
	return []node.Addr{"rapid-c-a:9100", "rapid-c-b:9100", "rapid-c-c:9100"}
}

// memberAddr names the i-th cluster member.
func memberAddr(i int) node.Addr {
	return node.Addr(fmt.Sprintf("m%04d:9000", i))
}

// Launch boots a fleet: infrastructure first (seed / registry / ensemble),
// then all remaining members concurrently, which is exactly the bootstrap
// workload of Figure 5. It returns once every join call has returned.
func Launch(opts Options) (*Fleet, error) {
	if opts.N <= 0 {
		return nil, fmt.Errorf("harness: fleet size must be positive")
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = 50
	}
	if opts.SampleInterval <= 0 {
		opts.SampleInterval = 20 * time.Millisecond
	}
	node.SeedIDGenerator(opts.Seed)
	f := &Fleet{
		Options: opts,
		Net: simnet.New(simnet.Options{
			Seed:             opts.Seed,
			AccountBandwidth: opts.AccountBandwidth,
			Shards:           opts.SimnetShards,
		}),
		series:      make(map[node.Addr]*metrics.Series),
		joinTime:    make(map[node.Addr]time.Duration),
		samplerStop: make(chan struct{}),
	}
	f.started = time.Now()

	if err := f.startInfrastructure(); err != nil {
		f.Net.Close()
		return nil, err
	}
	f.startSampler()

	if err := f.startMembers(); err != nil {
		f.Stop()
		return nil, err
	}
	return f, nil
}

// startInfrastructure boots the per-system bootstrap processes.
func (f *Fleet) startInfrastructure() error {
	switch f.Options.System {
	case SystemRapid:
		settings := f.rapidSettings()
		seed, err := core.StartCluster(seedAddr, settings, f.Net)
		if err != nil {
			return err
		}
		f.addAgent(rapidAgent{seed}, 0)
		f.infra = append(f.infra, func() {})
	case SystemRapidC:
		ens := centralized.DefaultEnsembleSettings()
		ens.ConsensusFallbackBase = scaled(4*time.Second, f.Options.TimeScale)
		ens.ProposalBatchWindow = scaled(time.Second, f.Options.TimeScale)
		nodes, err := centralized.StartEnsemble(ensembleAddrs(), ens, f.Net)
		if err != nil {
			return err
		}
		f.infra = append(f.infra, func() {
			for _, n := range nodes {
				n.Stop()
			}
		})
	case SystemMemberlist:
		seed, err := swim.Start(seedAddr, nil, swim.DefaultOptions().Scaled(f.Options.TimeScale), f.Net)
		if err != nil {
			return err
		}
		f.addAgent(swimAgent{seed}, 0)
	case SystemZooKeeper:
		reg, err := zkmock.StartRegistry(registryAddr, zkmock.DefaultRegistryOptions().Scaled(f.Options.TimeScale), f.Net)
		if err != nil {
			return err
		}
		f.infra = append(f.infra, reg.Stop)
	default:
		return fmt.Errorf("harness: unknown system %q", f.Options.System)
	}
	return nil
}

// startMembers launches the remaining members concurrently.
func (f *Fleet) startMembers() error {
	// Members 1..N-1 for decentralized systems (the seed counts as member 0);
	// members 0..N-1 for registry/ensemble systems.
	start := 1
	if f.Options.System == SystemRapidC || f.Options.System == SystemZooKeeper {
		start = 0
	}
	type result struct {
		agent Agent
		idx   int
		err   error
		took  time.Duration
	}
	count := f.Options.N - start
	results := make(chan result, count)
	limit := f.Options.JoinConcurrency
	if limit <= 0 {
		limit = count
	}
	sem := make(chan struct{}, limit)
	for i := start; i < f.Options.N; i++ {
		i := i
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			begin := time.Now()
			agent, err := f.startMember(i)
			results <- result{agent: agent, idx: i, err: err, took: time.Since(begin)}
		}()
	}
	var firstErr error
	for j := 0; j < count; j++ {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("harness: member %d failed to join: %w", r.idx, r.err)
			}
			continue
		}
		f.addAgent(r.agent, r.took)
	}
	return firstErr
}

// rapidSettings builds the core settings for this fleet's Rapid agents.
// Bootstrap storms at 1000+ nodes admit joiners in waves, so a large fleet's
// joiners get more attempts than the default tuned for 100-node runs.
func (f *Fleet) rapidSettings() core.Settings {
	settings := core.ScaledSettings(f.Options.TimeScale)
	settings.JoinAttempts = max(settings.JoinAttempts, f.Options.N/25)
	return settings
}

// startMember boots one cluster member of the configured system.
func (f *Fleet) startMember(i int) (Agent, error) {
	addr := memberAddr(i)
	switch f.Options.System {
	case SystemRapid:
		settings := f.rapidSettings()
		c, err := core.JoinCluster(addr, []node.Addr{seedAddr}, settings, f.Net)
		if err != nil {
			return nil, err
		}
		return rapidAgent{c}, nil
	case SystemRapidC:
		ms := centralized.DefaultMemberSettings()
		ms.PollInterval = scaled(5*time.Second, f.Options.TimeScale)
		ms.ProbeInterval = scaled(time.Second, f.Options.TimeScale)
		ms.ProbeTimeout = scaled(500*time.Millisecond, f.Options.TimeScale)
		// A wall-clock retry budget, not a protocol duration: small fleets
		// join in milliseconds regardless, but a 1000-member storm against
		// the 3-node ensemble needs minutes on a saturated core.
		ms.JoinTimeout = 180 * time.Second
		m, err := centralized.JoinViaEnsemble(addr, ensembleAddrs(), ms, f.Net)
		if err != nil {
			return nil, err
		}
		return rapidCAgent{m}, nil
	case SystemMemberlist:
		n, err := swim.Start(addr, []node.Addr{seedAddr}, swim.DefaultOptions().Scaled(f.Options.TimeScale), f.Net)
		if err != nil {
			return nil, err
		}
		return swimAgent{n}, nil
	case SystemZooKeeper:
		c, err := zkmock.StartClient(addr, registryAddr, zkmock.DefaultClientOptions().Scaled(f.Options.TimeScale), f.Net)
		if err != nil {
			return nil, err
		}
		return zkAgent{c}, nil
	default:
		return nil, fmt.Errorf("harness: unknown system %q", f.Options.System)
	}
}

func (f *Fleet) addAgent(a Agent, joinTime time.Duration) {
	s := &metrics.Series{}
	// Record an initial observation so short-lived experiments (and agents
	// that converge before the first sampler tick) still have data.
	s.Record(time.Now(), float64(a.ReportedSize()))
	f.mu.Lock()
	defer f.mu.Unlock()
	f.agents = append(f.agents, a)
	f.series[a.Addr()] = s
	f.joinTime[a.Addr()] = joinTime
}

// startSampler records every agent's reported size at the sample interval.
func (f *Fleet) startSampler() {
	f.samplerDone.Add(1)
	go func() {
		defer f.samplerDone.Done()
		ticker := time.NewTicker(f.Options.SampleInterval)
		defer ticker.Stop()
		for {
			select {
			case <-f.samplerStop:
				return
			case now := <-ticker.C:
				f.mu.Lock()
				agents := append([]Agent(nil), f.agents...)
				f.mu.Unlock()
				for _, a := range agents {
					f.mu.Lock()
					s := f.series[a.Addr()]
					f.mu.Unlock()
					if s != nil {
						s.Record(now, float64(a.ReportedSize()))
					}
				}
			}
		}
	}()
}

// Agents returns the running agents.
func (f *Fleet) Agents() []Agent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Agent(nil), f.agents...)
}

// RapidStats returns every Rapid agent's engine stats (empty for other
// systems). Experiments use it to assert control-plane health — no shed
// events, adaptive window inside its configured bounds — after a run.
func (f *Fleet) RapidStats() []core.EngineStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []core.EngineStats
	for _, a := range f.agents {
		if ra, ok := a.(rapidAgent); ok {
			out = append(out, ra.c.Stats())
		}
	}
	return out
}

// Series returns the recorded size series for one agent.
func (f *Fleet) Series(addr node.Addr) *metrics.Series {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.series[addr]
}

// Started returns the fleet's launch time (t=0 of every experiment).
func (f *Fleet) Started() time.Time { return f.started }

// JoinLatencies returns each member's join-call duration.
func (f *Fleet) JoinLatencies() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]time.Duration, 0, len(f.joinTime))
	for _, v := range f.joinTime {
		out = append(out, v)
	}
	return out
}

// WaitForSizeExcluding blocks until every agent outside the excluded set (nil
// for a whole fleet; the victims after a fault) reports the target size, or
// the timeout elapses. It returns how long the call took and whether
// convergence was reached.
func (f *Fleet) WaitForSizeExcluding(target int, excluded map[node.Addr]bool, timeout time.Duration) (time.Duration, bool) {
	begin := time.Now()
	deadline := begin.Add(timeout)
	check := func() bool {
		for _, a := range f.Agents() {
			if excluded[a.Addr()] {
				continue
			}
			if a.ReportedSize() != target {
				return false
			}
		}
		return true
	}
	for time.Now().Before(deadline) {
		if check() {
			return time.Since(begin), true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return time.Since(begin), check()
}

// UniqueReportedSizes returns the number of distinct cluster sizes the
// non-excluded agents reported from the instant since on: Started() counts
// the bootstrap's intermediate sizes (Table 1's metric), the injection
// instant counts only what a fault caused (Figure 8's).
func (f *Fleet) UniqueReportedSizes(excluded map[node.Addr]bool, since time.Time) int {
	seen := make(map[float64]struct{})
	f.mu.Lock()
	defer f.mu.Unlock()
	for addr, s := range f.series {
		if excluded[addr] {
			continue
		}
		for _, sample := range s.Samples() {
			if !sample.At.Before(since) {
				seen[sample.Value] = struct{}{}
			}
		}
	}
	return len(seen)
}

// PerAgentConvergence returns, for each agent, the duration from fleet launch
// until the agent first reported the target size (Figure 6's ECDF input).
// Agents that never reported the target are omitted.
func (f *Fleet) PerAgentConvergence(target int) []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []time.Duration
	for _, s := range f.series {
		for _, sample := range s.Samples() {
			if int(sample.Value) == target {
				out = append(out, sample.At.Sub(f.started))
				break
			}
		}
	}
	return out
}

// --- faults ------------------------------------------------------------------

// Fault names one failure scenario a fleet can inject: the paper's Figures
// 8-10 and the gray failures of the adversarial matrix. cmd/rapid-bench's
// -faults and cmd/rapid-sim's -fault take these names.
type Fault string

const (
	// FaultNone injects nothing (the bootstrap figures' cell).
	FaultNone Fault = "none"
	// FaultCrash: victims fail abruptly (Figure 8's workload, and the
	// baseline every gray failure is compared against).
	FaultCrash Fault = "crash"
	// FaultSlow: victims stay perfectly reachable but every message they
	// send or receive pays an 800 paper-ms one-way delay, pushing their probe
	// round trips far past the 500 paper-ms timeout — the classic gray
	// failure: alive to TCP, dead to the failure detector.
	FaultSlow Fault = "slow"
	// FaultOneWay: each victim's links *to* every even-indexed member fail
	// while the reverse directions keep working, so half the victim's
	// observers see it dead and the other half see it alive. Run with N >> K
	// (N >= 60): like the flip-flop fault, at N close to K the victim's own
	// noise alerts occupy enough observer slots to evict a healthy member.
	FaultOneWay Fault = "oneway-links"
	// FaultFlap: victims drop all ingress traffic for 20 paper-seconds,
	// recover for 20, and repeat (Figure 9's flip-flop, as a simnet flap rule).
	//
	// Run it with N >> K only. The paper's stability argument assumes cluster
	// size well above the ring count; at N close to K (e.g. N=20, K=10) a
	// flip-flop-partitioned victim observes a healthy subject on >= L rings,
	// so the victim's own noise REMOVE alerts can push that healthy subject
	// past the low watermark, reinforcement echoes pile on, and the healthy
	// subject is evicted — observed as a ~2/12 flake in earlier PRs. With
	// N >= 60 a single victim holds fewer than L of any subject's K observer
	// slots and the noise cannot cross the watermark.
	FaultFlap Fault = "flap"
	// FaultAsym: victims turn deaf — they hear only each other while their
	// own alerts, probes and gossip still reach everyone (the group
	// generalization of a one-way link).
	FaultAsym Fault = "asym-partition"
	// FaultWAN: no victims — the whole network gets zone latency classes
	// (3 zones, 50 paper-ms intra, 150 paper-ms inter). Round trips stay
	// under the probe timeout, so a stable system must evict nobody.
	FaultWAN Fault = "wan-zones"
	// FaultChaos: no victims — best-effort traffic is duplicated (10%) and
	// reordered (30%, up to 100 paper-ms of jitter) network-wide. A robust
	// protocol must neither evict anyone nor double-count anything.
	FaultChaos Fault = "dup-reorder"
	// FaultEgressLoss: victims drop 80% of their outgoing packets (Figure
	// 10's fault; Figure 1 is the same fault read off the baselines).
	FaultEgressLoss Fault = "egress-loss-80"
	// FaultIngressBlock: victims drop every packet they receive, for good
	// (one half-period of the flip-flop that never ends).
	FaultIngressBlock Fault = "ingress-block"
)

// Faults returns every fault kind, the eight of the adversarial matrix first
// and in its reporting order.
func Faults() []Fault {
	return []Fault{
		FaultCrash, FaultSlow, FaultOneWay, FaultFlap, FaultAsym, FaultWAN,
		FaultChaos, FaultEgressLoss, FaultIngressBlock, FaultNone,
	}
}

// global reports whether the kind applies to the whole network (or, for
// FaultNone, to nothing) and therefore takes no victims.
func (k Fault) global() bool {
	return k == FaultWAN || k == FaultChaos || k == FaultNone
}

// Inject installs the fault on the last `victims` members of the launch order
// (none for a whole-network kind) and returns the victim set, which is what
// the Wait* and size accessors take as their excluded set. ClearFaults
// reverts every kind but a crash.
func (f *Fleet) Inject(fault Fault, victims int) (map[node.Addr]bool, error) {
	agents := f.Agents()
	if fault.global() {
		victims = 0
	}
	victims = max(0, min(victims, len(agents)))
	addrs := make([]node.Addr, 0, victims)
	hit := make(map[node.Addr]bool, victims)
	for _, a := range agents[len(agents)-victims:] {
		addrs = append(addrs, a.Addr())
		hit[a.Addr()] = true
	}
	each := func(install func(v node.Addr)) {
		for _, v := range addrs {
			install(v)
		}
	}
	paper := func(d time.Duration) time.Duration { return scaled(d, f.Options.TimeScale) }
	switch fault {
	case FaultNone:
	case FaultCrash:
		each(f.Net.Crash)
	case FaultSlow:
		each(func(v node.Addr) { f.Net.SetNodeDelay(v, paper(800*time.Millisecond)) })
	case FaultOneWay:
		each(func(v node.Addr) {
			// The seed is not an "m" address, so it stays reachable.
			for i := 0; i < f.Options.N; i += 2 {
				if dst := memberAddr(i); dst != v {
					f.Net.BlockDirectional(v, dst)
				}
			}
		})
	case FaultFlap:
		w := paper(20 * time.Second)
		each(func(v node.Addr) { f.Net.SetFlap(v, simnet.FlapSpec{Loss: 1.0, Ingress: true, On: w, Off: w}) })
	case FaultAsym:
		f.Net.SetAsymmetricPartition(addrs...)
	case FaultWAN:
		f.Net.SetLatencyModel(simnet.ZoneLatency(3, paper(50*time.Millisecond), paper(150*time.Millisecond)))
	case FaultChaos:
		f.Net.SetChaos(simnet.ChaosSpec{Duplicate: 0.10, Reorder: 0.30, MaxJitter: paper(100 * time.Millisecond)})
	case FaultEgressLoss:
		each(func(v node.Addr) { f.Net.SetEgressLoss(v, 0.8) })
	case FaultIngressBlock:
		each(func(v node.Addr) { f.Net.SetIngressLoss(v, 1.0) })
	default:
		return nil, fmt.Errorf("harness: unknown fault %q", fault)
	}
	return hit, nil
}

// ClearFaults removes every installed fault rule of every kind.
func (f *Fleet) ClearFaults() {
	f.Net.ClearFaults()
}

// ReportedSizeRange returns the smallest and largest cluster size currently
// reported by the non-excluded agents (0, 0 when none qualify).
func (f *Fleet) ReportedSizeRange(excluded map[node.Addr]bool) (int, int) {
	lo, hi, seen := 0, 0, false
	for _, a := range f.Agents() {
		if excluded[a.Addr()] {
			continue
		}
		s := a.ReportedSize()
		if !seen || s < lo {
			lo = s
		}
		if !seen || s > hi {
			hi = s
		}
		seen = true
	}
	return lo, hi
}

// WaitForAgreement blocks until every non-excluded agent reports one
// identical, stable cluster size — whatever that size is — or the timeout
// elapses. It is the conformance check run after a fault clears: the live
// members must converge back to a single agreed membership. The agreed size,
// the time that took, and whether agreement was reached are returned.
func (f *Fleet) WaitForAgreement(excluded map[node.Addr]bool, timeout time.Duration) (int, time.Duration, bool) {
	begin := time.Now()
	deadline := begin.Add(timeout)
	stable, lastSize := 0, -1
	for time.Now().Before(deadline) {
		lo, hi := f.ReportedSizeRange(excluded)
		if lo == hi && lo > 0 {
			if lo == lastSize {
				stable++
			} else {
				stable, lastSize = 1, lo
			}
			// Three consecutive identical polls: agreement, not a transient
			// coincidence mid-view-change.
			if stable >= 3 {
				return lo, time.Since(begin), true
			}
		} else {
			stable, lastSize = 0, -1
		}
		time.Sleep(5 * time.Millisecond)
	}
	lo, hi := f.ReportedSizeRange(excluded)
	return lo, time.Since(begin), lo == hi && lo > 0
}

// Stop shuts down sampling, all agents, the infrastructure, and the simulated
// network's delivery workers.
func (f *Fleet) Stop() {
	close(f.samplerStop)
	f.samplerDone.Wait()
	var wg sync.WaitGroup
	for _, a := range f.Agents() {
		wg.Add(1)
		go func(a Agent) {
			defer wg.Done()
			a.Stop()
		}(a)
	}
	wg.Wait()
	for _, stop := range f.infra {
		stop()
	}
	f.Net.Close()
}

// scaled divides a duration by the time-compression factor.
func scaled(d time.Duration, factor float64) time.Duration {
	if factor <= 0 {
		return d
	}
	s := time.Duration(float64(d) / factor)
	if s < time.Millisecond {
		s = time.Millisecond
	}
	return s
}

// Scale exposes the duration scaling used by the harness to experiments.
func Scale(d time.Duration, factor float64) time.Duration { return scaled(d, factor) }
