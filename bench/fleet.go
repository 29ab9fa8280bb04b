package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	rapid "repro"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/view"
)

// member is one cluster member the driver started.
type member struct {
	addr rapid.Addr
	c    *rapid.Cluster
	tcp  *rapid.TCPNetwork // the member's own transport; nil on simnet

	// The fields below are guarded by fleet.mu.
	tracked bool // counted in fleet.sizes (false before adopt and for victims)
	size    int  // Size() as read at the latest callback
	gone    int  // victims of the running goneWatch this member has seen removed
}

// fleet is the system under test: N members on one simulated network, or N
// members each on its own TCP transport. The driver goroutine forms it,
// injects faults and waits for agreement; every member's Subscribe callback
// feeds the checker and whichever watch the driver is blocked on, so
// agreement times are the exact install times, not poll times.
type fleet struct {
	w        *workload
	index    int // which of the run's fleets this is
	settings rapid.Settings
	sim      *rapid.SimulatedNetwork // nil on TCP
	tr       *tracer                 // nil with tracing off
	ck       *checker
	seedAddr rapid.Addr
	// newest is the member that joined last. It is never a victim: crashing
	// exactly the members added since some configuration would bring the
	// membership, and with it the configuration ID, back to that
	// configuration, and the checker reads a repeated ID as a cycle.
	newest rapid.Addr
	serial int // simnet member numbering

	mu      sync.Mutex
	members map[rapid.Addr]*member // started and not yet stopped
	healthy int                    // tracked members
	sizes   map[int]int            // reported size -> tracked members reporting it
	size    *sizeWatch
	gone    *goneWatch
	newCfgs int // configuration IDs first seen since the last resetNewConfigs

	// Counters of members already stopped, so per-node rates over a run do
	// not lose what the replaced members did.
	retiredTCP    rapid.TCPNetworkStats
	retiredEngine engineTotals
}

// sizeWatch completes when exactly target healthy members exist and each
// reports size target.
type sizeWatch struct {
	target int
	done   chan struct{}
	at     time.Time
}

// goneWatch completes when every healthy member has installed a view without
// any of the victims.
type goneWatch struct {
	victims   map[rapid.Addr]bool
	satisfied int
	first, at time.Time
	done      chan struct{}
}

var errTimeout = errors.New("timed out")

func newFleet(w *workload, index int, seed int64, tr *tracer) *fleet {
	f := &fleet{
		w:        w,
		index:    index,
		settings: rapid.ScaledSettings(w.TimeScale),
		tr:       tr,
		ck:       newChecker(),
		members:  make(map[rapid.Addr]*member),
		sizes:    make(map[int]int),
	}
	// Join storms admit joiners in waves; the attempt budget grows with the
	// fleet the way the repo's own bootstrap sweep sizes it.
	if a := w.N / 25; a > f.settings.JoinAttempts {
		f.settings.JoinAttempts = a
	}
	node.SeedIDGenerator(seed)
	if !w.TCP {
		f.sim = rapid.NewSimulatedNetwork(rapid.SimulatedNetworkOptions{
			Seed:             seed,
			AccountBandwidth: tr != nil,
		})
	}
	return f
}

// newAddrs names k new members. Simnet names are never reused; on TCP each
// is a free loopback port.
func (f *fleet) newAddrs(k int) ([]rapid.Addr, error) {
	if f.w.TCP {
		return freeLoopbackAddrs(k)
	}
	addrs := make([]rapid.Addr, 0, k)
	for i := 0; i < k; i++ {
		addrs = append(addrs, rapid.Addr(fmt.Sprintf("n%05d:9000", f.serial)))
		f.serial++
	}
	return addrs, nil
}

// freeLoopbackAddrs finds k free loopback ports by holding k listeners open
// at once (so the k are distinct) and releasing them for the caller to bind.
func freeLoopbackAddrs(k int) ([]rapid.Addr, error) {
	addrs := make([]rapid.Addr, 0, k)
	for i := 0; i < k; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		defer l.Close()
		addrs = append(addrs, rapid.Addr(l.Addr().String()))
	}
	return addrs, nil
}

// protocol converts a wall duration to protocol seconds.
func (f *fleet) protocol(d time.Duration) float64 { return d.Seconds() * f.w.TimeScale }

// wall converts protocol seconds to a wall duration.
func (f *fleet) wall(protocolSeconds float64) time.Duration {
	return time.Duration(protocolSeconds / f.w.TimeScale * float64(time.Second))
}

// network returns the transport a new member runs on.
func (f *fleet) network() (transport.Network, *rapid.TCPNetwork, error) {
	var inner transport.Network = f.sim
	var tcp *rapid.TCPNetwork
	if f.w.TCP {
		var err error
		if tcp, err = rapid.NewTCPNetwork(rapid.TCPNetworkOptions{}); err != nil {
			return nil, nil, err
		}
		inner = tcp
	}
	if f.tr != nil {
		return f.tr.wrap(inner), tcp, nil
	}
	return inner, tcp, nil
}

// launch starts one member — the seed, or a joiner through the seed — and
// returns how long the StartCluster or JoinCluster call took.
func (f *fleet) launch(addr rapid.Addr) (time.Duration, error) {
	nw, tcp, err := f.network()
	if err != nil {
		return 0, err
	}
	begin := time.Now()
	var c *rapid.Cluster
	if addr == f.seedAddr {
		c, err = rapid.StartCluster(addr, f.settings, nw)
	} else {
		c, err = rapid.JoinCluster(addr, []rapid.Addr{f.seedAddr}, f.settings, nw)
	}
	took := time.Since(begin)
	if err != nil {
		if tcp != nil {
			tcp.Close()
		}
		return took, fmt.Errorf("starting %s: %w", addr, err)
	}
	f.adopt(&member{addr: addr, c: c, tcp: tcp})
	return took, nil
}

// adopt subscribes to a started member and starts tracking it. Subscribing
// first and reading the live size second means no view change can fall in
// between unseen: one published after the read reaches onView.
func (f *fleet) adopt(m *member) {
	m.c.Subscribe(func(vc rapid.ViewChange) { f.onView(m, vc) })
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members[m.addr] = m
	m.tracked = true
	m.size = m.c.Size()
	f.healthy++
	f.sizes[m.size]++
	f.checkSize(now)
}

// onView is every member's Subscribe callback.
func (f *fleet) onView(m *member, vc rapid.ViewChange) {
	now := time.Now()
	fresh := f.ck.observe(m.addr, vc)
	f.mu.Lock()
	defer f.mu.Unlock()
	if fresh {
		f.newCfgs++
	}
	if !m.tracked {
		return
	}
	// The live size, not len(vc.Members): it never lags this callback and
	// never runs backwards.
	f.sizes[m.size]--
	m.size = m.c.Size()
	f.sizes[m.size]++
	f.checkSize(now)

	if g := f.gone; g != nil && m.gone < len(g.victims) {
		for _, ch := range vc.Changes {
			if !ch.Joined && g.victims[ch.Endpoint.Addr] {
				m.gone++
			}
		}
		if m.gone >= len(g.victims) {
			if g.satisfied == 0 {
				g.first = now
			}
			g.satisfied++
			if g.satisfied == f.healthy {
				g.at = now
				f.gone = nil
				close(g.done)
			}
		}
	}
}

// checkSize completes the running sizeWatch if its condition holds. Caller
// holds f.mu.
func (f *fleet) checkSize(now time.Time) {
	if s := f.size; s != nil && f.healthy == s.target && f.sizes[s.target] == s.target {
		s.at = now
		f.size = nil
		close(s.done)
	}
}

// watchSize arms a watch for "all target members report target".
func (f *fleet) watchSize(target int) *sizeWatch {
	s := &sizeWatch{target: target, done: make(chan struct{})}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.size = s
	f.checkSize(time.Now())
	return s
}

// markVictims stops counting the victims as healthy and arms a watch for
// their removal from every healthy member's view.
func (f *fleet) markVictims(victims []rapid.Addr) *goneWatch {
	f.ck.declareVictims(victims...)
	g := &goneWatch{victims: make(map[rapid.Addr]bool), done: make(chan struct{})}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, v := range victims {
		g.victims[v] = true
		if m := f.members[v]; m != nil && m.tracked {
			m.tracked = false
			f.healthy--
			f.sizes[m.size]--
		}
	}
	for _, m := range f.members {
		m.gone = 0
	}
	f.gone = g
	return g
}

// await blocks until done closes or the protocol-time budget runs out.
func (f *fleet) await(done <-chan struct{}, protocolSeconds float64) error {
	t := time.NewTimer(f.wall(protocolSeconds))
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-t.C:
		return errTimeout
	}
}

// resetNewConfigs returns how many configuration IDs the fleet first saw
// since the previous call.
func (f *fleet) resetNewConfigs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.newCfgs
	f.newCfgs = 0
	return n
}

// healthyAddrs lists the tracked members in address order, so that a seeded
// choice among them does not depend on map iteration.
func (f *fleet) healthyAddrs() []rapid.Addr {
	f.mu.Lock()
	defer f.mu.Unlock()
	addrs := make([]rapid.Addr, 0, f.healthy)
	for a, m := range f.members {
		if m.tracked {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// The fault class a gray round stays inside, in the paper's parameters. They
// are fixed here and not read from Settings: a change that lowers the
// protocol's L or H has to show as evictions and timeouts in gray-churn-200,
// not move the inputs out of its way.
const (
	paperL = 3
	paperH = 9
)

// pickVictims draws the round's victims among the healthy members other than
// the seed and the newest. It fails the round when no pair fits the fault
// class (see drawVictims), which a fleet of workload size never sees.
func (f *fleet) pickVictims(rng *rand.Rand, kind faultKind) (victims []rapid.Addr, deaf map[rapid.Addr]bool, skipped int, err error) {
	pool := f.healthyAddrs()
	exempt := map[rapid.Addr]bool{f.seedAddr: true, f.newest: true}
	victims, deaf, skipped = drawVictims(rng, kind, pool, exempt, f.settings.K)
	if victims == nil {
		return nil, nil, skipped, fmt.Errorf("no %d of %d members fit the fault class of a %s round", victimsPerRound, len(pool), kind)
	}
	return victims, deaf, skipped, nil
}

// drawVictims shuffles the candidates (pool, in address order, minus exempt)
// with rng and takes the first victimsPerRound that fit. It is a function of
// its arguments alone: a member's place in the k rings is a hash of its
// address, and simnet addresses are serial numbers, so equal seeds draw equal
// victims whatever logical IDs the members hold.
//
// Crash victims are the first of the shuffle. A gray victim keeps sending, so
// the draw stays inside the faults Rapid is specified to ride out; skipped
// counts the candidates passed over for that:
//
//   - the victims together hold fewer than L of any member's K observer
//     slots. A gray victim reports every subject it can no longer probe; from
//     L reports on, a healthy subject counts as unstable and reinforcement
//     makes its other observers echo the alert until it is evicted;
//   - a one-way victim is unheard by between L and H-1 of its own K
//     observers: fewer is noise Rapid rightly ignores (the victim would never
//     be removed and the round could not end), more is the plain stable path
//     the crash rounds already cover.
//
// deaf is the half of the fleet that stops hearing a one-way victim: every
// other member of pool, never an exempt one, so that replacements can still
// join through the seed. victims is nil when no set fits.
func drawVictims(rng *rand.Rand, kind faultKind, pool []rapid.Addr, exempt map[rapid.Addr]bool, k int) (victims []rapid.Addr, deaf map[rapid.Addr]bool, skipped int) {
	deaf = make(map[rapid.Addr]bool, len(pool)/2)
	candidates := make([]rapid.Addr, 0, len(pool))
	members := make([]rapid.Endpoint, len(pool))
	for i, a := range pool {
		if i%2 == 0 && !exempt[a] {
			deaf[a] = true
		}
		if !exempt[a] {
			candidates = append(candidates, a)
		}
		members[i] = rapid.Endpoint{Addr: a, ID: node.ID{High: 1, Low: uint64(i)}} // any distinct IDs: rings hash addresses
	}
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	if len(candidates) < victimsPerRound {
		return nil, deaf, 0
	}
	if kind == faultCrash {
		return candidates[:victimsPerRound], deaf, 0
	}

	rings := view.NewWithMembers(k, members)
	reports := make(map[rapid.Addr]int) // observer slots held by the victims so far
	for _, a := range candidates {
		observers, err1 := rings.ObserversOf(a)
		subjects, err2 := rings.SubjectsOf(a)
		if err1 != nil || err2 != nil { // fewer than two members: nothing to draw
			return nil, deaf, skipped
		}
		fits := true
		if kind == faultOneWay {
			unheard := 0
			for _, o := range observers {
				if deaf[o] {
					unheard++
				}
			}
			fits = unheard >= paperL && unheard < paperH
		}
		if fits {
			for _, s := range subjects {
				reports[s]++
				fits = fits && reports[s] < paperL
			}
			if !fits {
				for _, s := range subjects {
					reports[s]--
				}
			}
		}
		if !fits {
			skipped++
			continue
		}
		if victims = append(victims, a); len(victims) == victimsPerRound {
			return victims, deaf, skipped
		}
	}
	return nil, deaf, skipped
}

// form boots the fleet as a storm: the seed, then all N-1 joiners at once.
// It returns launch -> all N report N, and the joiners' call latencies.
func (f *fleet) form() (converge time.Duration, joins []time.Duration, err error) {
	addrs, err := f.newAddrs(f.w.N)
	if err != nil {
		return 0, nil, err
	}
	f.seedAddr = addrs[0]
	begin := time.Now()
	if _, err := f.launch(f.seedAddr); err != nil {
		return 0, nil, err
	}
	watch := f.watchSize(f.w.N)
	type result struct {
		took time.Duration
		err  error
	}
	results := make(chan result, f.w.N-1)
	for _, addr := range addrs[1:] {
		addr := addr
		go func() {
			took, err := f.launch(addr)
			results <- result{took, err}
		}()
	}
	var firstErr error
	for i := 1; i < f.w.N; i++ {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		joins = append(joins, r.took)
	}
	if firstErr != nil {
		return 0, joins, firstErr
	}
	// Every join returned; the stragglers' views follow within a view change.
	if err := f.await(watch.done, convergeBudget); err != nil {
		return 0, joins, fmt.Errorf("fleet of %d did not converge: %w", f.w.N, err)
	}
	return watch.at.Sub(begin), joins, nil
}

// retire stops members and forgets them. A TCP member's transport is closed
// first — the abrupt part of a crash — and its counters are kept.
func (f *fleet) retire(addrs ...rapid.Addr) {
	var wg sync.WaitGroup
	for _, a := range addrs {
		f.mu.Lock()
		m := f.members[a]
		delete(f.members, a)
		if m != nil && m.tracked {
			m.tracked = false
			f.healthy--
			f.sizes[m.size]--
		}
		f.mu.Unlock()
		if m == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tcp rapid.TCPNetworkStats
			if m.tcp != nil {
				tcp = m.tcp.Stats()
				m.tcp.Close()
			}
			m.c.Stop()
			f.mu.Lock()
			addTCPStats(&f.retiredTCP, tcp, 1)
			f.retiredEngine.addStats(m.c.Stats())
			f.mu.Unlock()
		}()
	}
	wg.Wait()
}

// stop tears the whole fleet down.
func (f *fleet) stop() {
	f.mu.Lock()
	addrs := make([]rapid.Addr, 0, len(f.members))
	for a := range f.members {
		addrs = append(addrs, a)
	}
	f.mu.Unlock()
	f.retire(addrs...)
	if f.sim != nil {
		f.sim.Close()
	}
}

// finalViews snapshots Members() of every healthy member for the checker.
func (f *fleet) finalViews() map[rapid.Addr][]rapid.Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	views := make(map[rapid.Addr][]rapid.Endpoint, f.healthy)
	for a, m := range f.members {
		if m.tracked {
			views[a] = m.c.Members()
		}
	}
	return views
}

// engineTotals sums Cluster.Stats() over members.
type engineTotals struct {
	events, batches, shed int64
	batchItems            float64 // alerts+votes over all flushed batches
	queueFull             time.Duration
	windowMax             time.Duration // a gauge: the largest reading
}

func (t *engineTotals) addStats(st rapid.EngineStats) {
	t.events += st.EventsProcessed
	t.batches += st.BatchesSent
	t.shed += st.ShedBatches
	t.batchItems += st.BatchSizes.Mean * float64(st.BatchSizes.Count)
	t.queueFull += st.QueueFullTime
	t.windowMax = max(t.windowMax, st.BatchWindow)
}

// counters is a snapshot of everything a fleet counts, over its live and its
// retired members.
type counters struct {
	sent    int64 // simnet.TotalMessages, or the TCP transports' Requests
	engine  engineTotals
	tcp     rapid.TCPNetworkStats
	simKind map[string]int64 // simnet.MessageCount by Request.Kind()
	sentKB  float64          // needs the traced run's bandwidth accounting
}

// simKindNames are the Request.Kind() values reported as simnet.msgs_by_kind.
var simKindNames = []string{"probe", "prejoin", "join", "alerts", "votebatch", "alerts+votes", "phase1a", "phase2a"}

func (f *fleet) counters() counters {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := counters{engine: f.retiredEngine, tcp: f.retiredTCP, simKind: make(map[string]int64)}
	for a, m := range f.members {
		c.engine.addStats(m.c.Stats())
		if m.tcp != nil {
			addTCPStats(&c.tcp, m.tcp.Stats(), 1)
		}
		if f.sim != nil && f.tr != nil {
			for _, bytesPerSecond := range f.sim.Bandwidth(a).SentRates() {
				c.sentKB += bytesPerSecond / 1024 // one-second buckets
			}
		}
	}
	c.sent = c.tcp.Requests
	if f.sim != nil {
		c.sent = f.sim.TotalMessages()
		for _, k := range simKindNames {
			c.simKind[k] = f.sim.MessageCount(k)
		}
	}
	return c
}

// add adds sign x o to c; sign -1 takes out a snapshot made before a window.
func (c *counters) add(o counters, sign int64) {
	c.sent += sign * o.sent
	c.engine.events += sign * o.engine.events
	c.engine.batches += sign * o.engine.batches
	c.engine.shed += sign * o.engine.shed
	c.engine.batchItems += float64(sign) * o.engine.batchItems
	c.engine.queueFull += time.Duration(sign) * o.engine.queueFull
	if sign > 0 {
		c.engine.windowMax = max(c.engine.windowMax, o.engine.windowMax)
	}
	addTCPStats(&c.tcp, o.tcp, sign)
	if c.simKind == nil {
		c.simKind = make(map[string]int64)
	}
	for k, v := range o.simKind {
		c.simKind[k] += sign * v
	}
	c.sentKB += float64(sign) * o.sentKB
}

func addTCPStats(dst *rapid.TCPNetworkStats, st rapid.TCPNetworkStats, sign int64) {
	dst.Dials += sign * st.Dials
	dst.DialErrors += sign * st.DialErrors
	dst.Requests += sign * st.Requests
	dst.StaleRetries += sign * st.StaleRetries
	dst.BestEffortQueued += sign * st.BestEffortQueued
	dst.BestEffortDropped += sign * st.BestEffortDropped
}
