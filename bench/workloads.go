package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	rapid "repro"
)

// faultKind is what happens to a round's victims.
type faultKind string

const (
	// faultCrash: the victims stop sending and receiving (simnet.Crash; on TCP
	// the victim's transport is closed and the member stopped).
	faultCrash faultKind = "crash"
	// The three gray faults follow internal/experiments/scenarios.go.
	faultOneWay     faultKind = "oneway-links"   // victim -> half the fleet blocked, reverse works
	faultEgressLoss faultKind = "egress-loss-80" // 80 % of the victim's outgoing packets dropped
	faultSlow       faultKind = "slow"           // 800 protocol-ms extra each way
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name      string
	Why       string
	N         int
	TimeScale float64
	TCP       bool
	// BootConverge makes converge_p50_s read the formations (launch -> all N
	// report N) instead of the rounds (fault -> all N report N again).
	BootConverge bool
	// Fleets is how many times a run forms the fleet. Each formation is one
	// set-up sample; the measured rounds are shared out over the fleets.
	Fleets int
	// MinRounds is how many rounds every fleet runs whatever the window; the
	// fleets of a workload whose formation is the point would otherwise get
	// one round each.
	MinRounds int
	Faults    []faultKind // cycled by round
}

const (
	victimsPerRound = 2
	// roundBudget and convergeBudget (protocol seconds) turn a stuck wait
	// into a failed operation.
	roundBudget    = 60
	convergeBudget = 300
)

var workloads = []workload{
	{
		Name: "boot-storm-500", N: 500, TimeScale: 10, Fleets: 6, MinRounds: 2, BootConverge: true, Faults: []faultKind{faultCrash},
		Why: "paper Fig. 5: 1 seed + 499 simultaneous joins, then crash rounds on the booted fleet; core join path, view rebuilds, broadcast fan-out and simnet delivery do the work, agreement is 500x500 votes",
	},
	{
		Name: "crash-churn-200", N: 200, TimeScale: 10, Fleets: 3, Faults: []faultKind{faultCrash},
		Why: "paper Fig. 8: crash 2 of 200, agree, replace them; edgefd window, cutdetect and the fastpaxos fast path do the work, the join-storm code is idle",
	},
	{
		Name: "gray-churn-200", N: 200, TimeScale: 10, Fleets: 3, Faults: []faultKind{faultOneWay, faultEgressLoss, faultSlow},
		Why: "paper Figs. 9-10: one-way, lossy and slow victims; conflicting partial alerts and reinforcement, so a shortcut that speeds crash-churn shows here as a wrong eviction or a slower detect",
	},
	{
		Name: "tcp-churn-32", N: 32, TimeScale: 5, TCP: true, Fleets: 4, Faults: []faultKind{faultCrash},
		Why: "the only workload whose messages cross loopback TCP: tcpnet pool, pipelining and dial backoff plus the remoting codec carry the traffic, simnet is idle",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// toy shrinks a workload to validate-mode size: a small fleet formed twice,
// at four times the time compression. 60 members keep n >> K, below which a
// gray victim's own alerts can evict a healthy member; 12 TCP members keep a
// fast quorum (N - (N-1)/4) alive after two crashes.
func (w workload) toy() workload {
	w.N = 60
	if w.TCP {
		w.N = 12
	}
	w.Fleets = 2
	w.MinRounds = 0
	w.TimeScale *= 4
	return w
}

// roundSample is one fault round. Durations are in protocol seconds.
type roundSample struct {
	Fleet       int       `json:"fleet"`
	Fault       faultKind `json:"fault"`
	Detect      float64   `json:"detect_agree_s"` // injection -> last survivor installs a view without the victims
	Rejoin      float64   `json:"rejoin_agree_s"` // first replacement's JoinCluster call -> all N report N
	Whole       float64   `json:"whole_again_s"`  // injection -> all N report N
	Join        []float64 `json:"join_s"`         // the replacements' JoinCluster latencies
	ViewChanges int       `json:"view_changes"`   // configurations installed while removing the victims
	// DrawsSkipped is how many candidates the victim draw passed over to stay
	// inside the fault class of a gray round (see drawVictims).
	DrawsSkipped int `json:"victim_draws_skipped,omitempty"`
	// Phases is set on traced rounds only.
	Phases *phaseSample `json:"phases,omitempty"`
}

// phaseSample splits a traced round's Detect at what the tracing transport
// saw: injection -> first REMOVE alert naming a victim -> first fast-round
// vote naming one -> first survivor install -> last survivor install. The
// four sum to Detect by construction. A round in which no such alert or vote
// crossed the boundary (the cut was decided by classic Paxos alone, say) has
// no split: Unphased is set and the four read 0.
type phaseSample struct {
	FirstAlert    float64 `json:"first_alert_s"`
	AlertToVote   float64 `json:"alert_to_vote_s"`
	VoteToInstall float64 `json:"vote_to_install_s"`
	InstallSpread float64 `json:"install_spread_s"`
	Unphased      bool    `json:"unphased,omitempty"`
	Proposals     int     `json:"proposals"`      // distinct proposals voted for
	ClassicRounds int     `json:"classic_rounds"` // phase1a messages seen
}

// tally counts operations: one JoinCluster call or one wait for agreement.
type tally struct {
	JoinsAdmitted int      `json:"joins_admitted"`
	Attempted     int      `json:"ops_attempted"`
	Failed        int      `json:"ops_failed"`
	Failures      []string `json:"failures,omitempty"`
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Failures) < maxViolations {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

// samples are what one run measured.
type samples struct {
	SetupWallS []float64     `json:"setup_wall_s"`    // per formation, wall seconds
	Boot       []float64     `json:"boot_converge_s"` // per formation: launch -> all N report N
	BootJoin   []float64     `json:"-"`               // JoinCluster latencies of the formations
	Rounds     []roundSample `json:"rounds"`
	// FleetSeconds is the wall time fleets spent in measured rounds, summed
	// over fleets; CPUSeconds and Messages are what the process burned and
	// the fleets sent meanwhile.
	FleetSeconds float64 `json:"fleet_seconds"`
	CPUSeconds   float64 `json:"cpu_seconds"`
	Messages     int64   `json:"messages"`
	tally
	Violations []string `json:"violations,omitempty"`

	// What the fleets counted during the measured rounds, and during their
	// formations.
	rounds, boot counters
	probeSends   int64 // probes sent during the measured rounds; traced run only
}

// column extracts one number per round.
func (s *samples) column(get func(*roundSample) float64) []float64 {
	out := make([]float64, len(s.Rounds))
	for i := range s.Rounds {
		out[i] = get(&s.Rounds[i])
	}
	return out
}

// phases extracts one number per traced round; with split, only per round
// that has a phase split.
func (s *samples) phases(split bool, get func(*phaseSample) float64) []float64 {
	var out []float64
	for i := range s.Rounds {
		if p := s.Rounds[i].Phases; p != nil && !(split && p.Unphased) {
			out = append(out, get(p))
		}
	}
	return out
}

// runConfig are the knobs of one run that are not part of the workload.
type runConfig struct {
	seed      int64
	window    time.Duration // measured time, shared by the workload's fleets
	tr        *tracer       // nil with tracing off
	maxRounds int           // per fleet; 0 = as many as fit the window
}

// firstFleet lets the first formation of the process count from process
// start, so that anything a later change moves before the first fleet shows
// in setup_s.
var firstFleet sync.Once

// subSeed derives the i-th independent seed of a run from -seed (splitmix64).
func subSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// run forms the fleet w.Fleets times, one after the other; each formation is
// one set-up sample and one boot-convergence sample, and each fleet then runs
// fault rounds for its share of cfg.window. Spreading the rounds over several
// fleets averages out what one draw of ring positions does to join and
// agreement times.
func run(w *workload, cfg runConfig) *samples {
	s := &samples{}
	for i := 0; i < w.Fleets; i++ {
		f := s.form(w, cfg, i)
		if f == nil {
			break
		}
		fit := s.measure(f, cfg, cfg.window/time.Duration(w.Fleets))
		s.close(f)
		if !fit {
			break
		}
	}
	return s
}

// form boots fleet number i as a storm and records the formation as a set-up
// and boot sample. It returns nil, with the failure recorded, if the fleet did
// not form.
func (s *samples) form(w *workload, cfg runConfig, i int) *fleet {
	begin := time.Now()
	firstFleet.Do(func() { begin = processStart })
	f := newFleet(w, i, subSeed(cfg.seed, i), cfg.tr)
	var rt *roundTrace
	if f.tr != nil {
		rt = f.tr.beginRound(-1-i, nil)
	}
	s.Attempted += w.N // N-1 joins and one convergence
	launched := time.Now()
	converge, joins, err := f.form()
	s.JoinsAdmitted += len(joins)
	if err != nil {
		s.fail("fleet %d: %v", i, err)
		s.close(f)
		return nil
	}
	if rt != nil {
		f.tr.endRound(rt, "boot", launched, launched.Add(converge))
	}
	s.SetupWallS = append(s.SetupWallS, time.Since(begin).Seconds())
	s.Boot = append(s.Boot, f.protocol(converge))
	for _, j := range joins {
		s.BootJoin = append(s.BootJoin, f.protocol(j))
	}
	s.boot.add(f.counters(), 1)
	return f
}

// measure runs fault rounds on the fleet for budget. It reports whether the
// fleet stayed fit for more rounds.
func (s *samples) measure(f *fleet, cfg runConfig, budget time.Duration) bool {
	s.rounds.add(f.counters(), -1)
	var probes0 int64
	if cfg.tr != nil {
		probes0 = cfg.tr.sends("probe")
	}
	cpu0, start := cpuTime(), time.Now()
	rounds, fit := f.churn(budget, cfg, &s.tally)
	s.FleetSeconds += time.Since(start).Seconds()
	s.CPUSeconds += (cpuTime() - cpu0).Seconds()
	if cfg.tr != nil {
		s.probeSends += cfg.tr.sends("probe") - probes0
	}
	s.Rounds = append(s.Rounds, rounds...)
	s.rounds.add(f.counters(), 1)
	s.Messages = s.rounds.sent
	return fit
}

// close runs the end-of-run checks of a fleet and tears it down.
func (s *samples) close(f *fleet) {
	s.Violations = append(s.Violations, f.ck.finish(f.finalViews())...)
	f.stop()
}

// churn runs fault rounds on the fleet: at least w.MinRounds, then as many as
// still fit the budget. The fault kind cycles, starting at the fleet's index
// so that a run's mix of kinds stays even when its fleets do few rounds each.
// It reports whether the fleet is still fit for more rounds.
func (f *fleet) churn(budget time.Duration, cfg runConfig, t *tally) ([]roundSample, bool) {
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 1000+f.index)))
	var rounds []roundSample
	start := time.Now()
	var last time.Duration
	for n := 0; cfg.maxRounds == 0 || n < cfg.maxRounds; n++ {
		if n >= f.w.MinRounds && time.Since(start)+last > budget {
			break
		}
		began := time.Now()
		kind := f.w.Faults[(f.index+n)%len(f.w.Faults)]
		r, fit := f.round(f.index*1000+n, kind, rng, t)
		if !fit {
			return rounds, false
		}
		rounds = append(rounds, r)
		last = time.Since(began)
	}
	return rounds, true
}

// round injects one fault on two victims, waits for the survivors to agree on
// a view without them, replaces them and waits for the fleet to be whole
// again. It returns false when the fleet is no longer fit for another round.
func (f *fleet) round(id int, kind faultKind, rng *rand.Rand, t *tally) (roundSample, bool) {
	r := roundSample{Fleet: f.index, Fault: kind}
	t.Attempted++
	victims, deaf, skipped, err := f.pickVictims(rng, kind)
	if err != nil {
		t.fail("round %d: %v", id, err)
		return r, false
	}
	r.DrawsSkipped = skipped
	var rt *roundTrace
	if f.tr != nil {
		rt = f.tr.beginRound(id, victims)
	}
	f.resetNewConfigs()
	watch := f.markVictims(victims)

	injected := time.Now()
	f.inject(kind, victims, deaf)
	err = f.await(watch.done, roundBudget)
	if f.sim != nil {
		f.sim.ClearFaults()
	}
	f.retire(victims...)
	if err != nil {
		t.fail("round %d (%s): survivors did not agree on removing %v: %v", id, kind, victims, err)
		return r, false
	}
	r.Detect = f.protocol(watch.at.Sub(injected))
	r.ViewChanges = f.resetNewConfigs()
	if rt != nil {
		rt.mu.Lock()
		alert, vote := rt.firstAlert, rt.firstVote
		p := &phaseSample{Proposals: len(rt.proposals), ClassicRounds: rt.phase1a}
		rt.mu.Unlock()
		if p.Unphased = alert.IsZero() || vote.IsZero(); !p.Unphased {
			p.FirstAlert = f.protocol(alert.Sub(injected))
			p.AlertToVote = f.protocol(vote.Sub(alert))
			p.VoteToInstall = f.protocol(watch.first.Sub(vote))
			p.InstallSpread = f.protocol(watch.at.Sub(watch.first))
		}
		r.Phases = p
	}

	// Replace the victims one at a time, each into a cluster that has agreed
	// on the previous change. A joiner that starts while members still hold
	// the previous configuration can sit out a whole JoinPhase2Timeout, and
	// two joiners racing for one view change land in it or miss it by a
	// batching window; both would make the round a draw from two modes.
	rejoin := time.Now()
	var whole *sizeWatch
	for i := range victims {
		whole = f.watchSize(f.w.N - len(victims) + i + 1)
		t.Attempted += 2
		addrs, err := f.newAddrs(1)
		if err != nil {
			t.fail("round %d: %v", id, err)
			return r, false
		}
		took, err := f.launch(addrs[0])
		if err != nil {
			t.fail("round %d: %v", id, err)
			return r, false
		}
		f.newest = addrs[0]
		t.JoinsAdmitted++
		r.Join = append(r.Join, f.protocol(took))
		if err := f.await(whole.done, roundBudget); err != nil {
			t.fail("round %d: fleet did not agree on %d members: %v", id, whole.target, err)
			return r, false
		}
	}
	r.Rejoin = f.protocol(whole.at.Sub(rejoin))
	r.Whole = f.protocol(whole.at.Sub(injected))
	if rt != nil {
		f.tr.endRound(rt, "round:"+string(kind), injected, whole.at)
	}
	return r, true
}

// inject installs the fault on the victims; deaf is the half of the fleet a
// one-way victim can no longer reach.
func (f *fleet) inject(kind faultKind, victims []rapid.Addr, deaf map[rapid.Addr]bool) {
	if f.sim == nil {
		// A TCP member crashes by losing its transport and its process.
		f.retire(victims...)
		return
	}
	switch kind {
	case faultCrash:
		for _, v := range victims {
			f.sim.Crash(v)
		}
	case faultOneWay:
		for p := range deaf {
			for _, v := range victims {
				f.sim.BlockDirectional(v, p)
			}
		}
	case faultEgressLoss:
		for _, v := range victims {
			f.sim.SetEgressLoss(v, 0.8)
		}
	case faultSlow:
		for _, v := range victims {
			f.sim.SetNodeDelay(v, f.wall(0.8))
		}
	}
}
