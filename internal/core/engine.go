package core

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/cutdetect"
	"repro/internal/edgefd"
	"repro/internal/fastpaxos"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/view"
)

// This file implements the member as a state machine: a deterministic
// reaction to alerts, probes, votes and deadlines (§4.1–§4.3). The engine is
// pure state — the K-ring view, the probe scheduler, the multi-process cut
// detector, the consensus instance, the pending join waiters, the outbound
// alert batch, every deadline — with two ways in and one way out: step applies
// one event, wake runs the deadlines that are due, and both return outputs,
// the things to do to the world and when to wake next. The engine holds no
// transport, no clock, no timer and no handle on the Cluster, so it cannot do
// any of them itself; run (driver.go) is the goroutine that feeds it events
// and the time, arms one timer for it and performs what it returns, probes
// included. Events are applied one at a time, so no mutex guards protocol
// state. Transport handlers are thin enqueuers; see handlers.go.

// event is the union of everything the engine consumes. It is two words — a
// member's queue holds eventQueueSize of them — and a struct rather than an
// interface, so the hot path (inbound batches and consensus votes) queues a
// message without allocating.
type event struct {
	// req is a one-way protocol message (batch, consensus phase, phase-2
	// join, leave), queued as the transport delivered it; dispatchRequest
	// tells which.
	req *remoting.Request
	ctl *control // set instead of req for everything else
}

// control is anything but a protocol message. One field is set.
type control struct {
	preJoin *preJoinEvent
	// probed is what a probe found.
	probed *probeResult
	// leave asks the engine to announce this process' graceful departure.
	leave bool
	// learned is an ensemble node's answer to a poll, whichever node sent it
	// (see learn).
	learned *remoting.GetViewResponse
}

// leaveEvent carries nothing, so it is made once.
var leaveEvent = event{ctl: &control{leave: true}}

// probeResult is what the probe of a round's i-th subject found.
type probeResult struct {
	gen uint64
	i   int
	ok  bool
}

// preJoinEvent carries a phase-1 join request and its reply channel.
type preJoinEvent struct {
	msg   *remoting.PreJoinRequest
	reply chan *remoting.Response
}

// joinerKey identifies one incarnation of a joining process.
type joinerKey struct {
	addr node.Addr
	id   node.ID
}

// outputs is everything one step or wake asks of the world, in the order the
// driver performs it, and when the engine must wake next.
type outputs struct {
	// sends are best-effort messages. A send's targets are a slice some
	// configuration owns: nobody writes to it.
	sends []send
	// publish is the configuration this step installed, if it installed one,
	// and change what subscribers are told of it (nothing for the
	// configuration a member starts in).
	publish *snapshot
	change  *ViewChange
	// reply answers the phase-1 join request this step served, if it served
	// one.
	reply reply
	// probe are the subjects to probe now, and probeGen the round's
	// generation.
	probe    []node.Addr
	probeGen uint64
	// wakeAt is the earliest deadline the engine holds after this step or
	// wake, zero when it holds none: the driver's one timer fires at it.
	wakeAt time.Time
}

// send is one request for a list of members.
type send struct {
	to  []node.Addr
	req *remoting.Request
}

// reply is the answer to a phase-1 join request, for its waiting handler.
type reply struct {
	to   chan<- *remoting.Response
	resp *remoting.Response
}

// engine is the single-writer owner of all protocol state. Only the goroutine
// that steps it touches its fields after initialization: Cluster.initialize
// builds it with newEngine and hands it to `go e.run`, and nothing else holds
// one. TestOnlyRunTouchesTheEngine (purity_test.go) enforces that.
type engine struct {
	me node.Endpoint
	// The settings the state machine reads: Settings.oneHopLimit,
	// ProbeInterval, pollInterval, ConsensusFallbackBase,
	// ReinforcementTimeout and JoinPhase2Timeout.
	oneHop               int
	probeInterval        time.Duration
	pollInterval         time.Duration
	fallbackBase         time.Duration
	reinforcementTimeout time.Duration
	joinTimeout          time.Duration
	metrics              *EngineMetrics
	// ensemble is the fixed electorate of Rapid-C, sorted by address; nil
	// when the membership votes.
	ensemble []node.Addr

	// now is the time of the step or wake being applied.
	now time.Time
	// out collects the outputs of the step or wake being applied; finish
	// hands them over and starts afresh.
	out outputs

	view *view.View
	// members and addrs are the membership sorted by address; voters the
	// electorate (addrs itself unless an ensemble manages the membership),
	// myIndex this process' place in it (-1: no vote), subjects the distinct
	// processes it monitors in ring order, voteTargets where its own vote and
	// its relays go (see install), and
	// allRings whether it is a voter outside the view, an ensemble node: all
	// are derived once per installed configuration. A voter bitmap is indexed
	// the way voters is. No slice is written after install built it: the
	// snapshot, the view-change notification, every join response and every
	// send still to be performed hold these very slices.
	members     []node.Endpoint
	addrs       []node.Addr
	voters      []node.Addr
	myIndex     int
	subjects    []node.Addr
	voteTargets []node.Addr
	allRings    bool
	cd          *cutdetect.Detector
	consensus   *fastpaxos.FastPaxos
	// decided is the cut the consensus instance decided during this step, or
	// the cut to the membership learned from the ensemble (see learn). finish
	// applies it once the call into consensus has returned. A cut is never
	// empty.
	decided []node.Endpoint
	learned []node.Endpoint
	// votesDirty is set while the consensus instance holds votes this process
	// has not pushed to its vote targets yet: its own, or, when it relays,
	// whatever an inbound aggregate taught it.
	votesDirty bool
	// fallbackAt is the recovery deadline of the current consensus instance:
	// armed when this process votes, cleared by the next install. Zero while
	// unarmed.
	fallbackAt time.Time
	// probes judges the edges to subjects, a new generation per install;
	// probeDue is its next round, zero with nobody to probe.
	probes   *edgefd.Scheduler
	probeDue time.Time
	// pollAt is when a member the ensemble manages next polls it; zero for
	// everyone else. pollTo is the ensemble node it polls, and pollMissed
	// says that node has not answered the last poll yet, so the next one
	// goes to the node after it.
	pollAt     time.Time
	pollTo     int
	pollMissed bool
	// reinforceDue is the next reinforcement check, a fifth of
	// ReinforcementTimeout apart while a subject is in flux — the only time it
	// can do anything — and zero otherwise.
	reinforceDue time.Time

	alertedEdges map[node.Addr]bool
	// joinWaiters are the joiner incarnations that parked a phase-2 request in
	// the current configuration, and for which this process filed a JOIN
	// alert: the next view change answers each of them, admitted or
	// redirected to phase 1. Alerts are irrevocable, so a retry parks again
	// without another alert, and is answered once, with the rest.
	joinWaiters map[joinerKey]bool
	// earlyJoins holds phase-2 requests that name a configuration this
	// process has not installed yet (the seed that served the joiner's phase 1
	// decided first), one per joiner incarnation, so a retry replaces the
	// request it gave up on; they are re-evaluated after every install.
	earlyJoins map[joinerKey]*remoting.JoinRequest
	// The state a lone voter gathers a join storm by (see gathering):
	// joinArrived is set when a joiner reached this process in either phase
	// since the last flush, unparked holds the joiners a lone voter answered in
	// phase 1 in the current configuration that have not parked yet, and
	// stormAt is when the configuration's first joiner parked.
	joinArrived bool
	unparked    map[joinerKey]bool
	stormAt     time.Time
	// pastConfigs are the configurations this process has moved past, oldest
	// first, at most maxPastConfigs of them. A phase-2 join request naming one
	// is stale and redirected; one naming an unknown configuration is early
	// and held (see handleJoinPhase2).
	pastConfigs []uint64
	viewChanges int

	// Outbound alert batch: alerts generated within one batching window leave
	// as a single wire message on the next flush.
	pendingAlerts []remoting.AlertMessage

	// winCtl sizes the flush window between its floor and ceiling
	// from queue depth and arrival rate (see adaptive.go); arrivals counts
	// the batches dispatched since the last flush, its rate input. The window
	// belongs to the configuration: an install starts it at the floor again
	// unless a join storm is still under way (see restartWindow).
	winCtl   windowController
	arrivals int
	// flushDue is when the next flush is due, zero while none is. finish
	// arms one only while there is something to flush or to measure, so a
	// quiet engine wakes for nothing but its probe rounds.
	flushDue time.Time
}

// maxPastConfigs bounds the past-configuration history. It only needs to
// cover configurations whose traffic may still be in flight; 32 view changes
// of slack is far beyond any request's network lifetime.
const maxPastConfigs = 32

// newEngine builds the engine state for the first configuration, installed at
// now, and returns it with its first outputs: that configuration, and a wake
// at the end of the first flush window — an engine usually boots mid-storm,
// and if it does not, the first flushes are the window's decay to its floor. A
// nil ensemble makes the membership the electorate. It runs on the caller's
// goroutine; the driver takes sole ownership afterwards (the goroutine start
// gives the required happens-before edge).
func newEngine(me node.Endpoint, s *Settings, m *EngineMetrics, members []node.Endpoint, ensemble []node.Addr, now time.Time) (*engine, outputs) {
	e := &engine{
		me:                   me,
		oneHop:               s.oneHopLimit(),
		probeInterval:        s.ProbeInterval,
		pollInterval:         s.pollInterval(),
		fallbackBase:         s.ConsensusFallbackBase,
		reinforcementTimeout: s.ReinforcementTimeout,
		joinTimeout:          s.JoinPhase2Timeout,
		metrics:              m,
		ensemble:             ensemble,
		now:                  now,
		view:                 view.NewShared(s.K, members),
		probes:               edgefd.NewScheduler(s.FailureDetector),
		cd:                   cutdetect.New(s.K, s.H, s.L),
		alertedEdges:         make(map[node.Addr]bool),
		joinWaiters:          make(map[joinerKey]bool),
		earlyJoins:           make(map[joinerKey]*remoting.JoinRequest),
		unparked:             make(map[joinerKey]bool),
		winCtl:               newWindowController(s.windowFloor(), s.windowCeiling()),
	}
	m.BatchWindow.Set(int64(e.winCtl.window))
	e.install()
	e.flushDue = now.Add(e.winCtl.window)
	return e, e.finish()
}

// install derives everything the engine keeps per configuration from the
// view it just obtained or changed — the view hands out its address order: the
// frozen build's own slices while it shares one, otherwise the only O(N) copy
// made here — starts a fresh consensus instance and a new probe generation,
// arms its first probe round one interval from now (none for a member with
// nobody to probe), and puts the configuration into this step's outputs. A
// member the ensemble manages polls it one poll interval from now.
func (e *engine) install() {
	e.members, e.addrs = e.view.Membership()
	e.voters = e.addrs
	if e.ensemble != nil {
		e.voters = e.ensemble
	}
	e.myIndex = -1
	if i, ok := slices.BinarySearch(e.voters, e.me.Addr); ok {
		e.myIndex = i
	}
	_, inView := slices.BinarySearch(e.addrs, e.me.Addr)
	e.allRings = e.myIndex >= 0 && !inView
	e.subjects = nil
	if inView {
		e.subjects, _ = e.view.UniqueSubjectsOf(e.me.Addr)
	}
	// Votes go to the subjects of the first voteRings rings when this
	// membership relays them (the decision push adds what the cut's leavers
	// pushed to, see decisionTargets), and otherwise to every other voter,
	// which makes one hop enough.
	if e.relays() {
		n := min(voteRings, len(e.subjects))
		e.voteTargets = e.subjects[:n:n]
	} else {
		e.voteTargets = slices.DeleteFunc(slices.Clone(e.voters), func(a node.Addr) bool { return a == e.me.Addr })
	}
	e.consensus = e.newConsensus()
	e.votesDirty = false
	e.fallbackAt = time.Time{}
	e.probes.Watch(e.subjects)
	e.probeDue = time.Time{}
	if len(e.subjects) > 0 {
		e.probeDue = e.now.Add(e.probeInterval)
	}
	e.pollAt = time.Time{}
	if e.ensemble != nil && e.myIndex < 0 {
		e.pollAt = e.now.Add(e.pollInterval)
	}
	e.out.publish = &snapshot{configID: e.view.ConfigurationID(), members: e.members, viewChanges: e.viewChanges}
}

// step applies one event at the given time and returns what it asks for.
func (e *engine) step(ev event, now time.Time) outputs {
	e.now = now
	switch c := ev.ctl; {
	case ev.req != nil:
		e.dispatchRequest(ev.req)
	case c == nil:
	case c.preJoin != nil:
		e.handlePreJoin(c.preJoin)
	case c.probed != nil:
		// An outcome of an older generation — a probe that crossed an install —
		// completes nothing: every configuration starts with fresh windows.
		if r := c.probed; e.probes.Outcome(r.gen, r.i, r.ok, e.now) {
			e.handleSubjectFailed(e.subjects[r.i])
		}
	case c.leave:
		// A graceful leave goes to the electorate: the leaver's observers, or
		// the ensemble that speaks for them, file REMOVE alerts at once.
		e.broadcast(&remoting.Request{Leave: &remoting.LeaveMessage{Sender: e.me.Addr}})
	case c.learned != nil:
		e.learn(c.learned)
	}
	return e.finish()
}

// wake runs, at the given time and with the given number of events waiting in
// the inbound queue, whatever of the engine's deadlines is due, in a fixed
// order: the flush; the probe round, the next one armed on the beat of this
// one's deadline however late it ran; the reinforcement check (§4.2,
// liveness), which echoes REMOVE alerts for subjects stuck in the unstable
// report region longer than ReinforcementTimeout and re-runs the
// implicit-alert scan that handleAlerts skips for join/vote-only batches; the
// classical recovery round, again every ConsensusFallbackBase while the
// instance stays undecided, each time with a higher rank; the poll. A
// deadline that is not due yet does nothing, so a wake that finds nothing due
// changes nothing.
func (e *engine) wake(now time.Time, queueDepth int) outputs {
	e.now = now
	if e.due(e.flushDue) {
		e.flush(queueDepth)
	}
	if e.due(e.probeDue) {
		e.probeDue = now.Add(e.probeInterval - now.Sub(e.probeDue)%e.probeInterval)
		e.out.probeGen, e.out.probe = e.probes.Tick()
	}
	if e.due(e.reinforceDue) {
		e.reinforceDue = time.Time{}
		for _, subject := range e.cd.UnstableLongerThan(now, e.reinforcementTimeout) {
			e.handleSubjectFailed(subject)
		}
		e.propose(e.cd.InvalidateFailingEdges(e.view, now))
	}
	if e.due(e.fallbackAt) {
		e.fallbackAt = now.Add(e.fallbackBase)
		e.consensus.StartClassicalRound()
	}
	if e.due(e.pollAt) {
		e.pollAt = now.Add(e.pollInterval)
		e.poll()
	}
	return e.finish()
}

// due reports whether a deadline is armed and has come.
func (e *engine) due(at time.Time) bool { return !at.IsZero() && !e.now.Before(at) }

// flush sends what the window gathered and lets the controller size the next
// window from the depth of the inbound queue and the batches dispatched during
// this one — unless a lone voter is gathering a join storm, when it holds
// everything for one more window of the same length.
func (e *engine) flush(queueDepth int) {
	e.flushDue = time.Time{}
	gathering := e.gathering(queueDepth)
	e.joinArrived = false
	if gathering {
		return
	}
	e.flushOutbox()
	next := e.winCtl.retune(queueDepth, eventQueueSize, e.arrivals)
	e.arrivals = 0
	e.metrics.BatchWindow.Set(int64(next))
}

// gathering reports whether a lone voter holds its JOIN alerts on this flush,
// given how many events wait in its inbound queue. Its vote alone decides the
// cut they lead to, and every joiner the cut leaves out runs both join phases
// again and is voted in by the members it admitted, so it waits for the whole
// storm. A joiner must have parked, and the first one must have waited less
// than half a JoinPhase2Timeout, so a trickle cannot time one out. Then it
// holds while any of these says the storm is still arriving:
//
//   - a joiner it answered in phase 1 has not parked yet;
//   - events are queued that this flush has not seen, joins among them;
//   - 4K joiners are parked and one reached it, in either phase, since the
//     last flush: above 4K the next wave's votes would be relayed along the
//     rings, so only a quiet window ends the wait, while a smaller storm that
//     has all parked is cut at once.
func (e *engine) gathering(queueDepth int) bool {
	return len(e.voters) == 1 &&
		!e.stormAt.IsZero() && e.now.Sub(e.stormAt) < e.joinTimeout/2 &&
		(len(e.unparked) > 0 || queueDepth > 0 || e.joinArrived && len(e.joinWaiters) >= e.oneHop)
}

// finish ends a step or wake. A cut the consensus instance decided during it
// is applied here, exactly once and with no consensus call on the stack.
// Then, if no flush is armed and one has work to do, it arms one, with the
// window the controller last chose:
//
//   - output is pending — buffered alerts, or votes not pushed yet;
//   - or a batch was dispatched since the last flush, which the controller
//     must see at the end of this window to size the next one;
//   - or the window is still above its floor and has to decay there, one
//     halving per quiet flush, within the configuration that grew it.
//
// Every step and wake ends here, so the first alert after a quiet spell
// leaves exactly one floor window after it was raised. The reinforcement
// check is armed a period ahead while a subject is in flux and disarmed once
// none is, and the outputs carry the earliest deadline left.
func (e *engine) finish() outputs {
	if e.decided != nil {
		cut := e.decided
		e.decided = nil
		e.applyDecision(cut)
	}
	if e.flushDue.IsZero() && (len(e.pendingAlerts) > 0 || e.votesDirty ||
		e.arrivals > 0 || e.winCtl.window > e.winCtl.floor) {
		e.flushDue = e.now.Add(e.winCtl.window)
	}
	if !e.cd.InFlux() {
		e.reinforceDue = time.Time{}
	} else if e.reinforceDue.IsZero() {
		e.reinforceDue = e.now.Add(e.reinforcementTimeout / 5)
	}
	e.out.wakeAt = e.wakeAt()
	out := e.out
	e.out = outputs{}
	return out
}

// wakeAt is the earliest deadline the engine holds, zero when it holds none.
func (e *engine) wakeAt() time.Time {
	var next time.Time
	for _, at := range [...]time.Time{e.flushDue, e.probeDue, e.reinforceDue, e.fallbackAt, e.pollAt} {
		if !at.IsZero() && (next.IsZero() || at.Before(next)) {
			next = at
		}
	}
	return next
}

// restartWindow starts the flush window of a configuration just installed at
// the floor, with no arrivals counted against it — a flush due at the instant
// of the install would otherwise retune the new window from the batches of
// the configuration just left — and brings a flush due later than one floor
// window in to it.
func (e *engine) restartWindow() {
	e.winCtl.window, e.arrivals = e.winCtl.floor, 0
	e.metrics.BatchWindow.Set(int64(e.winCtl.window))
	if due := e.now.Add(e.winCtl.window); e.flushDue.After(due) {
		e.flushDue = due
	}
}

// dispatchRequest is the one place that tells the protocol messages apart.
// Anything else HandleRequest let through (an empty or foreign request) is
// ignored.
func (e *engine) dispatchRequest(req *remoting.Request) {
	switch {
	case req.Alerts != nil || req.VoteBatch != nil:
		// One inbound batch: alerts through cut detection (possibly casting
		// this process' vote), then vote aggregates into the consensus tally.
		e.arrivals++
		if req.Alerts != nil {
			e.handleAlerts(req.Alerts)
		}
		if req.VoteBatch != nil {
			e.handleVotes(req.VoteBatch)
		}
	case req.P1a != nil:
		e.consensus.HandlePhase1a(req.P1a)
	case req.P1b != nil:
		e.consensus.HandlePhase1b(req.P1b)
	case req.P2a != nil:
		e.consensus.HandlePhase2a(req.P2a)
	case req.P2b != nil:
		e.consensus.HandlePhase2b(req.P2b)
	case req.Join != nil:
		e.handleJoinPhase2(req.Join)
	case req.Leave != nil:
		// A graceful leave is a REMOVE alert its observers file at once.
		e.handleSubjectFailed(req.Leave.Sender)
	}
}

// newConsensus builds the consensus instance for the current view. It sends
// through the engine's outbox — a recovery message is one more send in the
// step's outputs — hands this process' own vote back through addVote, and
// only records what it decides: finish installs the decision after the call
// that reached it has returned.
func (e *engine) newConsensus() *fastpaxos.FastPaxos {
	return fastpaxos.New(fastpaxos.Config{
		MyAddr:          e.me.Addr,
		MyIndex:         e.myIndex,
		MembershipSize:  len(e.voters),
		ConfigurationID: e.view.ConfigurationID(),
		Client:          outbox{e},
		Broadcaster:     outbox{e},
		VoteSink:        e.addVote,
		OnDecide:        func(cut []node.Endpoint) { e.decided = cut },
	})
}

// --- outputs --------------------------------------------------------------------

// send adds one best-effort message to this step's outputs.
func (e *engine) send(to []node.Addr, req *remoting.Request) {
	if len(to) > 0 {
		e.out.sends = append(e.out.sends, send{to: to, req: req})
	}
}

// broadcast sends req to every voter, this process included if it is one
// (unicast-to-all, §6): alert batches, the classical recovery rounds and leave
// announcements travel this way.
func (e *engine) broadcast(req *remoting.Request) { e.send(e.voters, req) }

// outbox is the engine as its consensus instance sees it: the Client and the
// Broadcaster of the frozen fastpaxos.Config, which here only add to the
// outputs of the step that called into consensus.
type outbox struct{ e *engine }

func (o outbox) SendBestEffort(to node.Addr, req *remoting.Request) {
	o.e.send([]node.Addr{to}, req)
}
func (o outbox) Broadcast(req *remoting.Request) { o.e.broadcast(req) }

// --- outbound batching -------------------------------------------------------

// addAlert buffers an alert for the next flush.
func (e *engine) addAlert(alert remoting.AlertMessage) {
	e.pendingAlerts = append(e.pendingAlerts, alert)
}

// addVote counts this process' own fast-round vote — the consensus VoteSink
// hands it over with this process' bit set — and marks it for the next push.
func (e *engine) addVote(vote *remoting.FastRoundPhase2b) {
	e.votesDirty = true
	e.consensus.Merge(vote.ConfigurationID, vote.Proposal, vote.Voters)
}

// relays reports whether votes are relayed along the rings in this
// configuration (see Settings.oneHopLimit).
func (e *engine) relays() bool { return len(e.voters) > e.oneHop }

// pushVotes sends what the consensus instance knows — one voter bitmap per
// distinct proposal — to the given targets: this process' vote targets, or,
// for the decision push, its decisionTargets.
func (e *engine) pushVotes(to []node.Addr) {
	e.votesDirty = false
	votes := e.consensus.Aggregates()
	if len(votes) == 0 {
		return
	}
	e.metrics.BatchSizes.Observe(float64(len(votes)))
	e.metrics.BatchesSent.Add(1)
	e.send(to, &remoting.Request{VoteBatch: &remoting.FastRoundVoteBatch{Sender: e.me.Addr, Votes: votes}})
}

// decisionTargets are the vote targets plus every other subject that a leaver
// of the cut pushed votes to in the configuration being left, so that a member
// which loses a vote-ring observer to the cut hears the decision from all K.
func (e *engine) decisionTargets(leavers []node.Endpoint) []node.Addr {
	to := e.voteTargets // capped at its length: an append copies
	for _, l := range leavers {
		theirs, _ := e.view.UniqueSubjectsOf(l.Addr)
		for _, s := range theirs[:min(voteRings, len(theirs))] {
			if slices.Contains(e.subjects, s) && !slices.Contains(to, s) {
				to = append(to, s)
			}
		}
	}
	return to
}

// flushOutbox sends what the last batching window produced: the vote
// aggregates, if this process learned of a vote since its last push, and the
// buffered alerts as one wire message (§6). The batch goes to this process as
// well, and comes back through the transport like everyone else's.
func (e *engine) flushOutbox() {
	if e.votesDirty {
		e.pushVotes(e.voteTargets)
	}
	if len(e.pendingAlerts) == 0 {
		return
	}
	e.metrics.BatchSizes.Observe(float64(len(e.pendingAlerts)))
	e.metrics.BatchesSent.Add(1)
	e.broadcast(&remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: e.me.Addr, Alerts: e.pendingAlerts}})
	e.pendingAlerts = nil
}

// --- inbound protocol events -------------------------------------------------

// handleVotes merges a peer's vote aggregates. When this process relays, an
// aggregate that taught it a voter is pushed on at the next flush; in a
// one-hop membership every voter reaches every member itself. Once an
// aggregate has completed a quorum the instance ignores the rest of the batch.
func (e *engine) handleVotes(batch *remoting.FastRoundVoteBatch) {
	learned := false
	for i := range batch.Votes {
		v := &batch.Votes[i]
		if e.consensus.Merge(v.ConfigurationID, v.Proposal, v.Voters) {
			learned = true
		}
	}
	if learned && e.relays() {
		e.votesDirty = true
	}
}

// handleAlerts feeds observer alerts into the cut detector and, when the
// aggregation rule fires, casts this process' consensus vote (§4.2, §4.3).
func (e *engine) handleAlerts(batch *remoting.BatchedAlertMessage) {
	currentConfig := e.view.ConfigurationID()
	var proposal []node.Endpoint
	downApplied := false
	for _, alert := range batch.Alerts {
		if alert.ConfigurationID != currentConfig {
			continue
		}
		var subject node.Endpoint
		if alert.Status == remoting.EdgeDown {
			ep, ok := e.view.Member(alert.EdgeDst)
			if !ok {
				continue
			}
			subject = ep
			downApplied = true
		} else {
			if e.view.Contains(alert.EdgeDst) {
				continue // JOIN alert about an existing member is invalid.
			}
			subject = node.Endpoint{Addr: alert.EdgeDst, ID: alert.JoinerID, Metadata: alert.Metadata}
		}
		proposal = append(proposal, e.cd.AggregateForProposal(alert, subject, e.now)...)
	}
	// Implicit alerts (§4.2, liveness) scan every unstable subject's would-be
	// observers — O(unstable x K^2) ring searches. Their outcome can only
	// change when a REMOVE alert made some observer unstable, so the scan is
	// not asked for after join/vote-only batches; during a 1000-node bootstrap
	// storm (hundreds of unstable joiners, zero failures) this check was >80%
	// of all CPU. The detector itself makes a scan free unless some record
	// entered suspect, unstable or stable since the last one — the only
	// transitions that give it a pair it has not applied — so the batches of
	// a crash round after the first do not pay it either. The reinforcement
	// check asks for the scan as a backstop.
	if downApplied {
		proposal = append(proposal, e.cd.InvalidateFailingEdges(e.view, e.now)...)
	}
	e.propose(proposal)
}

// propose casts this process' consensus vote for a non-empty proposal if it
// has not voted in this configuration yet.
func (e *engine) propose(proposal []node.Endpoint) {
	if len(proposal) == 0 {
		return
	}
	// A process outside the electorate has no vote (and no bit).
	if e.myIndex < 0 || e.consensus.HasProposed() {
		return
	}
	proposal = dedupeEndpoints(proposal)
	// Arm the recovery deadline: the base delay plus a per-node jitter, so a
	// single coordinator usually emerges.
	e.fallbackAt = e.now.Add(e.fallbackBase + time.Duration(e.myIndex%8)*e.fallbackBase/8)
	e.consensus.Propose(proposal)
}

// handleSubjectFailed converts an edge failure detector verdict, a leave or a
// reinforcement echo into an irrevocable REMOVE alert (enqueued for the next
// batch).
func (e *engine) handleSubjectFailed(subject node.Addr) {
	if !e.view.Contains(subject) || e.alertedEdges[subject] {
		return
	}
	rings := e.ringsOf(subject)
	if len(rings) == 0 {
		return
	}
	e.alertedEdges[subject] = true
	e.addAlert(remoting.AlertMessage{
		EdgeSrc:         e.me.Addr,
		EdgeDst:         subject,
		Status:          remoting.EdgeDown,
		ConfigurationID: e.view.ConfigurationID(),
		RingNumbers:     rings,
	})
}

// ringsOf returns the rings on which this process reports about subject: the
// ones it observes subject on, or all K for a voter outside the view — an
// ensemble node, which observes nobody and speaks for every observer (§5).
func (e *engine) ringsOf(subject node.Addr) []int {
	if !e.allRings {
		return e.view.RingNumbers(e.me.Addr, subject)
	}
	rings := make([]int, e.view.K())
	for i := range rings {
		rings[i] = i
	}
	return rings
}

// poll asks one ensemble node for the configuration of the cluster it
// manages: the node polled last, unless it has not answered that poll, when
// the next one in turn. So a member follows one node's sequence of
// configurations while that node answers.
func (e *engine) poll() {
	if e.pollMissed {
		e.pollTo = (e.pollTo + 1) % len(e.ensemble)
	}
	e.pollMissed = true
	e.send(e.ensemble[e.pollTo:e.pollTo+1], &remoting.Request{GetView: &remoting.GetViewRequest{Sender: e.me.Addr, KnownConfigurationID: e.view.ConfigurationID()}})
}

// learn files a configuration the ensemble node this member polls answered
// with as this step's decision: the cut from the installed membership to it,
// which applyDecision installs and announces as it would a decided one, and
// whose identifier is the ensemble's, since it depends on the member set
// alone. Members is sorted by address, as every snapshot is. Identifiers do
// not order configurations — a member set may come back, when the last
// joiners fail — so whatever that node answers is installed, and an answer
// from any other node, or to a process that does not poll, is ignored.
func (e *engine) learn(v *remoting.GetViewResponse) {
	if e.pollAt.IsZero() || v.Sender != e.ensemble[e.pollTo] {
		return
	}
	e.pollMissed = false
	if v.Unchanged || v.ConfigurationID == e.view.ConfigurationID() {
		return
	}
	var cut []node.Endpoint
	old, cur := e.members, v.Members
	for len(old) > 0 || len(cur) > 0 {
		switch {
		case len(cur) == 0 || len(old) > 0 && old[0].Addr < cur[0].Addr:
			cut, old = append(cut, old[0]), old[1:]
		case len(old) == 0 || cur[0].Addr < old[0].Addr:
			cut, cur = append(cut, cur[0]), cur[1:]
		default:
			if old[0].ID != cur[0].ID { // an address that returned as a new process
				cut = append(cut, old[0], cur[0])
			}
			old, cur = old[1:], cur[1:]
		}
	}
	if len(cut) > 0 {
		e.decided, e.learned = cut, v.Members
	}
}

// handlePreJoin serves phase 1 of the join protocol: a seed returns the
// joiner's temporary observers in the current configuration. An ensemble node
// names the ensemble, whose every node speaks for all K rings: the joiner has
// fewer observers than H, so all of them must report. A lone voter, the
// joiner's only observer, expects it to park next (see gathering).
func (e *engine) handlePreJoin(ev *preJoinEvent) {
	msg := ev.msg
	e.joinArrived = true
	resp := &remoting.PreJoinResponse{Sender: e.me.Addr}
	resp.Status = e.view.IsSafeToJoin(msg.Sender, msg.JoinerID)
	resp.ConfigurationID = e.view.ConfigurationID()
	switch resp.Status {
	case remoting.JoinSafeToJoin:
		resp.Observers = e.view.ExpectedObserversOf(msg.Sender)
		if key := (joinerKey{addr: msg.Sender, id: msg.JoinerID}); len(e.voters) == 1 && !e.joinWaiters[key] {
			e.unparked[key] = true
		}
	case remoting.JoinHostAlreadyInRing:
		// If the very same process (same logical ID) retries its join — for
		// example because the response to its phase-2 request was lost — the
		// view change admitting it already happened. Point it at its actual
		// observers, who answer its phase-2 request at once with the current
		// configuration.
		if existing, ok := e.view.Member(msg.Sender); ok && existing.ID == msg.JoinerID {
			resp.Status = remoting.JoinSafeToJoin
			if obs, err := e.view.ObserversOf(msg.Sender); err == nil {
				resp.Observers = obs
			}
		}
	}
	if e.allRings && resp.Status == remoting.JoinSafeToJoin {
		resp.Observers = e.voters
	}
	e.out.reply = reply{to: ev.reply, resp: &remoting.Response{PreJoin: resp}}
}

// handleJoinPhase2 serves phase 2 of the join protocol on one of the joiner's
// temporary observers: it broadcasts a JOIN alert and parks the joiner until
// the next view change, which either admits it or redirects it to phase 1
// (see applyDecision). Every answer is a one-way send to the joiner, at once
// or at that view change.
func (e *engine) handleJoinPhase2(msg *remoting.JoinRequest) {
	e.joinArrived = true
	currentConfig := e.view.ConfigurationID()
	key := joinerKey{addr: msg.Sender, id: msg.JoinerID}
	// If the joiner is already a member, the view change raced ahead of this
	// request (or it is a retry): answer immediately with the configuration.
	// After a big admission wave hundreds of such requests arrive; they all
	// get the configuration's one membership slice.
	if existing, ok := e.view.Member(msg.Sender); ok && existing.ID == msg.JoinerID {
		e.send([]node.Addr{msg.Sender}, e.admitted())
		return
	}
	if msg.ConfigurationID != currentConfig {
		if slices.Contains(e.pastConfigs, msg.ConfigurationID) {
			e.send([]node.Addr{msg.Sender}, e.redirect())
			return
		}
		// The request is early, not stale: the seed installed a configuration
		// this member is still deciding. Bouncing it would cost the joiner a
		// ring it needs to reach H; it is served once the install catches up.
		e.earlyJoins[key] = msg
		return
	}
	rings := e.ringsOf(msg.Sender)
	if len(rings) == 0 {
		// We are not one of the joiner's observers in this configuration. A
		// redirect would name the configuration the joiner's round is in,
		// which the joiner ignores as stale, so none is sent.
		return
	}
	if e.joinWaiters[key] {
		return // a retry: parked already, and answered with the rest
	}
	e.joinWaiters[key] = true
	delete(e.unparked, key)
	if e.stormAt.IsZero() {
		e.stormAt = e.now
	}
	e.addAlert(remoting.AlertMessage{
		EdgeSrc:         e.me.Addr,
		EdgeDst:         msg.Sender,
		Status:          remoting.EdgeUp,
		ConfigurationID: currentConfig,
		RingNumbers:     rings,
		JoinerID:        msg.JoinerID,
		Metadata:        msg.Metadata,
	})
}

// admitted is the phase-2 answer for a joiner the current configuration
// contains. Members is the engine's shared slice: the receiver must not write
// to it (rapid-vet's snapshot check holds callers to that).
func (e *engine) admitted() *remoting.Request {
	return &remoting.Request{Answer: &remoting.Response{Join: &remoting.JoinResponse{
		Sender:          e.me.Addr,
		Status:          remoting.JoinSafeToJoin,
		ConfigurationID: e.view.ConfigurationID(),
		Members:         e.members,
	}}}
}

// redirect is the phase-2 answer that sends a joiner back to phase 1: this
// configuration will not admit it, the one named here might.
func (e *engine) redirect() *remoting.Request {
	return &remoting.Request{Answer: &remoting.Response{Join: &remoting.JoinResponse{
		Sender:          e.me.Addr,
		Status:          remoting.JoinConfigChanged,
		ConfigurationID: e.view.ConfigurationID(),
	}}}
}

// --- view changes -------------------------------------------------------------

// applyDecision installs the configuration the agreed multi-process cut
// leads to: finish calls it once per decided instance. It resets the
// per-configuration protocol state, the flush window included, answers the
// joiners that were waiting on this view change, arms the first probe round,
// and leaves the new snapshot and the subscribers' notification in this
// step's outputs.
func (e *engine) applyDecision(proposal []node.Endpoint) {
	var joiners, leavers []node.Endpoint
	for _, ep := range proposal {
		if m, ok := e.view.Member(ep.Addr); ok && m.ID == ep.ID {
			leavers = append(leavers, ep)
		} else {
			joiners = append(joiners, ep)
		}
	}
	// The decision push. This process is about to drop the instance that just
	// decided, and with it everything it would have relayed: pushed now, the
	// deciding aggregate lets its vote targets decide too, or the relay chain
	// ends at whoever decides first. A member whose vote-ring observers all
	// leave would hear nothing — its recovery round goes to acceptors that
	// have moved on — so decisionTargets adds it. In a one-hop membership only
	// a vote of its own that has not left yet still matters to anyone.
	if e.relays() {
		e.pushVotes(e.decisionTargets(leavers))
	} else if e.votesDirty {
		e.pushVotes(e.voteTargets)
	}

	e.pastConfigs = append(e.pastConfigs, e.view.ConfigurationID())
	if len(e.pastConfigs) > maxPastConfigs {
		e.pastConfigs = e.pastConfigs[1:]
	}

	// A cut names members to remove and everybody else to admit; the view
	// says what it actually did, and the process builds the configuration
	// once however many of its members apply the cut (view.ApplyCut). A
	// learned membership is built from its list with view.NewShared, which
	// in an in-process fleet is the ensemble's build's own slice and is found
	// without being compared.
	joined, left := joiners, leavers
	if e.learned != nil {
		e.view, e.learned = view.NewShared(e.view.K(), e.learned), nil
	} else {
		joined, left = e.view.ApplyCut(joiners, node.EndpointAddrs(leavers))
	}
	changes := make([]StatusChange, 0, len(joined)+len(left))
	for _, ep := range left {
		changes = append(changes, StatusChange{Endpoint: ep, Joined: false})
	}
	for _, ep := range joined {
		changes = append(changes, StatusChange{Endpoint: ep, Joined: true})
	}

	e.viewChanges++

	// Per-configuration state is reset: tallies never carry across views.
	e.cd.Clear()
	e.alertedEdges = make(map[node.Addr]bool)
	e.pendingAlerts = nil
	e.install()
	e.out.change = &ViewChange{ConfigurationID: e.view.ConfigurationID(), Members: e.members, Changes: changes}

	// Settle every parked joiner now, with one send for those this view
	// change admitted — they get the new configuration — and one for the
	// rest, redirected to phase 1, where the seed names their observers in
	// the new K rings. Keeping one parked and re-filing its JOIN alert here
	// would report only the rings this process still holds for it — after a
	// small view grew, a handful of K — and a JOIN tally in [L, H) that can
	// never reach H blocks every member's proposal (§4.2: no subject may be
	// unstable) until the joiner times out. Both lists are sorted by address,
	// so the same inputs give the same sends whatever the map's order.
	var admitted, redirected []node.Addr
	for key := range e.joinWaiters {
		if ep, ok := e.view.Member(key.addr); ok && ep.ID == key.id {
			admitted = append(admitted, key.addr)
		} else {
			redirected = append(redirected, key.addr)
		}
	}
	node.SortAddrs(admitted)
	node.SortAddrs(redirected)
	// The answers go out ahead of the decision push and everything else this
	// step sends: a joiner waits on its answer, nobody waits on the push, and
	// a best-effort send queues behind those sent before it.
	var answers []send
	if len(admitted) > 0 {
		answers = append(answers, send{to: admitted, req: e.admitted()})
	}
	if len(redirected) > 0 {
		answers = append(answers, send{to: redirected, req: e.redirect()})
	}
	if len(answers) > 0 {
		e.out.sends = append(answers, e.out.sends...)
	}
	clear(e.joinWaiters)
	clear(e.unparked)
	e.stormAt = time.Time{}
	// The flush window belongs to the configuration, like the tallies: the
	// alert batches and vote pushes of the view change just decided grew it,
	// and a join into the new configuration must not wait out its decay. A
	// joiner sent back to phase 1 says a join storm is still under way, and
	// the storm keeps the window it grew.
	if len(redirected) == 0 {
		e.restartWindow()
	}
	// Requests that were waiting for this install are now current (or, if the
	// joiner was just admitted, answered with the configuration), and handled
	// in joiner order; one that names a configuration still to come is held.
	early := make([]*remoting.JoinRequest, 0, len(e.earlyJoins))
	for _, msg := range e.earlyJoins {
		early = append(early, msg)
	}
	clear(e.earlyJoins)
	slices.SortFunc(early, func(a, b *remoting.JoinRequest) int {
		return cmp.Or(cmp.Compare(a.Sender, b.Sender), a.JoinerID.Compare(b.JoinerID))
	})
	for _, msg := range early {
		e.handleJoinPhase2(msg)
	}
}

// dedupeEndpoints removes duplicate endpoints and sorts by address so every
// process that detected the same cut votes for a byte-identical proposal.
func dedupeEndpoints(in []node.Endpoint) []node.Endpoint {
	seen := make(map[node.Addr]bool, len(in))
	out := make([]node.Endpoint, 0, len(in))
	for _, ep := range in {
		if seen[ep.Addr] {
			continue
		}
		seen[ep.Addr] = true
		out = append(out, ep)
	}
	slices.SortFunc(out, node.CompareEndpoints)
	return out
}
