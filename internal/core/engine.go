package core

import (
	"slices"
	"time"

	"repro/internal/cutdetect"
	"repro/internal/fastpaxos"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/view"
)

// This file implements the cluster's single-writer protocol engine. One
// goroutine — the engine loop — owns every piece of per-configuration
// protocol state: the K-ring view, the multi-process cut detector, the
// consensus instance, the pending join waiters, and the outbound alert batch.
// All protocol inputs (batched alerts, consensus messages, failure-detector
// verdicts, join and leave requests) arrive as events on one queue and are
// applied sequentially, so no mutex guards protocol state and the message
// path never contends on a lock. The engine owns its deadlines too: they are
// fields it checks on its own ticks, never goroutines that read protocol
// state from outside. Transport handlers are thin enqueuers; see handlers.go.

// event is the union of everything the engine consumes. Exactly one of req,
// preJoin, join, joinGone and subjectDown is set per event. A flat struct
// (rather than an interface) keeps the hot path — inbound batches and
// consensus votes — allocation-free.
type event struct {
	// req is a one-way protocol message (batch, consensus phase, leave),
	// queued as the transport delivered it; dispatchRequest tells which.
	req *remoting.Request
	// network is true when a batch arrived from the transport (as opposed to
	// the engine delivering its own flush to itself in gossip mode).
	network bool

	preJoin *preJoinEvent
	join    *joinEvent
	// joinGone tells the engine that the handler serving this phase-2 request
	// stopped waiting (its caller's context ended or JoinPhase2Timeout ran
	// out), so the request must not stay parked.
	joinGone    *joinEvent
	subjectDown node.Addr
}

// preJoinEvent carries a phase-1 join request and its reply channel.
type preJoinEvent struct {
	msg   *remoting.PreJoinRequest
	reply chan *remoting.PreJoinResponse
}

// joinEvent carries a phase-2 join request and its reply channel (buffered,
// so the engine never blocks on a handler that stopped listening). The engine
// replies at once, parks the request with the join waiters until the next
// view change settles it, or holds it as early until the configuration it
// names is installed.
type joinEvent struct {
	msg   *remoting.JoinRequest
	reply chan *remoting.JoinResponse
}

// joinerKey identifies one incarnation of a joining process.
type joinerKey struct {
	addr node.Addr
	id   node.ID
}

// batchKey identifies one flushed alert batch for gossip deduplication.
type batchKey struct {
	origin node.Addr
	seq    uint64
}

// engine is the single-writer owner of all protocol state. Only the run
// goroutine touches the engine-owned fields after initialization; rapid-vet's
// singlewriter analyzer enforces that every access is reachable from an
// engine-entry root (newEngine, which happens-before the loop goroutine
// starts, and run itself).
type engine struct {
	c *Cluster

	view *view.View // engine-owned
	// members and addrs are the membership sorted by address, myIndex this
	// process' place in it (-1 once it has been removed), and subjects the
	// distinct processes it monitors: all four are derived from the view once
	// per installed configuration. A voter bitmap is indexed the way addrs is.
	// members and addrs are never written after install built them: the
	// snapshot, the view-change notification, every join response and the
	// unicast broadcaster hold these very slices.
	members   []node.Endpoint      // engine-owned
	addrs     []node.Addr          // engine-owned
	myIndex   int                  // engine-owned
	subjects  []node.Addr          // engine-owned
	cd        *cutdetect.Detector  // engine-owned
	consensus *fastpaxos.FastPaxos // engine-owned
	// votesDirty is set while the consensus instance holds votes this process
	// has not pushed to its vote targets yet: its own, or, when it relays,
	// whatever an inbound aggregate taught it. engine-owned.
	votesDirty bool
	// fallbackAt is the recovery deadline of the current consensus instance:
	// armed when this process votes, cleared when the instance decides, and
	// checked on the reinforcement tick. Zero while unarmed. engine-owned.
	fallbackAt time.Time

	alertedEdges map[node.Addr]bool // engine-owned
	// joinWaiters parks phase-2 join requests made in the current
	// configuration until the next view change answers them: admitted, or
	// redirected to phase 1. One request per joiner incarnation; a retry
	// replaces the one it supersedes. engine-owned.
	joinWaiters map[joinerKey]*joinEvent
	// joinAlerted records the joiners this process already filed a JOIN alert
	// for in the current configuration: alerts are irrevocable, so a retry
	// parks again without another broadcast. engine-owned.
	joinAlerted map[joinerKey]bool
	// earlyJoins holds phase-2 requests that name a configuration this
	// process has not installed yet (the seed that served the joiner's phase 1
	// decided first); they are re-evaluated after every install. engine-owned.
	earlyJoins  []*joinEvent
	viewChanges int // engine-owned

	// Outbound alert batch: alerts generated within one batching window leave
	// as a single wire message on the next flush.
	pendingAlerts []remoting.AlertMessage // engine-owned
	outSeq        uint64                  // engine-owned

	// winCtl sizes the flush window between the configured floor and ceiling
	// from queue depth and arrival rate (see adaptive.go); arrivals counts
	// the batches dispatched since the last flush, its rate input.
	winCtl   windowController // engine-owned
	arrivals int              // engine-owned
	// flush is the batching timer and flushArmed says whether a tick is on its
	// way: it is armed only while there is something to flush or to measure
	// (see armFlush), so a quiet engine wakes for nothing but its
	// reinforcement tick.
	flush      simclock.Timer // engine-owned
	flushArmed bool           // engine-owned

	// seenBatches deduplicates gossip-forwarded alert batches.
	seenBatches map[batchKey]bool // engine-owned
	// rumors are alert batches this process still re-gossips on upcoming batch
	// ticks (push gossip needs multiple rounds for whp coverage).
	rumors []rumor // engine-owned
}

// rumor is one batch awaiting further gossip rounds.
type rumor struct {
	req       *remoting.Request
	remaining int
}

// gossipRounds is how many times each process pushes a batch it originated or
// first received: one immediate broadcast plus re-gossip on subsequent batch
// ticks. Multiple rounds give flooding its with-high-probability coverage;
// one-shot forwarding can strand a member without a consensus quorum.
const gossipRounds = 3

// maxRumors bounds the re-gossip buffer; under extreme churn the oldest
// rumors are dropped first (their content is also the most likely to be
// superseded or already delivered).
const maxRumors = 256

// maxSeenBatches bounds the gossip dedup set. (origin, seq) keys are never
// reused, so the set only needs to cover batches that may still circulate; a
// full reset merely risks one extra round of config-filtered re-gossip.
const maxSeenBatches = 8192

// newEngine builds the engine state for the first configuration. It runs on
// the caller's goroutine; the run loop takes sole ownership afterwards (the
// goroutine start gives the required happens-before edge).
//
// engine-entry: construction precedes the loop goroutine.
func newEngine(c *Cluster, members []node.Endpoint) *engine {
	e := &engine{
		c:            c,
		view:         view.NewWithMembers(c.settings.K, members),
		cd:           cutdetect.New(c.settings.K, c.settings.H, c.settings.L),
		alertedEdges: make(map[node.Addr]bool),
		joinWaiters:  make(map[joinerKey]*joinEvent),
		joinAlerted:  make(map[joinerKey]bool),
		seenBatches:  make(map[batchKey]bool),
		// Seed the batch sequence from this instance's unique logical ID: a
		// process that restarts and rejoins under the same address must not
		// collide with (address, seq) dedup entries its previous incarnation
		// left behind on long-lived members.
		outSeq: c.me.ID.Low,
		winCtl: newWindowController(c.settings.BatchingWindowMin, c.settings.BatchingWindowMax),
	}
	c.emetrics.BatchWindow.Set(int64(e.winCtl.window))
	// An engine is born armed: it usually boots mid-storm, and if it does not,
	// the first ticks are the window's decay to its floor.
	e.flush, e.flushArmed = c.clock.Timer(e.winCtl.window), true
	e.install()
	return e
}

// install derives everything the engine keeps per configuration from the
// view it just built or changed — the view hands out its address order, the
// only O(N) copy made here — and publishes the result: broadcast recipients, a
// fresh consensus instance, the snapshot readers see.
func (e *engine) install() {
	c := e.c
	e.members = e.view.Members()
	e.addrs = node.EndpointAddrs(e.members)
	e.myIndex = -1
	if i, ok := slices.BinarySearch(e.addrs, c.me.Addr); ok {
		e.myIndex = i
	}
	e.subjects = nil
	if e.myIndex >= 0 {
		e.subjects, _ = e.view.UniqueSubjectsOf(c.me.Addr)
	}
	c.unicast.SetMembership(e.addrs)
	if c.broadcaster != c.unicast {
		c.broadcaster.SetMembership(e.addrs)
	}
	e.consensus = e.newConsensus()
	e.votesDirty = false
	e.fallbackAt = time.Time{}
	c.publishSnapshot(e.view.ConfigurationID(), e.members, e.viewChanges)
}

// run is the engine loop: the only goroutine that mutates protocol state.
//
// engine-entry: the single-writer goroutine itself.
func (e *engine) run() {
	c := e.c
	defer c.wg.Done()
	// The initial monitor subject set is published from this goroutine so
	// that it is ordered before any view change's update: publishing it from
	// the initializer could overwrite a newer set with the stale initial one.
	c.setMonitorSubjects(e.subjects)
	defer e.flush.Stop()
	// The unstable set and the recovery deadline are checked five times per
	// ReinforcementTimeout (1 s by default), never more often than the
	// millisecond ScaledSettings floors every duration at.
	reinforce := c.clock.Ticker(max(c.settings.ReinforcementTimeout/5, time.Millisecond))
	defer reinforce.Stop()
	for {
		e.armFlush()
		select {
		case <-c.stopCh:
			return
		case ev := <-c.events:
			e.dispatch(ev)
			c.emetrics.EventsProcessed.Add(1)
		case <-e.flush.C():
			e.flushTick()
		case <-reinforce.C():
			e.reinforce()
		}
	}
}

// armFlush arms the flush timer, with the window the controller last chose,
// if it is not running and a tick has work to do:
//
//   - output is pending — buffered alerts, votes not pushed yet, or rumors
//     with gossip rounds left;
//   - or a batch was dispatched since the last flush, which the controller
//     must see at the end of this window to size the next one;
//   - or the window is still above its floor and has to decay there, one
//     halving per quiet tick.
//
// Otherwise the timer stays stopped. The loop asks after every event and
// tick, so the first alert after a quiet spell leaves exactly one floor
// window after it was raised.
func (e *engine) armFlush() {
	if e.flushArmed {
		return
	}
	if len(e.pendingAlerts) == 0 && !e.votesDirty && len(e.rumors) == 0 &&
		e.arrivals == 0 && e.winCtl.window <= e.winCtl.floor {
		return
	}
	e.flushArmed = true
	e.flush.Reset(e.winCtl.window)
}

// flushTick is one firing of the flush timer: it sends what the window
// gathered and lets the controller size the next window from the live queue
// depth and the batches dispatched during this one.
func (e *engine) flushTick() {
	c := e.c
	e.flushArmed = false
	// Rumors first: a batch flushed this tick had its first push inside
	// flushOutbox, so its next round belongs to the next tick.
	e.regossip()
	e.flushOutbox()
	next := e.winCtl.retune(len(c.events), cap(c.events), e.arrivals)
	e.arrivals = 0
	c.emetrics.BatchWindow.Set(int64(next))
}

// dispatch routes one event to its handler.
func (e *engine) dispatch(ev event) {
	switch {
	case ev.req != nil:
		e.dispatchRequest(ev.req, ev.network)
	case ev.preJoin != nil:
		e.handlePreJoin(ev.preJoin)
	case ev.join != nil:
		e.handleJoinPhase2(ev.join)
	case ev.joinGone != nil:
		e.forgetJoin(ev.joinGone)
	case ev.subjectDown != "":
		e.handleSubjectFailed(ev.subjectDown)
	}
}

// dispatchRequest is the one place that tells the protocol messages apart.
// Anything else HandleRequest let through (an empty or foreign request) is
// ignored.
func (e *engine) dispatchRequest(req *remoting.Request, network bool) {
	switch {
	case req.Alerts != nil || req.VoteBatch != nil:
		e.arrivals++
		e.handleBatch(req, network)
	case req.P1a != nil:
		e.consensus.HandlePhase1a(req.P1a)
	case req.P1b != nil:
		e.consensus.HandlePhase1b(req.P1b)
	case req.P2a != nil:
		e.consensus.HandlePhase2a(req.P2a)
	case req.P2b != nil:
		e.consensus.HandlePhase2b(req.P2b)
	case req.Leave != nil:
		// A graceful leave is a REMOVE alert its observers file at once.
		e.handleSubjectFailed(req.Leave.Sender)
	}
}

// newConsensus builds the consensus instance for the current view. This
// process' own vote comes back through addVote; the classical recovery path
// broadcasts directly via unicast-to-all so it needs no gossip cooperation.
func (e *engine) newConsensus() *fastpaxos.FastPaxos {
	c := e.c
	return fastpaxos.New(fastpaxos.Config{
		MyAddr:          c.me.Addr,
		MyIndex:         e.myIndex,
		MembershipSize:  len(e.addrs),
		ConfigurationID: e.view.ConfigurationID(),
		Client:          c.client,
		Broadcaster:     c.unicast,
		VoteSink:        e.addVote,
		OnDecide:        e.applyDecision,
	})
}

// --- outbound batching -------------------------------------------------------

// addAlert buffers an alert for the next flush.
func (e *engine) addAlert(alert remoting.AlertMessage) {
	e.pendingAlerts = append(e.pendingAlerts, alert)
}

// addVote counts this process' own fast-round vote — the consensus VoteSink
// hands it over with this process' bit set — and marks it for the next push.
// It only ever runs on the engine goroutine (consensus methods are invoked
// exclusively from dispatch). The flag is set first: a vote that completes
// the quorum installs the next configuration inside Merge, and that push
// (see applyDecision) is the only one this vote will get.
func (e *engine) addVote(vote *remoting.FastRoundPhase2b) {
	e.votesDirty = true
	e.consensus.Merge(vote.ConfigurationID, vote.Proposal, vote.Voters)
}

// relays reports whether votes travel along the K rings in this
// configuration (see Settings.oneHopLimit).
func (e *engine) relays() bool { return len(e.addrs) > e.c.settings.oneHopLimit() }

// pushVotes sends what the consensus instance knows — one voter bitmap per
// distinct proposal — to this process' vote targets: its ring subjects when
// it relays, otherwise every other member, which makes one hop enough.
func (e *engine) pushVotes() {
	c := e.c
	e.votesDirty = false
	votes := e.consensus.Aggregates()
	if len(votes) == 0 {
		return
	}
	e.outSeq++
	req := &remoting.Request{VoteBatch: &remoting.FastRoundVoteBatch{Sender: c.me.Addr, Seq: e.outSeq, Votes: votes}}
	c.emetrics.BatchSizes.Observe(float64(len(votes)))
	c.emetrics.BatchesSent.Add(1)
	targets := e.addrs
	if e.relays() {
		targets = e.subjects
	}
	for _, to := range targets {
		if to != c.me.Addr {
			c.client.SendBestEffort(to, req)
		}
	}
}

// flushOutbox sends what the last batching window produced: the vote
// aggregates, if this process learned of a vote since its last push, and the
// buffered alerts as one wire message (§6).
func (e *engine) flushOutbox() {
	if e.votesDirty {
		e.pushVotes()
	}
	if len(e.pendingAlerts) == 0 {
		return
	}
	c := e.c
	e.outSeq++
	req := &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: c.me.Addr, Seq: e.outSeq, Alerts: e.pendingAlerts}}
	c.emetrics.BatchSizes.Observe(float64(len(e.pendingAlerts)))
	c.emetrics.BatchesSent.Add(1)
	e.pendingAlerts = nil

	if c.settings.Broadcast == BroadcastGossip {
		// Gossip reaches a random fanout subset, so the sender cannot rely on
		// the network echoing the batch back: mark it seen and apply it
		// locally, then let the membership flood it.
		e.seenBatches[batchKey{origin: c.me.Addr, seq: e.outSeq}] = true
		c.broadcaster.Broadcast(req)
		e.addRumor(req)
		e.handleBatch(req, false)
		return
	}
	// Unicast-to-all includes this process, so the batch comes back through
	// the transport like everyone else's.
	c.broadcaster.Broadcast(req)
}

// addRumor queues a batch for further gossip rounds on upcoming batch ticks.
func (e *engine) addRumor(req *remoting.Request) {
	if len(e.rumors) >= maxRumors {
		e.rumors = e.rumors[1:]
	}
	e.rumors = append(e.rumors, rumor{req: req, remaining: gossipRounds - 1})
}

// regossip pushes every buffered rumor to a fresh random fanout subset. Runs
// on each batch tick in gossip mode.
func (e *engine) regossip() {
	if len(e.rumors) == 0 {
		return
	}
	kept := e.rumors[:0]
	for _, r := range e.rumors {
		e.c.broadcaster.Broadcast(r.req)
		if r.remaining--; r.remaining > 0 {
			kept = append(kept, r)
		}
	}
	e.rumors = kept
}

// --- inbound protocol events -------------------------------------------------

// handleBatch applies one inbound batch: alerts through cut detection
// (possibly casting this process' vote), then vote aggregates into the
// consensus tally.
func (e *engine) handleBatch(req *remoting.Request, network bool) {
	// Dedup and re-broadcast only exist for gossip, and only for alerts:
	// unicast-to-all delivers each batch exactly once, so the default mode
	// skips the bookkeeping on its hot path entirely.
	gossiped := network && e.c.settings.Broadcast == BroadcastGossip
	if req.Alerts != nil && (!gossiped || e.forwardOnce(req)) {
		e.handleAlerts(req.Alerts)
	}
	if req.VoteBatch != nil {
		e.handleVotes(req.VoteBatch)
	}
}

// forwardOnce is the gossip bookkeeping of an inbound alert batch: it reports
// whether the batch is new to this process, and if so re-broadcasts it — so
// gossip floods the membership, as the broadcast package's contract requires
// — and keeps pushing it for the remaining gossip rounds.
func (e *engine) forwardOnce(req *remoting.Request) bool {
	key := batchKey{origin: req.Alerts.Sender, seq: req.Alerts.Seq}
	if e.seenBatches[key] {
		e.c.emetrics.GossipDuplicates.Add(1)
		return false
	}
	if len(e.seenBatches) >= maxSeenBatches {
		e.seenBatches = make(map[batchKey]bool)
	}
	e.seenBatches[key] = true
	e.c.broadcaster.Broadcast(req)
	e.addRumor(req)
	return true
}

// handleVotes merges a peer's vote aggregates. When this process relays, an
// aggregate that taught it a voter is pushed on at the next flush; in a
// one-hop membership every voter reaches every member itself.
func (e *engine) handleVotes(batch *remoting.FastRoundVoteBatch) {
	cons := e.consensus
	learned := false
	for i := range batch.Votes {
		v := &batch.Votes[i]
		if cons.Merge(v.ConfigurationID, v.Proposal, v.Voters) {
			learned = true
		}
		if e.consensus != cons {
			// That aggregate completed a quorum: Merge installed the next
			// configuration, and the rest of the batch names the one just left.
			return
		}
	}
	if learned && e.relays() {
		e.votesDirty = true
	}
}

// handleAlerts feeds observer alerts into the cut detector and, when the
// aggregation rule fires, casts this process' consensus vote (§4.2, §4.3).
func (e *engine) handleAlerts(batch *remoting.BatchedAlertMessage) {
	now := e.c.clock.Now()
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
		proposal = append(proposal, e.cd.AggregateForProposal(alert, subject, now)...)
	}
	// Implicit alerts (§4.2, liveness) scan every unstable subject's would-be
	// observers — O(unstable x K^2) ring searches. Their outcome can only
	// change when a REMOVE alert made some observer unstable, so the scan is
	// skipped for join/vote-only batches; during a 1000-node bootstrap storm
	// (hundreds of unstable joiners, zero failures) this check was >80% of
	// all CPU. The reinforcement tick re-runs the scan as a backstop.
	if downApplied {
		proposal = append(proposal, e.cd.InvalidateFailingEdges(e.view, now)...)
	}
	e.propose(proposal)
}

// propose casts this process' consensus vote for a non-empty proposal if it
// has not voted in this configuration yet.
func (e *engine) propose(proposal []node.Endpoint) {
	if len(proposal) == 0 {
		return
	}
	cons := e.consensus
	// A process its view no longer contains has no vote (and no bit).
	if e.myIndex < 0 || cons.HasProposed() {
		return
	}
	proposal = dedupeEndpoints(proposal)
	// A lone seed is the only voter on its cut, so it may admit any part of
	// it, and it admits at most oneHopLimit (4K) joiners: the largest
	// electorate that still counts the next wave's votes in one hop, and 4K
	// members already give the next joiners K observers that are distinct but
	// for one on average. Left alone, the timing of a bootstrap storm against
	// the seed's first window picks this number: five joiners, or three
	// hundred.
	if solo := e.c.settings.oneHopLimit(); len(e.addrs) == 1 && len(proposal) > solo {
		proposal = proposal[:solo]
	}
	// Arm the recovery deadline: the base delay plus a per-node jitter, so a
	// single coordinator usually emerges. Armed before the vote is cast: a
	// single-process cluster decides inside Propose, and that clears it again.
	base := e.c.settings.ConsensusFallbackBase
	e.fallbackAt = e.c.clock.Now().Add(base + time.Duration(e.myIndex%8)*base/8)
	cons.Propose(proposal)
}

// handleSubjectFailed converts an edge failure detector verdict into an
// irrevocable REMOVE alert (enqueued for the next batch).
func (e *engine) handleSubjectFailed(subject node.Addr) {
	if !e.view.Contains(subject) || e.alertedEdges[subject] {
		return
	}
	rings := e.view.RingNumbers(e.c.me.Addr, subject)
	if len(rings) == 0 {
		return
	}
	e.alertedEdges[subject] = true
	e.addAlert(remoting.AlertMessage{
		EdgeSrc:         e.c.me.Addr,
		EdgeDst:         subject,
		Status:          remoting.EdgeDown,
		ConfigurationID: e.view.ConfigurationID(),
		RingNumbers:     rings,
	})
}

// reinforce echoes REMOVE alerts for subjects stuck in the unstable report
// region longer than ReinforcementTimeout (§4.2, liveness), re-runs the
// implicit-alert scan that handleAlerts skips for join/vote-only batches, and
// starts a classical recovery round when the consensus instance this process
// voted in is past its deadline — again every ConsensusFallbackBase for as
// long as it stays undecided, each time with a higher rank. Votes not pushed
// yet go out on this tick too, so they never wait on a flush window that was
// configured longer than it.
func (e *engine) reinforce() {
	c := e.c
	now := c.clock.Now()
	if e.votesDirty {
		e.pushVotes()
	}
	stuck := e.cd.UnstableLongerThan(now, c.settings.ReinforcementTimeout)
	for _, subject := range stuck {
		e.handleSubjectFailed(subject)
	}
	e.propose(e.cd.InvalidateFailingEdges(e.view, now))
	if !e.fallbackAt.IsZero() && !now.Before(e.fallbackAt) {
		e.fallbackAt = now.Add(c.settings.ConsensusFallbackBase)
		e.consensus.StartClassicalRound()
	}
}

// handlePreJoin serves phase 1 of the join protocol: a seed returns the
// joiner's temporary observers in the current configuration.
func (e *engine) handlePreJoin(ev *preJoinEvent) {
	msg := ev.msg
	resp := &remoting.PreJoinResponse{Sender: e.c.me.Addr}
	resp.Status = e.view.IsSafeToJoin(msg.Sender, msg.JoinerID)
	resp.ConfigurationID = e.view.ConfigurationID()
	switch resp.Status {
	case remoting.JoinSafeToJoin:
		resp.Observers = e.view.ExpectedObserversOf(msg.Sender)
	case remoting.JoinHostAlreadyInRing:
		// If the very same process (same logical ID) retries its join — for
		// example because the response to its phase-2 request was lost — the
		// view change admitting it already happened. Point it at its actual
		// observers; their phase-2 handler replies immediately with the
		// current configuration.
		if existing, ok := e.view.Member(msg.Sender); ok && existing.ID == msg.JoinerID {
			resp.Status = remoting.JoinSafeToJoin
			if obs, err := e.view.ObserversOf(msg.Sender); err == nil {
				resp.Observers = obs
			}
		}
	}
	ev.reply <- resp
}

// handleJoinPhase2 serves phase 2 of the join protocol on one of the joiner's
// temporary observers: it broadcasts a JOIN alert and parks the reply channel
// until the next view change, which either admits the joiner or redirects it
// to phase 1 (see applyDecision).
func (e *engine) handleJoinPhase2(ev *joinEvent) {
	msg := ev.msg
	c := e.c
	currentConfig := e.view.ConfigurationID()
	// If the joiner is already a member, the view change raced ahead of this
	// request (or it is a retry): answer immediately with the configuration.
	// After a big admission wave hundreds of such requests arrive; they all
	// get the configuration's one membership slice.
	if existing, ok := e.view.Member(msg.Sender); ok && existing.ID == msg.JoinerID {
		ev.reply <- e.admitted()
		return
	}
	if msg.ConfigurationID != currentConfig {
		if c.snap.Load().pastConfigs[msg.ConfigurationID] {
			ev.reply <- e.redirect()
			return
		}
		// The request is early, not stale: the seed installed a configuration
		// this member is still deciding. Bouncing it would cost the joiner a
		// ring it needs to reach H; it is served once the install catches up.
		e.earlyJoins = append(e.earlyJoins, ev)
		return
	}
	rings := e.view.RingNumbers(c.me.Addr, msg.Sender)
	if len(rings) == 0 {
		// We are not one of the joiner's observers in this configuration.
		ev.reply <- e.redirect()
		return
	}
	key := joinerKey{addr: msg.Sender, id: msg.JoinerID}
	if old := e.joinWaiters[key]; old != nil {
		// A retry supersedes the request it gave up on; release that handler.
		old.reply <- e.redirect()
	}
	e.joinWaiters[key] = ev
	if e.joinAlerted[key] {
		return
	}
	e.joinAlerted[key] = true
	e.addAlert(remoting.AlertMessage{
		EdgeSrc:         c.me.Addr,
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
func (e *engine) admitted() *remoting.JoinResponse {
	return &remoting.JoinResponse{
		Sender:          e.c.me.Addr,
		Status:          remoting.JoinSafeToJoin,
		ConfigurationID: e.view.ConfigurationID(),
		Members:         e.members,
	}
}

// redirect is the phase-2 answer that sends a joiner back to phase 1: this
// configuration will not admit it, the one named here might.
func (e *engine) redirect() *remoting.JoinResponse {
	return &remoting.JoinResponse{Sender: e.c.me.Addr, Status: remoting.JoinConfigChanged, ConfigurationID: e.view.ConfigurationID()}
}

// forgetJoin drops a phase-2 request whose handler stopped waiting for it.
func (e *engine) forgetJoin(ev *joinEvent) {
	key := joinerKey{addr: ev.msg.Sender, id: ev.msg.JoinerID}
	if e.joinWaiters[key] == ev {
		delete(e.joinWaiters, key)
		return
	}
	for i, held := range e.earlyJoins {
		if held == ev {
			e.earlyJoins = append(e.earlyJoins[:i], e.earlyJoins[i+1:]...)
			return
		}
	}
}

// --- view changes -------------------------------------------------------------

// applyDecision is invoked by the consensus layer exactly once per
// configuration with the agreed multi-process cut, always on the engine
// goroutine. It installs the next configuration, resets the
// per-configuration protocol state, publishes the new snapshot, re-targets
// the failure-detector monitors, notifies subscribers, and answers joiners
// that were waiting on this view change.
func (e *engine) applyDecision(proposal []node.Endpoint) {
	c := e.c
	// The decision push. This process is about to drop the instance that just
	// decided, and with it everything it would have relayed: pushed now, to
	// the subjects of the configuration being left, the deciding aggregate
	// lets them decide too — otherwise the relay chain ends at whoever
	// decides first. In a one-hop membership only a vote of its own that has
	// not left yet still matters to anyone.
	if e.votesDirty || e.relays() {
		e.pushVotes()
	}

	// A cut names members to remove and everybody else to admit; the view
	// applies it in one pass per ring and says what it actually did.
	var joiners []node.Endpoint
	var leavers []node.Addr
	for _, ep := range proposal {
		if e.view.Contains(ep.Addr) {
			leavers = append(leavers, ep.Addr)
		} else {
			joiners = append(joiners, ep)
		}
	}
	joined, left := e.view.ApplyCut(joiners, leavers)
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
	// seenBatches and rumors survive the view change deliberately: (origin,
	// seq) keys are never reused, so dedup stays valid, and re-gossiping the
	// previous configuration's batches is what rescues members that have not
	// decided yet. Stale content is config-filtered on receipt.
	e.install()
	newConfigID := e.view.ConfigurationID()

	// Settle every parked joiner now. The incarnation this view change
	// admitted gets the new configuration; every other one is redirected to
	// phase 1, where the seed names its observers in the new K rings. Keeping
	// it parked and re-filing its JOIN alert here would report only the rings
	// this process still holds for it — after a small view grew, a handful of
	// K — and a JOIN tally in [L, H) that can never reach H blocks every
	// member's proposal (§4.2: no subject may be unstable) until the joiner
	// times out.
	var admitted *remoting.JoinResponse
	redirect := e.redirect()
	for key, w := range e.joinWaiters {
		resp := redirect
		if ep, ok := e.view.Member(key.addr); ok && ep.ID == key.id {
			if admitted == nil {
				admitted = e.admitted()
			}
			resp = admitted
		}
		w.reply <- resp
	}
	clear(e.joinWaiters)
	clear(e.joinAlerted)
	// Requests that were waiting for this install are now current (or, if the
	// joiner was just admitted, answered with the configuration).
	early := e.earlyJoins
	e.earlyJoins = nil
	for _, ev := range early {
		e.handleJoinPhase2(ev)
	}

	// Monitors depend on the subject set, which changed with the view; the
	// monitor manager swaps them without blocking the engine.
	c.setMonitorSubjects(e.subjects)

	c.notifier.publish(ViewChange{
		ConfigurationID: newConfigID,
		Members:         e.members,
		Changes:         changes,
	})
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
