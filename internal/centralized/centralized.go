// Package centralized implements Rapid's logically centralized mode (§5,
// "Rapid-C"): a small auxiliary ensemble S is the ground truth for the
// membership of a managed cluster C, the way systems commonly use ZooKeeper.
//
// Exactly as in the paper, only three things change relative to the
// decentralized protocol:
//
//  1. Members of C still monitor each other over the K-ring topology, but
//     report REMOVE alerts only to the ensemble members instead of
//     broadcasting them to all of C.
//  2. The ensemble members run the cut-detection protocol on the incoming
//     alerts and run the view-change consensus only among themselves.
//  3. Members of C learn about configuration changes by polling the ensemble
//     (GetView) periodically.
//
// The resulting service inherits Rapid's stability and agreement properties,
// with resiliency bounded by the ensemble (majority of S must be reachable).
package centralized

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/cutdetect"
	"repro/internal/edgefd"
	"repro/internal/fastpaxos"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/transport"
	"repro/internal/view"
)

// ErrJoinFailed indicates the member could not join within its join timeout.
var ErrJoinFailed = errors.New("centralized: join via ensemble failed")

// EnsembleSettings tune an ensemble node.
type EnsembleSettings struct {
	// K, H, L are the cut-detection parameters for the managed cluster.
	K, H, L int
	// ConsensusFallbackBase is the delay before classical Paxos recovery.
	ConsensusFallbackBase time.Duration
	// ProposalBatchWindow is how long a ready proposal waits for more
	// subjects before the ensemble runs consensus on it. A join alert
	// carries all K rings at once and so satisfies H by itself; without a
	// window a mass bootstrap degenerates to one view change per joiner.
	ProposalBatchWindow time.Duration
	// Clock supplies time.
	Clock simclock.Clock
}

// DefaultEnsembleSettings mirrors the decentralized defaults.
func DefaultEnsembleSettings() EnsembleSettings {
	return EnsembleSettings{
		K: 10, H: 9, L: 3,
		ConsensusFallbackBase: 4 * time.Second,
		ProposalBatchWindow:   time.Second,
		Clock:                 simclock.NewReal(),
	}
}

// EnsembleNode is one member of the auxiliary service S. A typical deployment
// runs three of them.
type EnsembleNode struct {
	settings EnsembleSettings
	addr     node.Addr
	peers    []node.Addr // all ensemble members, including self
	net      transport.Network
	client   transport.Client
	clock    simclock.Clock

	mu          sync.Mutex
	clusterView *view.View
	cd          *cutdetect.Detector
	consensus   *fastpaxos.FastPaxos
	broadcaster *broadcast.UnicastToAll
	viewChanges int
	stopped     bool
	// joinAlerted records joiners whose JOIN alert this node already
	// broadcast in the current configuration, so the retry storm of a mass
	// bootstrap (thousands of joiners re-requesting every poll interval)
	// costs one alert per joiner per view change instead of three ensemble
	// messages per retry. Cleared on every decide.
	joinAlerted map[node.Addr]bool
	// pendingProposal accumulates proposal subjects during the batching
	// window; windowGen invalidates an in-flight window when a decide
	// lands first. Guarded by mu.
	pendingProposal []node.Endpoint
	pendingSet      map[node.Addr]bool
	windowOpen      bool
	windowGen       uint64
}

// StartEnsemble boots the given ensemble addresses on the supplied network and
// returns a handle per member. The managed cluster starts empty.
func StartEnsemble(addrs []node.Addr, settings EnsembleSettings, net transport.Network) ([]*EnsembleNode, error) {
	if settings.Clock == nil {
		settings.Clock = simclock.NewReal()
	}
	if settings.K <= 0 {
		settings.K = 10
	}
	if settings.H <= 0 {
		settings.H = 9
	}
	if settings.L <= 0 {
		settings.L = 3
	}
	if settings.ConsensusFallbackBase <= 0 {
		settings.ConsensusFallbackBase = 4 * time.Second
	}
	if settings.ProposalBatchWindow <= 0 {
		settings.ProposalBatchWindow = time.Second
	}
	sorted := append([]node.Addr(nil), addrs...)
	node.SortAddrs(sorted)
	var nodes []*EnsembleNode
	for _, a := range sorted {
		n := &EnsembleNode{
			settings:    settings,
			addr:        a,
			peers:       sorted,
			net:         net,
			client:      net.Client(a),
			clock:       settings.Clock,
			clusterView: view.New(settings.K),
			cd:          cutdetect.New(settings.K, settings.H, settings.L),
			broadcaster: broadcast.NewUnicastToAll(net.Client(a)),
		}
		n.broadcaster.SetMembership(sorted)
		n.consensus = n.newConsensusLocked()
		if err := net.Register(a, n); err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// Stop deregisters the ensemble node.
func (e *EnsembleNode) Stop() {
	e.mu.Lock()
	e.stopped = true
	e.mu.Unlock()
	e.net.Deregister(e.addr)
}

// Addr returns the ensemble node's address.
func (e *EnsembleNode) Addr() node.Addr { return e.addr }

// ClusterSize returns the size of the managed cluster's current configuration.
func (e *EnsembleNode) ClusterSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clusterView.Size()
}

// ClusterMembers returns the managed cluster's membership.
func (e *EnsembleNode) ClusterMembers() []node.Endpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clusterView.Members()
}

// ConfigurationID returns the managed cluster's configuration identifier.
func (e *EnsembleNode) ConfigurationID() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clusterView.ConfigurationID()
}

// ViewChangeCount returns how many configuration changes have been applied.
func (e *EnsembleNode) ViewChangeCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.viewChanges
}

// newConsensusLocked builds the intra-ensemble consensus instance keyed by the
// managed cluster's configuration.
func (e *EnsembleNode) newConsensusLocked() *fastpaxos.FastPaxos {
	myIndex := sort.Search(len(e.peers), func(i int) bool { return e.peers[i] >= e.addr })
	return fastpaxos.New(fastpaxos.Config{
		MyAddr:          e.addr,
		MyIndex:         myIndex,
		MembershipSize:  len(e.peers),
		ConfigurationID: e.clusterView.ConfigurationID(),
		Client:          e.client,
		Broadcaster:     e.broadcaster,
		OnDecide:        e.onDecide,
	})
}

// HandleRequest implements transport.Handler for ensemble nodes.
func (e *EnsembleNode) HandleRequest(_ context.Context, from node.Addr, req *remoting.Request) (*remoting.Response, error) {
	switch {
	case req == nil:
		return remoting.AckResponse(), nil
	case req.Probe != nil:
		return &remoting.Response{Probe: &remoting.ProbeResponse{Sender: e.addr, Status: remoting.NodeOK}}, nil
	case req.GetView != nil:
		return e.handleGetView(req.GetView), nil
	case req.Join != nil:
		return e.handleJoin(req.Join), nil
	case req.Leave != nil:
		e.handleLeave(req.Leave)
		return remoting.AckResponse(), nil
	case req.Alerts != nil:
		e.handleAlerts(req.Alerts)
		return remoting.AckResponse(), nil
	case req.FastRound != nil:
		if cons := e.currentConsensus(); cons != nil {
			cons.HandleFastRoundVote(req.FastRound)
		}
		return remoting.AckResponse(), nil
	case req.P1a != nil:
		if cons := e.currentConsensus(); cons != nil {
			cons.HandlePhase1a(req.P1a)
		}
		return remoting.AckResponse(), nil
	case req.P1b != nil:
		if cons := e.currentConsensus(); cons != nil {
			cons.HandlePhase1b(req.P1b)
		}
		return remoting.AckResponse(), nil
	case req.P2a != nil:
		if cons := e.currentConsensus(); cons != nil {
			cons.HandlePhase2a(req.P2a)
		}
		return remoting.AckResponse(), nil
	case req.P2b != nil:
		if cons := e.currentConsensus(); cons != nil {
			cons.HandlePhase2b(req.P2b)
		}
		return remoting.AckResponse(), nil
	default:
		return remoting.AckResponse(), nil
	}
}

func (e *EnsembleNode) currentConsensus() *fastpaxos.FastPaxos {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return nil
	}
	return e.consensus
}

// handleGetView answers a member's poll for the current configuration.
func (e *EnsembleNode) handleGetView(msg *remoting.GetViewRequest) *remoting.Response {
	e.mu.Lock()
	defer e.mu.Unlock()
	cfg := e.clusterView.ConfigurationID()
	resp := &remoting.GetViewResponse{Sender: e.addr, ConfigurationID: cfg}
	if msg.KnownConfigurationID == cfg && cfg != 0 {
		resp.Unchanged = true
	} else {
		resp.Members = e.clusterView.Members()
	}
	return &remoting.Response{View: resp}
}

// handleJoin treats a join request as a JOIN alert on all rings, originating
// from this ensemble member, and forwards it to the whole ensemble so every
// member's cut detector observes it.
func (e *EnsembleNode) handleJoin(msg *remoting.JoinRequest) *remoting.Response {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return &remoting.Response{Join: &remoting.JoinResponse{Sender: e.addr, Status: remoting.JoinViewChangeInProgress}}
	}
	status := e.clusterView.IsSafeToJoin(msg.Sender, msg.JoinerID)
	cfg := e.clusterView.ConfigurationID()
	members := e.clusterView.Members()
	alreadyAlerted := false
	if status == remoting.JoinSafeToJoin {
		if e.joinAlerted == nil {
			e.joinAlerted = make(map[node.Addr]bool)
		}
		alreadyAlerted = e.joinAlerted[msg.Sender]
		e.joinAlerted[msg.Sender] = true
	}
	e.mu.Unlock()

	if status == remoting.JoinHostAlreadyInRing {
		// Already admitted (e.g. a retry): report success with the view.
		return &remoting.Response{Join: &remoting.JoinResponse{
			Sender: e.addr, Status: remoting.JoinSafeToJoin, ConfigurationID: cfg, Members: members,
		}}
	}
	if status != remoting.JoinSafeToJoin {
		return &remoting.Response{Join: &remoting.JoinResponse{Sender: e.addr, Status: status, ConfigurationID: cfg}}
	}
	if alreadyAlerted {
		// This joiner's alert is already in flight for this configuration;
		// acknowledge the retry without re-flooding the ensemble.
		return &remoting.Response{Join: &remoting.JoinResponse{Sender: e.addr, Status: remoting.JoinSafeToJoin, ConfigurationID: cfg}}
	}
	rings := make([]int, e.settings.K)
	for i := range rings {
		rings[i] = i
	}
	alert := remoting.AlertMessage{
		EdgeSrc:         e.addr,
		EdgeDst:         msg.Sender,
		Status:          remoting.EdgeUp,
		ConfigurationID: cfg,
		RingNumbers:     rings,
		JoinerID:        msg.JoinerID,
		Metadata:        msg.Metadata,
	}
	e.broadcaster.Broadcast(&remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: e.addr, Alerts: []remoting.AlertMessage{alert}}})
	return &remoting.Response{Join: &remoting.JoinResponse{Sender: e.addr, Status: remoting.JoinSafeToJoin, ConfigurationID: cfg}}
}

// handleLeave converts a leave announcement into a REMOVE alert on all rings.
func (e *EnsembleNode) handleLeave(msg *remoting.LeaveMessage) {
	e.mu.Lock()
	if e.stopped || !e.clusterView.Contains(msg.Sender) {
		e.mu.Unlock()
		return
	}
	cfg := e.clusterView.ConfigurationID()
	e.mu.Unlock()
	rings := make([]int, e.settings.K)
	for i := range rings {
		rings[i] = i
	}
	alert := remoting.AlertMessage{
		EdgeSrc:         e.addr,
		EdgeDst:         msg.Sender,
		Status:          remoting.EdgeDown,
		ConfigurationID: cfg,
		RingNumbers:     rings,
	}
	e.broadcaster.Broadcast(&remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: e.addr, Alerts: []remoting.AlertMessage{alert}}})
}

// handleAlerts runs the cut detector over alerts reported by cluster members
// (or forwarded by ensemble peers) and votes when a proposal forms.
func (e *EnsembleNode) handleAlerts(batch *remoting.BatchedAlertMessage) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	now := e.clock.Now()
	cfg := e.clusterView.ConfigurationID()
	var proposal []node.Endpoint
	for _, alert := range batch.Alerts {
		if alert.ConfigurationID != cfg {
			continue
		}
		var subject node.Endpoint
		if alert.Status == remoting.EdgeDown {
			ep, ok := e.clusterView.Member(alert.EdgeDst)
			if !ok {
				continue
			}
			subject = ep
		} else {
			if e.clusterView.Contains(alert.EdgeDst) {
				continue
			}
			subject = node.Endpoint{Addr: alert.EdgeDst, ID: alert.JoinerID, Metadata: alert.Metadata}
		}
		proposal = append(proposal, e.cd.AggregateForProposal(alert, subject, now)...)
	}
	proposal = append(proposal, e.cd.InvalidateFailingEdges(e.clusterView, now)...)
	if len(proposal) == 0 {
		e.mu.Unlock()
		return
	}
	// Merge into the pending proposal and (re)arm the batching window: a
	// single join alert satisfies H on its own, so proposing immediately
	// would run one consensus round per joiner during a mass bootstrap.
	// The window collects every subject that becomes proposable within it
	// into one view change, like the decentralized engine's alert batching.
	if e.pendingSet == nil {
		e.pendingSet = make(map[node.Addr]bool)
	}
	for _, ep := range proposal {
		if !e.pendingSet[ep.Addr] {
			e.pendingSet[ep.Addr] = true
			e.pendingProposal = append(e.pendingProposal, ep)
		}
	}
	if e.windowOpen || e.consensus.HasProposed() {
		e.mu.Unlock()
		return
	}
	e.windowOpen = true
	gen := e.windowGen
	window := e.settings.ProposalBatchWindow
	e.mu.Unlock()

	go func() {
		e.clock.Sleep(window)
		e.mu.Lock()
		if e.stopped || gen != e.windowGen {
			e.mu.Unlock()
			return
		}
		e.windowOpen = false
		deduped := e.pendingProposal
		e.pendingProposal, e.pendingSet = nil, nil
		cons := e.consensus
		alreadyProposed := cons.HasProposed()
		base := e.settings.ConsensusFallbackBase
		e.mu.Unlock()

		if alreadyProposed || len(deduped) == 0 {
			return
		}
		slices.SortFunc(deduped, node.CompareEndpoints)
		cons.Propose(deduped)
		go func() {
			e.clock.Sleep(base)
			if !cons.Decided() {
				cons.StartClassicalRound()
			}
		}()
	}()
}

// onDecide installs the next configuration of the managed cluster.
func (e *EnsembleNode) onDecide(proposal []node.Endpoint) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	for _, ep := range proposal {
		if e.clusterView.Contains(ep.Addr) {
			_ = e.clusterView.RemoveMember(ep.Addr)
		} else {
			_ = e.clusterView.AddMember(ep)
		}
	}
	e.viewChanges++
	e.cd.Clear()
	e.joinAlerted = nil
	// Invalidate any open batching window: its subjects were aggregated
	// against the configuration that just changed, and their alerts will
	// re-arrive (and re-aggregate) under the new one if still relevant.
	e.pendingProposal, e.pendingSet = nil, nil
	e.windowOpen = false
	e.windowGen++
	e.consensus = e.newConsensusLocked()
}

var _ transport.Handler = (*EnsembleNode)(nil)

// MemberSettings tune a managed-cluster member agent.
type MemberSettings struct {
	// K must match the ensemble's K.
	K int
	// PollInterval is how often the member polls the ensemble for view
	// changes (the paper uses 5 seconds).
	PollInterval time.Duration
	// ProbeInterval / ProbeTimeout configure edge monitoring.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailureDetector builds each monitored edge's judge.
	FailureDetector edgefd.Factory
	// JoinTimeout bounds the initial join.
	JoinTimeout time.Duration
	// Clock supplies time.
	Clock simclock.Clock
	// Metadata is attached to this member.
	Metadata map[string]string
}

// DefaultMemberSettings mirrors the paper's Rapid-C configuration.
func DefaultMemberSettings() MemberSettings {
	return MemberSettings{
		K:               10,
		PollInterval:    5 * time.Second,
		ProbeInterval:   time.Second,
		ProbeTimeout:    500 * time.Millisecond,
		FailureDetector: edgefd.NewPingPongFactory(edgefd.DefaultPingPongOptions()),
		JoinTimeout:     30 * time.Second,
		Clock:           simclock.NewReal(),
	}
}

// Member is a managed-cluster process: it monitors its k-ring subjects,
// reports alerts to the ensemble, and polls the ensemble for view changes.
type Member struct {
	settings MemberSettings
	me       node.Endpoint
	ensemble []node.Addr
	net      transport.Network
	client   transport.Client
	clock    simclock.Clock

	mu          sync.Mutex
	view        *view.View
	configID    uint64
	monitor     *edgefd.Monitor
	subscribers []func(configID uint64, members []node.Endpoint)
	alerted     map[node.Addr]bool
	stopped     bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// JoinViaEnsemble registers the member with the ensemble and starts its
// monitoring and polling loops once admitted.
func JoinViaEnsemble(addr node.Addr, ensemble []node.Addr, settings MemberSettings, net transport.Network) (*Member, error) {
	if settings.Clock == nil {
		settings.Clock = simclock.NewReal()
	}
	if settings.K <= 0 {
		settings.K = 10
	}
	if settings.PollInterval <= 0 {
		settings.PollInterval = 5 * time.Second
	}
	if settings.ProbeInterval <= 0 {
		settings.ProbeInterval = time.Second
	}
	if settings.ProbeTimeout <= 0 {
		settings.ProbeTimeout = settings.ProbeInterval / 2
	}
	if settings.FailureDetector == nil {
		settings.FailureDetector = edgefd.NewPingPongFactory(edgefd.DefaultPingPongOptions())
	}
	if settings.JoinTimeout <= 0 {
		settings.JoinTimeout = 30 * time.Second
	}
	m := &Member{
		settings: settings,
		me:       node.Endpoint{Addr: addr, ID: node.NewID(), Metadata: settings.Metadata},
		ensemble: append([]node.Addr(nil), ensemble...),
		net:      net,
		client:   net.Client(addr),
		clock:    settings.Clock,
		view:     view.New(settings.K),
		alerted:  make(map[node.Addr]bool),
		stopCh:   make(chan struct{}),
	}
	m.monitor = edgefd.NewMonitor(edgefd.Params{
		Observer:  addr,
		Client:    m.client,
		Clock:     m.clock,
		Interval:  settings.ProbeInterval,
		Timeout:   settings.ProbeTimeout,
		Judges:    settings.FailureDetector,
		OnFailure: m.onSubjectFailed,
	})
	if err := net.Register(addr, m); err != nil {
		return nil, err
	}
	if err := m.join(); err != nil {
		net.Deregister(addr)
		return nil, err
	}
	m.wg.Add(1)
	go m.pollLoop()
	return m, nil
}

// join sends the join request to ensemble members and waits (by polling)
// until this member appears in the configuration.
func (m *Member) join() error {
	deadline := m.clock.Now().Add(m.settings.JoinTimeout)
	for m.clock.Now().Before(deadline) {
		for _, ens := range m.ensemble {
			// Bound each attempt like a probe, not by the whole join budget:
			// under a join storm an ensemble endpoint can back up for
			// seconds, and one blocked Send must not consume the deadline
			// that the retry loop exists to spend.
			ctx, cancel := simclock.WithTimeout(m.clock, m.settings.ProbeTimeout*4)
			_, _ = m.client.Send(ctx, ens, &remoting.Request{Join: &remoting.JoinRequest{
				Sender:   m.me.Addr,
				JoinerID: m.me.ID,
				Metadata: m.me.Metadata,
			}})
			cancel()
			if m.refreshView() && m.viewContainsSelf() {
				return nil
			}
		}
		m.clock.Sleep(m.settings.PollInterval / 2)
		if m.refreshView() && m.viewContainsSelf() {
			return nil
		}
	}
	return ErrJoinFailed
}

func (m *Member) viewContainsSelf() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.Contains(m.me.Addr)
}

// refreshView polls one ensemble member and installs a new configuration if
// one exists. It reports whether a poll succeeded.
func (m *Member) refreshView() bool {
	m.mu.Lock()
	known := m.configID
	m.mu.Unlock()
	for _, ens := range m.ensemble {
		ctx, cancel := simclock.WithTimeout(m.clock, m.settings.ProbeTimeout*4)
		resp, err := m.client.Send(ctx, ens, &remoting.Request{GetView: &remoting.GetViewRequest{
			Sender:               m.me.Addr,
			KnownConfigurationID: known,
		}})
		cancel()
		if err != nil || resp == nil || resp.View == nil {
			continue
		}
		if resp.View.Unchanged {
			return true
		}
		m.installView(resp.View.ConfigurationID, resp.View.Members)
		return true
	}
	return false
}

// installView replaces the local view and re-targets the monitor if it changed.
func (m *Member) installView(configID uint64, members []node.Endpoint) {
	m.mu.Lock()
	if m.configID == configID {
		m.mu.Unlock()
		return
	}
	m.view = view.NewWithMembers(m.settings.K, members)
	m.configID = configID
	m.alerted = make(map[node.Addr]bool)
	subs := make([]func(uint64, []node.Endpoint), len(m.subscribers))
	copy(subs, m.subscribers)
	var subjects []node.Addr
	if m.view.Contains(m.me.Addr) {
		subjects, _ = m.view.UniqueSubjectsOf(m.me.Addr)
	}
	m.monitor.Watch(configID, subjects)
	m.mu.Unlock()

	for _, sub := range subs {
		sub(configID, members)
	}
}

// onSubjectFailed reports a REMOVE alert about the subject to every ensemble
// member (instead of broadcasting to the whole cluster). A verdict on an edge
// of a configuration this member has left is dropped.
func (m *Member) onSubjectFailed(configID uint64, subject node.Addr) {
	m.mu.Lock()
	if m.stopped || configID != m.configID || !m.view.Contains(subject) || m.alerted[subject] {
		m.mu.Unlock()
		return
	}
	m.alerted[subject] = true
	rings := m.view.RingNumbers(m.me.Addr, subject)
	cfg := m.configID
	m.mu.Unlock()
	if len(rings) == 0 {
		return
	}
	alert := remoting.AlertMessage{
		EdgeSrc:         m.me.Addr,
		EdgeDst:         subject,
		Status:          remoting.EdgeDown,
		ConfigurationID: cfg,
		RingNumbers:     rings,
	}
	req := &remoting.Request{Alerts: &remoting.BatchedAlertMessage{Sender: m.me.Addr, Alerts: []remoting.AlertMessage{alert}}}
	for _, ens := range m.ensemble {
		m.client.SendBestEffort(ens, req)
	}
}

// pollLoop periodically refreshes the configuration from the ensemble.
func (m *Member) pollLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stopCh:
			return
		case <-m.clock.After(m.settings.PollInterval):
		}
		m.refreshView()
	}
}

// HandleRequest implements transport.Handler for member agents: they only
// answer probes (and ignore everything else, which belongs to the ensemble).
func (m *Member) HandleRequest(_ context.Context, _ node.Addr, req *remoting.Request) (*remoting.Response, error) {
	if req != nil && req.Probe != nil {
		return &remoting.Response{Probe: &remoting.ProbeResponse{Sender: m.me.Addr, Status: remoting.NodeOK}}, nil
	}
	return remoting.AckResponse(), nil
}

// Subscribe registers a callback invoked with every installed configuration.
func (m *Member) Subscribe(cb func(configID uint64, members []node.Endpoint)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subscribers = append(m.subscribers, cb)
}

// Addr returns the member's address.
func (m *Member) Addr() node.Addr { return m.me.Addr }

// Size returns the member's current count of cluster members.
func (m *Member) Size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.Size()
}

// ConfigurationID returns the member's current configuration identifier.
func (m *Member) ConfigurationID() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.configID
}

// Leave announces a graceful departure to the ensemble.
func (m *Member) Leave() {
	for _, ens := range m.ensemble {
		m.client.SendBestEffort(ens, &remoting.Request{Leave: &remoting.LeaveMessage{Sender: m.me.Addr}})
	}
}

// Stop halts polling and monitoring and deregisters the member.
func (m *Member) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.stopCh)
	m.monitor.Stop()
	m.wg.Wait()
	m.net.Deregister(m.me.Addr)
}

var _ transport.Handler = (*Member)(nil)
