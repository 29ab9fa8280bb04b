package rapid

import (
	"time"

	"repro/internal/core"
	"repro/internal/edgefd"
	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
)

// Re-exported identity types.
type (
	// Addr is a process address in "host:port" form.
	Addr = node.Addr
	// ID is a 128-bit logical process identifier.
	ID = node.ID
	// Endpoint is a cluster member: address, logical ID and metadata.
	Endpoint = node.Endpoint
)

// Re-exported membership service types (§4, and Rapid-C, §5).
type (
	// Cluster is a process' handle on the membership service: a member, or a
	// node of a Rapid-C ensemble.
	Cluster = core.Cluster
	// Settings are the service tunables ({K, H, L}, probe intervals, ...).
	Settings = core.Settings
	// ViewChange is delivered to subscribers on every configuration change.
	ViewChange = core.ViewChange
	// StatusChange is one endpoint's join/removal inside a view change.
	StatusChange = core.StatusChange
	// Subscriber receives view-change notifications.
	Subscriber = core.Subscriber
	// EngineStats is a point-in-time summary of the protocol engine's
	// instrumentation (queue depth, events processed, batch sizes).
	EngineStats = core.EngineStats
)

// Network is the transport abstraction clusters run on.
type Network = transport.Network

// DefaultSettings returns the paper's production parameters
// ({K, H, L} = {10, 9, 3}, 1-second probes, 100 ms alert batching).
func DefaultSettings() Settings { return core.DefaultSettings() }

// ScaledSettings returns DefaultSettings with every duration divided by
// factor, for compressed-time tests and experiments.
func ScaledSettings(factor float64) Settings { return core.ScaledSettings(factor) }

// StartCluster bootstraps a new single-member cluster listening on addr.
func StartCluster(addr Addr, settings Settings, net Network) (*Cluster, error) {
	return core.StartCluster(addr, settings, net)
}

// JoinCluster joins an existing cluster through the given seeds.
func JoinCluster(addr Addr, seeds []Addr, settings Settings, net Network) (*Cluster, error) {
	return core.JoinCluster(addr, seeds, settings, net)
}

// StartEnsemble boots the Rapid-C auxiliary ensemble (typically 3 nodes); each
// handle's Size, Members and ConfigurationID describe the cluster it manages.
func StartEnsemble(addrs []Addr, settings Settings, net Network) ([]*Cluster, error) {
	return core.StartEnsemble(addrs, settings, net)
}

// JoinViaEnsemble joins the cluster a Rapid-C ensemble manages; the member
// learns every configuration by polling the ensemble (every 5 probe intervals).
func JoinViaEnsemble(addr Addr, ensemble []Addr, settings Settings, net Network) (*Cluster, error) {
	return core.JoinViaEnsemble(addr, ensemble, settings, net)
}

// SimulatedNetworkOptions configure the in-process network.
type SimulatedNetworkOptions struct {
	// Seed makes packet-loss decisions reproducible.
	Seed int64
	// Latency, if non-zero, is added to every request/response exchange.
	Latency time.Duration
	// AccountBandwidth enables per-node byte accounting.
	AccountBandwidth bool
}

// SimulatedNetwork is the in-process transport with fault injection used by
// tests, examples and the experiment harness.
type SimulatedNetwork = simnet.Network

// NewSimulatedNetwork creates an in-process network.
func NewSimulatedNetwork(opts SimulatedNetworkOptions) *SimulatedNetwork {
	return simnet.New(simnet.Options{
		Seed:             opts.Seed,
		Latency:          opts.Latency,
		AccountBandwidth: opts.AccountBandwidth,
	})
}

// TCPNetworkOptions configure the real TCP transport. See tcpnet.Options for
// the full set of knobs; the zero value is production-ready.
type TCPNetworkOptions = tcpnet.Options

// TCPNetwork is the TCP transport used by standalone agents. Connections are
// pooled per destination and pipelined; Stats() reports dial/request/drop
// counters and Close() releases every listener, pooled connection and worker.
type TCPNetwork = tcpnet.Network

// TCPNetworkStats is a snapshot of the TCP transport's counters.
type TCPNetworkStats = tcpnet.Stats

// NewTCPNetwork creates a TCP transport. It fails on invalid options
// (negative timeouts or bounds), mirroring Settings validation.
func NewTCPNetwork(opts TCPNetworkOptions) (*TCPNetwork, error) {
	return tcpnet.New(opts)
}

// PingPongFailureDetector returns the paper's default edge failure detector
// (an edge is faulty when 40% of the last 10 probes failed). A detector is a
// factory of judges: the member's one probe scheduler builds a judge per ring
// subject in every configuration and tells it each probe's outcome.
func PingPongFailureDetector() edgefd.Factory {
	return edgefd.NewPingPongFactory(edgefd.DefaultPingPongOptions())
}

// CountingFailureDetector returns an edge failure detector whose judges fail
// an edge after the given number of consecutive probe failures.
func CountingFailureDetector(consecutiveFailures int) edgefd.Factory {
	return edgefd.NewCountingFactory(consecutiveFailures)
}

// PhiAccrualFailureDetector returns an adaptive φ-accrual edge detector: its
// judges suspect an edge from how long it has been silent, measured against
// the intervals between its earlier answers.
func PhiAccrualFailureDetector() edgefd.Factory {
	return edgefd.NewPhiAccrualFactory(edgefd.DefaultPhiAccrualOptions())
}
