// Package remoting defines the wire-level message types exchanged by the
// membership service: join phases, edge alerts, failure-detector probes,
// Fast-Paxos votes and vote aggregates (a voter bitmap per distinct
// proposal), classical Paxos phases, and leave announcements. It also
// provides a compact hand-rolled binary codec (see codec.go) so that real
// transports (TCP) and the simulated network can account for message sizes.
//
// The set of messages mirrors the RPCs of the Rapid paper (§4, §6): JOIN is a
// two-phase protocol (pre-join to a seed, then join to the K temporary
// observers); REMOVE/JOIN alerts are batched and broadcast; consensus votes
// are counted for the Fast Paxos fast path by aggregating bitmaps along the K
// rings (§4.3), with classical Paxos as fallback.
package remoting

import "repro/internal/node"

// EdgeStatus describes what an observer reports about an edge to a subject.
type EdgeStatus int

const (
	// EdgeDown is a REMOVE alert: the observer cannot reach the subject.
	EdgeDown EdgeStatus = iota
	// EdgeUp is a JOIN alert: the subject asked to join through this observer.
	EdgeUp
)

// String renders the edge status as the paper's alert names.
func (s EdgeStatus) String() string {
	if s == EdgeUp {
		return "JOIN"
	}
	return "REMOVE"
}

// JoinStatus is the outcome of a join phase.
type JoinStatus int

const (
	// JoinStatusUnknown is the zero value and never a valid response.
	JoinStatusUnknown JoinStatus = iota
	// JoinSafeToJoin indicates the joiner may proceed to phase 2.
	JoinSafeToJoin
	// JoinHostAlreadyInRing indicates the address is already a member.
	JoinHostAlreadyInRing
	// JoinUUIDAlreadyInRing indicates the logical ID was already used.
	JoinUUIDAlreadyInRing
	// JoinConfigChanged indicates the configuration moved; retry phase 1.
	JoinConfigChanged
	// JoinViewChangeInProgress asks the joiner to retry shortly.
	JoinViewChangeInProgress
)

// String names the join status.
func (s JoinStatus) String() string {
	switch s {
	case JoinSafeToJoin:
		return "SAFE_TO_JOIN"
	case JoinHostAlreadyInRing:
		return "HOSTNAME_ALREADY_IN_RING"
	case JoinUUIDAlreadyInRing:
		return "UUID_ALREADY_IN_RING"
	case JoinConfigChanged:
		return "CONFIG_CHANGED"
	case JoinViewChangeInProgress:
		return "VIEW_CHANGE_IN_PROGRESS"
	default:
		return "UNKNOWN"
	}
}

// NodeStatus is what a probed process reports about itself.
type NodeStatus int

const (
	// NodeOK means the process is a healthy member of its configuration.
	NodeOK NodeStatus = iota
	// NodeBootstrapping means the process is still joining; observers do not
	// treat unanswered probes during bootstrap as failures.
	NodeBootstrapping
)

// Rank orders Paxos rounds. Ranks are compared first by Round then by NodeIndex
// so that concurrent proposers use disjoint ranks.
type Rank struct {
	Round     uint64
	NodeIndex uint64
}

// Less reports whether r orders strictly before other.
func (r Rank) Less(other Rank) bool {
	if r.Round != other.Round {
		return r.Round < other.Round
	}
	return r.NodeIndex < other.NodeIndex
}

// Equal reports whether two ranks are identical.
func (r Rank) Equal(other Rank) bool { return r == other }

// IsZero reports whether the rank is unset.
func (r Rank) IsZero() bool { return r.Round == 0 && r.NodeIndex == 0 }

// PreJoinRequest is phase 1 of a join: the joiner asks a seed which processes
// are its temporary observers in the current configuration.
type PreJoinRequest struct {
	Sender   node.Addr
	JoinerID node.ID
}

// PreJoinResponse carries the join status, the configuration the seed is in,
// and the joiner's K temporary observers.
type PreJoinResponse struct {
	Sender          node.Addr
	Status          JoinStatus
	ConfigurationID uint64
	Observers       []node.Addr
}

// JoinRequest is phase 2 of a join, sent to each temporary observer, which
// will broadcast a JOIN alert about the joiner.
type JoinRequest struct {
	Sender          node.Addr
	JoinerID        node.ID
	ConfigurationID uint64
	RingNumbers     []int
	Metadata        map[string]string
}

// JoinResponse is an observer's answer to a phase-2 request, sent to the
// joiner as a one-way Request.Answer once the view change that includes it has
// been decided, or at once when the observer cannot admit it (a redirect).
type JoinResponse struct {
	Sender          node.Addr
	Status          JoinStatus
	ConfigurationID uint64
	Members         []node.Endpoint
}

// AlertMessage is a single REMOVE or JOIN report about an edge from an
// observer to a subject, in a given configuration.
type AlertMessage struct {
	EdgeSrc         node.Addr // observer
	EdgeDst         node.Addr // subject
	Status          EdgeStatus
	ConfigurationID uint64
	RingNumbers     []int
	// JoinerID and Metadata accompany JOIN alerts so that every process can
	// construct the joiner's endpoint when the view change is applied.
	JoinerID node.ID
	Metadata map[string]string
}

// BatchedAlertMessage groups alerts generated within one batching window, as
// Rapid batches multiple alerts into a single message before sending (§6).
type BatchedAlertMessage struct {
	Sender node.Addr
	// Seq is a wire field nothing stamps or reads any more: it numbered a
	// sender's batches for the deduplication of a gossip mode that is gone.
	// It stays in the codec because the frozen benchmark encodes it, and
	// goes with the [benchmark] PR that changes that.
	Seq    uint64
	Alerts []AlertMessage
}

// ProbeRequest is an edge failure-detector probe from an observer.
type ProbeRequest struct {
	Sender node.Addr
}

// ProbeResponse acknowledges a probe with the subject's status.
type ProbeResponse struct {
	Sender node.Addr
	Status NodeStatus
}

// FastRoundPhase2b is a vote in the leaderless Fast Paxos round. A bare vote
// (Voters empty) says that Sender votes for the membership-change Proposal it
// detected. With Voters set it is an aggregate: Sender knows of these voters
// for Proposal — bit i of the little-endian bitmap (byte i/8, bit i%8) is
// member i of the configuration's membership sorted by address — and need not
// be one of them.
type FastRoundPhase2b struct {
	Sender          node.Addr
	ConfigurationID uint64
	Proposal        []node.Endpoint
	Voters          []byte
}

// FastRoundVoteBatch is one push of a member's vote aggregates: one entry
// per distinct proposal it knows votes for (§4.3's counting protocol). A
// Request may carry both an Alerts and a VoteBatch payload.
type FastRoundVoteBatch struct {
	Sender node.Addr
	// Seq is unused, like BatchedAlertMessage.Seq, and goes with it. Merging
	// an aggregate is idempotent, so nothing ever deduplicated on it.
	Seq   uint64
	Votes []FastRoundPhase2b
}

// Phase1a is the classical Paxos prepare message of the recovery path.
type Phase1a struct {
	Sender          node.Addr
	ConfigurationID uint64
	Rank            Rank
}

// Phase1b is the promise: the highest rank accepted so far and its value.
type Phase1b struct {
	Sender          node.Addr
	ConfigurationID uint64
	Rnd             Rank
	VRnd            Rank
	VVal            []node.Endpoint
}

// Phase2a asks acceptors to accept a value at a rank.
type Phase2a struct {
	Sender          node.Addr
	ConfigurationID uint64
	Rank            Rank
	Value           []node.Endpoint
}

// Phase2b is an acceptance, gossiped to learners.
type Phase2b struct {
	Sender          node.Addr
	ConfigurationID uint64
	Rank            Rank
	Value           []node.Endpoint
}

// LeaveMessage announces a voluntary departure. Observers of the leaver
// convert it into REMOVE alerts so the view change is coordinated.
type LeaveMessage struct {
	Sender node.Addr
}

// GetViewRequest is a Rapid-C member's poll (§5): it asks an ensemble node
// for the current configuration of the cluster the ensemble manages.
type GetViewRequest struct {
	Sender node.Addr
	// KnownConfigurationID lets the ensemble answer cheaply ("unchanged")
	// when the caller is already up to date.
	KnownConfigurationID uint64
}

// GetViewResponse returns the ensemble's current configuration.
type GetViewResponse struct {
	Sender          node.Addr
	ConfigurationID uint64
	Members         []node.Endpoint
	// Unchanged is true when the caller's known configuration is current, in
	// which case Members is omitted.
	Unchanged bool
}

// CustomMessage is an escape hatch for other protocols sharing the same
// transports (the SWIM/Memberlist, ZooKeeper-style and gossip-FD baselines,
// and the end-to-end application workloads). Kind names the protocol-specific
// message; Data is an opaque payload encoded by the owning package.
type CustomMessage struct {
	Kind string
	Data []byte
}

// Request is the union of all RPC request payloads. Exactly one of the
// pointer fields is set, with one exception the codec and every receiver
// accept: Alerts and VoteBatch may share a request. Using a flat union avoids
// per-message type information on the wire and keeps encoding deterministic.
type Request struct {
	PreJoin   *PreJoinRequest
	Join      *JoinRequest
	Alerts    *BatchedAlertMessage
	Probe     *ProbeRequest
	FastRound *FastRoundPhase2b
	P1a       *Phase1a
	P1b       *Phase1b
	P2a       *Phase2a
	P2b       *Phase2b
	Leave     *LeaveMessage
	GetView   *GetViewRequest
	Custom    *CustomMessage
	VoteBatch *FastRoundVoteBatch
	// Answer is the one-way reply to a request that waits on a view change
	// or a period — a phase-2 join, a Rapid-C poll — sent when it is ready:
	// a Response carried as a request, so the exchange holds no transport
	// call open.
	Answer *Response
}

// Response is the union of all RPC response payloads.
type Response struct {
	PreJoin *PreJoinResponse
	Join    *JoinResponse
	Probe   *ProbeResponse
	View    *GetViewResponse
	Custom  *CustomMessage
	// Ack acknowledges one-way style messages (alerts, votes, paxos phases).
	Ack bool
}

// Kind returns a short label for the request type, used in logs and metrics.
func (r *Request) Kind() string {
	switch {
	case r == nil:
		return "nil"
	case r.PreJoin != nil:
		return "prejoin"
	case r.Join != nil:
		return "join"
	case r.Alerts != nil && r.VoteBatch != nil:
		return "alerts+votes"
	case r.Alerts != nil:
		return "alerts"
	case r.Probe != nil:
		return "probe"
	case r.FastRound != nil:
		return "fastround"
	case r.P1a != nil:
		return "phase1a"
	case r.P1b != nil:
		return "phase1b"
	case r.P2a != nil:
		return "phase2a"
	case r.P2b != nil:
		return "phase2b"
	case r.Leave != nil:
		return "leave"
	case r.GetView != nil:
		return "getview"
	case r.VoteBatch != nil:
		return "votebatch"
	case r.Answer != nil:
		return "answer"
	case r.Custom != nil:
		return "custom:" + r.Custom.Kind
	default:
		return "empty"
	}
}

// AckResponse is the canonical acknowledgement response.
func AckResponse() *Response { return &Response{Ack: true} }
