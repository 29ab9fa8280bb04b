// Package node defines process identities used throughout the membership
// service: network endpoints (host:port addresses) and 128-bit logical node
// identifiers. A process that leaves and rejoins the cluster does so with a
// fresh logical identifier, exactly as described in §3 of the Rapid paper.
package node

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
)

// Addr is a process' listen address in "host:port" form. It identifies where
// a process can be reached; it is not a logical identity.
type Addr string

// String returns the address as a plain string.
func (a Addr) String() string { return string(a) }

// ID is a 128-bit logical identifier assigned to a process each time it joins
// a cluster. IDs are compared lexicographically on (High, Low).
type ID struct {
	High uint64
	Low  uint64
}

// String renders the ID in a compact UUID-like hexadecimal form.
func (id ID) String() string {
	return fmt.Sprintf("%016x-%016x", id.High, id.Low)
}

// IsZero reports whether the ID is the zero value (no identity assigned).
func (id ID) IsZero() bool { return id.High == 0 && id.Low == 0 }

// Compare returns -1, 0 or +1 ordering IDs lexicographically on (High, Low).
func (id ID) Compare(other ID) int {
	switch {
	case id.High < other.High:
		return -1
	case id.High > other.High:
		return 1
	case id.Low < other.Low:
		return -1
	case id.Low > other.Low:
		return 1
	default:
		return 0
	}
}

// idRand is the process-wide source for NewID. Guarded by idMu so that IDs
// can be generated concurrently from many simulated nodes.
var (
	idMu   sync.Mutex
	idRand = rand.New(rand.NewSource(0x5eed_1e57_c0ffee))
)

// SeedIDGenerator reseeds the process-wide ID generator. Tests and
// deterministic simulations use this to obtain reproducible identities.
func SeedIDGenerator(seed int64) {
	idMu.Lock()
	defer idMu.Unlock()
	idRand = rand.New(rand.NewSource(seed))
}

// SeedIDGeneratorFromEntropy reseeds the process-wide ID generator from the
// operating system's entropy source. Real deployments (cmd/rapid-node) must
// call this before joining: the library default is a fixed seed so that
// simulations are reproducible, which means two separate OS processes would
// otherwise draw the same identifier sequence and collide at the pre-join
// UUID check forever.
func SeedIDGeneratorFromEntropy() error {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Errorf("node: reading entropy for ID generator: %w", err)
	}
	SeedIDGenerator(int64(binary.BigEndian.Uint64(b[:])))
	return nil
}

// NewID returns a fresh pseudo-random logical identifier.
func NewID() ID {
	idMu.Lock()
	defer idMu.Unlock()
	return ID{High: idRand.Uint64(), Low: idRand.Uint64()}
}

// NewIDFromRand returns an ID drawn from the supplied source. It is used by
// simulations that manage their own deterministic randomness.
func NewIDFromRand(r *rand.Rand) ID {
	return ID{High: r.Uint64(), Low: r.Uint64()}
}

// Endpoint is a member of the cluster: an address plus the logical ID under
// which it joined and optional application-supplied metadata (for example
// {"role": "backend"}).
type Endpoint struct {
	Addr     Addr
	ID       ID
	Metadata map[string]string
}

// NewEndpoint builds an endpoint with a freshly generated ID.
func NewEndpoint(addr Addr) Endpoint {
	return Endpoint{Addr: addr, ID: NewID()}
}

// WithMetadata returns a copy of the endpoint carrying the given metadata.
func (e Endpoint) WithMetadata(md map[string]string) Endpoint {
	copied := make(map[string]string, len(md))
	for k, v := range md {
		copied[k] = v
	}
	e.Metadata = copied
	return e
}

// String renders the endpoint address and a short ID prefix.
func (e Endpoint) String() string {
	return fmt.Sprintf("%s/%s", e.Addr, e.ID)
}

// Equal reports whether two endpoints denote the same process instance
// (same address and same logical ID). Metadata is not part of identity.
func (e Endpoint) Equal(other Endpoint) bool {
	return e.Addr == other.Addr && e.ID == other.ID
}

// EndpointAddrs returns the addresses of the given endpoints, in order —
// the conversion every membership consumer needs when feeding a view-change
// payload into an address-keyed application.
func EndpointAddrs(endpoints []Endpoint) []Addr {
	addrs := make([]Addr, len(endpoints))
	for i, ep := range endpoints {
		addrs[i] = ep.Addr
	}
	return addrs
}

// CompareEndpoints orders endpoints by address. It is the one comparator
// behind every address-sorted endpoint list — memberships, proposals — so
// that they all agree: slices.SortFunc(eps, node.CompareEndpoints).
func CompareEndpoints(a, b Endpoint) int {
	return strings.Compare(string(a.Addr), string(b.Addr))
}

// SortAddrs sorts a slice of addresses lexicographically in place and
// returns it, for deterministic iteration in protocols and tests.
func SortAddrs(addrs []Addr) []Addr {
	slices.Sort(addrs)
	return addrs
}

// AddrList renders a list of addresses as a comma-joined string, useful for
// logging proposals and view changes.
func AddrList(addrs []Addr) string {
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = string(a)
	}
	return strings.Join(parts, ",")
}
