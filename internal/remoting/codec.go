package remoting

// The wire codec is a compact hand-rolled binary format. The previous codec
// was encoding/gob, which re-transmits type descriptors with every message
// (each Encoder/Decoder pair here is single-use), costing both CPU and the
// bandwidth that Table 2 of the paper accounts. The format:
//
//	byte 0   codec version (currently 3)
//	uvarint  field mask: bit i set means union field i is present
//	...      each present field's payload, in mask bit order
//
// Scalars are varint-encoded except hash-valued quantities (configuration
// identifiers, 128-bit node IDs), which are fixed-width little-endian: they
// are uniformly random, so a varint would on average be longer. Maps are
// encoded with sorted keys, and there is no per-message type information, so
// encoding is deterministic: equal messages produce identical bytes.
//
// Zero-length slices, maps and byte strings decode as nil, mirroring gob's
// behaviour of omitting zero values, so round-trips through this codec agree
// with round-trips through the old gob codec value-for-value.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/node"
)

// codecVersion tags every encoded message so the format can evolve. Version
// 2 added the batch Seq field and the FastRoundVoteBatch union member;
// version 3 added the voter bitmap to every fast-round vote. A peer of
// another version rejects the frame outright instead of mis-decoding it.
const codecVersion = 3

// ErrCodecVersion indicates a message encoded with an unknown format version.
var ErrCodecVersion = errors.New("remoting: unknown codec version")

// errTruncated indicates the buffer ended before the message did.
var errTruncated = errors.New("truncated message")

// Request union field bits, in encoding order.
const (
	reqPreJoin = 1 << iota
	reqJoin
	reqAlerts
	reqProbe
	reqFastRound
	reqP1a
	reqP1b
	reqP2a
	reqP2b
	reqLeave
	reqGetView
	reqCustom
	reqVoteBatch
)

// Response union field bits, in encoding order.
const (
	respPreJoin = 1 << iota
	respJoin
	respProbe
	respView
	respCustom
	respAck
)

// EncodeRequest serializes a request. The byte length of the result is what
// transports report to the bandwidth accounting used for Table 2 of the paper.
func EncodeRequest(req *Request) ([]byte, error) {
	return AppendRequest(make([]byte, 0, 128), req), nil
}

// DecodeRequest deserializes a request previously produced by EncodeRequest.
func DecodeRequest(data []byte) (*Request, error) {
	d := decoder{buf: data}
	req := d.request()
	if d.err == nil && d.off != len(d.buf) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.buf)-d.off)
	}
	if d.err != nil {
		if errors.Is(d.err, ErrCodecVersion) {
			return nil, fmt.Errorf("remoting: decode request: %w", d.err)
		}
		return nil, fmt.Errorf("remoting: decode request: invalid message: %w", d.err)
	}
	return req, nil
}

// EncodeResponse serializes a response.
func EncodeResponse(resp *Response) ([]byte, error) {
	return AppendResponse(make([]byte, 0, 64), resp), nil
}

// DecodeResponse deserializes a response previously produced by EncodeResponse.
func DecodeResponse(data []byte) (*Response, error) {
	d := decoder{buf: data}
	resp := d.response()
	if d.err == nil && d.off != len(d.buf) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.buf)-d.off)
	}
	if d.err != nil {
		if errors.Is(d.err, ErrCodecVersion) {
			return nil, fmt.Errorf("remoting: decode response: %w", d.err)
		}
		return nil, fmt.Errorf("remoting: decode response: invalid message: %w", d.err)
	}
	return resp, nil
}

// --- encoding ----------------------------------------------------------------

// AppendRequest appends the encoding of req to b and returns the extended
// buffer. The simulated network sizes messages this way, into a scratch
// buffer it keeps, without shipping encoded bytes around.
func AppendRequest(b []byte, req *Request) []byte {
	b = append(b, codecVersion)
	var mask uint64
	if req != nil {
		if req.PreJoin != nil {
			mask |= reqPreJoin
		}
		if req.Join != nil {
			mask |= reqJoin
		}
		if req.Alerts != nil {
			mask |= reqAlerts
		}
		if req.Probe != nil {
			mask |= reqProbe
		}
		if req.FastRound != nil {
			mask |= reqFastRound
		}
		if req.P1a != nil {
			mask |= reqP1a
		}
		if req.P1b != nil {
			mask |= reqP1b
		}
		if req.P2a != nil {
			mask |= reqP2a
		}
		if req.P2b != nil {
			mask |= reqP2b
		}
		if req.Leave != nil {
			mask |= reqLeave
		}
		if req.GetView != nil {
			mask |= reqGetView
		}
		if req.Custom != nil {
			mask |= reqCustom
		}
		if req.VoteBatch != nil {
			mask |= reqVoteBatch
		}
	}
	b = binary.AppendUvarint(b, mask)
	if mask == 0 {
		return b
	}
	if req.PreJoin != nil {
		b = appendString(b, string(req.PreJoin.Sender))
		b = appendID(b, req.PreJoin.JoinerID)
	}
	if req.Join != nil {
		m := req.Join
		b = appendString(b, string(m.Sender))
		b = appendID(b, m.JoinerID)
		b = appendU64(b, m.ConfigurationID)
		b = appendInts(b, m.RingNumbers)
		b = appendMetadata(b, m.Metadata)
	}
	if req.Alerts != nil {
		m := req.Alerts
		b = appendString(b, string(m.Sender))
		b = binary.AppendUvarint(b, m.Seq)
		b = binary.AppendUvarint(b, uint64(len(m.Alerts)))
		for i := range m.Alerts {
			b = appendAlert(b, &m.Alerts[i])
		}
	}
	if req.Probe != nil {
		b = appendString(b, string(req.Probe.Sender))
	}
	if req.FastRound != nil {
		b = appendVote(b, req.FastRound)
	}
	if req.P1a != nil {
		m := req.P1a
		b = appendString(b, string(m.Sender))
		b = appendU64(b, m.ConfigurationID)
		b = appendRank(b, m.Rank)
	}
	if req.P1b != nil {
		m := req.P1b
		b = appendString(b, string(m.Sender))
		b = appendU64(b, m.ConfigurationID)
		b = appendRank(b, m.Rnd)
		b = appendRank(b, m.VRnd)
		b = appendEndpoints(b, m.VVal)
	}
	if req.P2a != nil {
		m := req.P2a
		b = appendString(b, string(m.Sender))
		b = appendU64(b, m.ConfigurationID)
		b = appendRank(b, m.Rank)
		b = appendEndpoints(b, m.Value)
	}
	if req.P2b != nil {
		m := req.P2b
		b = appendString(b, string(m.Sender))
		b = appendU64(b, m.ConfigurationID)
		b = appendRank(b, m.Rank)
		b = appendEndpoints(b, m.Value)
	}
	if req.Leave != nil {
		b = appendString(b, string(req.Leave.Sender))
	}
	if req.GetView != nil {
		b = appendString(b, string(req.GetView.Sender))
		b = appendU64(b, req.GetView.KnownConfigurationID)
	}
	if req.Custom != nil {
		b = appendString(b, req.Custom.Kind)
		b = appendBytes(b, req.Custom.Data)
	}
	if req.VoteBatch != nil {
		m := req.VoteBatch
		b = appendString(b, string(m.Sender))
		b = binary.AppendUvarint(b, m.Seq)
		b = binary.AppendUvarint(b, uint64(len(m.Votes)))
		for i := range m.Votes {
			b = appendVote(b, &m.Votes[i])
		}
	}
	return b
}

// AppendResponse appends the encoding of resp to b and returns the extended
// buffer.
func AppendResponse(b []byte, resp *Response) []byte {
	b = append(b, codecVersion)
	var mask uint64
	if resp != nil {
		if resp.PreJoin != nil {
			mask |= respPreJoin
		}
		if resp.Join != nil {
			mask |= respJoin
		}
		if resp.Probe != nil {
			mask |= respProbe
		}
		if resp.View != nil {
			mask |= respView
		}
		if resp.Custom != nil {
			mask |= respCustom
		}
		if resp.Ack {
			mask |= respAck
		}
	}
	b = binary.AppendUvarint(b, mask)
	if mask == 0 {
		return b
	}
	if resp.PreJoin != nil {
		m := resp.PreJoin
		b = appendString(b, string(m.Sender))
		b = binary.AppendUvarint(b, uint64(m.Status))
		b = appendU64(b, m.ConfigurationID)
		b = appendAddrs(b, m.Observers)
	}
	if resp.Join != nil {
		m := resp.Join
		b = appendString(b, string(m.Sender))
		b = binary.AppendUvarint(b, uint64(m.Status))
		b = appendU64(b, m.ConfigurationID)
		b = appendEndpoints(b, m.Members)
	}
	if resp.Probe != nil {
		m := resp.Probe
		b = appendString(b, string(m.Sender))
		b = binary.AppendUvarint(b, uint64(m.Status))
	}
	if resp.View != nil {
		m := resp.View
		b = appendString(b, string(m.Sender))
		b = appendU64(b, m.ConfigurationID)
		b = appendEndpoints(b, m.Members)
		b = appendBool(b, m.Unchanged)
	}
	if resp.Custom != nil {
		b = appendString(b, resp.Custom.Kind)
		b = appendBytes(b, resp.Custom.Data)
	}
	return b
}

func appendAlert(b []byte, a *AlertMessage) []byte {
	b = appendString(b, string(a.EdgeSrc))
	b = appendString(b, string(a.EdgeDst))
	b = binary.AppendUvarint(b, uint64(a.Status))
	b = appendU64(b, a.ConfigurationID)
	b = appendInts(b, a.RingNumbers)
	b = appendID(b, a.JoinerID)
	b = appendMetadata(b, a.Metadata)
	return b
}

func appendVote(b []byte, v *FastRoundPhase2b) []byte {
	b = appendString(b, string(v.Sender))
	b = appendU64(b, v.ConfigurationID)
	b = appendEndpoints(b, v.Proposal)
	return appendBytes(b, v.Voters)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

// appendU64 writes a fixed-width little-endian 64-bit value; used for
// hash-valued fields where varints would be counterproductive.
func appendU64(b []byte, x uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, x)
}

func appendID(b []byte, id node.ID) []byte {
	b = appendU64(b, id.High)
	return appendU64(b, id.Low)
}

func appendRank(b []byte, r Rank) []byte {
	b = binary.AppendUvarint(b, r.Round)
	return binary.AppendUvarint(b, r.NodeIndex)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

func appendAddrs(b []byte, addrs []node.Addr) []byte {
	b = binary.AppendUvarint(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = appendString(b, string(a))
	}
	return b
}

func appendEndpoints(b []byte, eps []node.Endpoint) []byte {
	b = binary.AppendUvarint(b, uint64(len(eps)))
	for i := range eps {
		b = appendString(b, string(eps[i].Addr))
		b = appendID(b, eps[i].ID)
		b = appendMetadata(b, eps[i].Metadata)
	}
	return b
}

// appendMetadata encodes a string map with sorted keys so that encoding is
// deterministic (gob's map encoding was not).
func appendMetadata(b []byte, md map[string]string) []byte {
	b = binary.AppendUvarint(b, uint64(len(md)))
	if len(md) == 0 {
		return b
	}
	keys := make([]string, 0, len(md))
	for k := range md {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = appendString(b, k)
		b = appendString(b, md[k])
	}
	return b
}

// --- decoding ----------------------------------------------------------------

// decoder is a cursor over an encoded message. The first error sticks; all
// reads after an error return zero values, so call sites stay linear.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(errTruncated)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(errTruncated)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(errTruncated)
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out
}

// count reads a collection length and bounds it by the bytes remaining (every
// element occupies at least one byte), so corrupt input cannot force a huge
// allocation.
func (d *decoder) count() int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(errTruncated)
		return 0
	}
	return int(n)
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) addr() node.Addr { return node.Addr(d.string()) }

func (d *decoder) id() node.ID {
	high := d.u64()
	low := d.u64()
	return node.ID{High: high, Low: low}
}

func (d *decoder) rank() Rank {
	round := d.uvarint()
	idx := d.uvarint()
	return Rank{Round: round, NodeIndex: idx}
}

func (d *decoder) ints() []int {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.varint())
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) addrs() []node.Addr {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]node.Addr, n)
	for i := range out {
		out[i] = d.addr()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) endpoints() []node.Endpoint {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]node.Endpoint, n)
	for i := range out {
		out[i].Addr = d.addr()
		out[i].ID = d.id()
		out[i].Metadata = d.metadata()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) metadata() map[string]string {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := d.string()
		out[k] = d.string()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) vote() FastRoundPhase2b {
	return FastRoundPhase2b{
		Sender:          d.addr(),
		ConfigurationID: d.u64(),
		Proposal:        d.endpoints(),
		Voters:          d.bytes(),
	}
}

func (d *decoder) version() {
	if v := d.byte(); d.err == nil && v != codecVersion {
		d.fail(fmt.Errorf("%w: %d", ErrCodecVersion, v))
	}
}

func (d *decoder) request() *Request {
	d.version()
	mask := d.uvarint()
	req := &Request{}
	if d.err != nil {
		return req
	}
	if mask&reqPreJoin != 0 {
		req.PreJoin = &PreJoinRequest{Sender: d.addr(), JoinerID: d.id()}
	}
	if mask&reqJoin != 0 {
		req.Join = &JoinRequest{
			Sender:          d.addr(),
			JoinerID:        d.id(),
			ConfigurationID: d.u64(),
			RingNumbers:     d.ints(),
			Metadata:        d.metadata(),
		}
	}
	if mask&reqAlerts != 0 {
		m := &BatchedAlertMessage{Sender: d.addr(), Seq: d.uvarint()}
		n := d.count()
		if n > 0 {
			m.Alerts = make([]AlertMessage, n)
			for i := range m.Alerts {
				m.Alerts[i] = AlertMessage{
					EdgeSrc:         d.addr(),
					EdgeDst:         d.addr(),
					Status:          EdgeStatus(d.uvarint()),
					ConfigurationID: d.u64(),
					RingNumbers:     d.ints(),
					JoinerID:        d.id(),
					Metadata:        d.metadata(),
				}
			}
			if d.err != nil {
				m.Alerts = nil
			}
		}
		req.Alerts = m
	}
	if mask&reqProbe != 0 {
		req.Probe = &ProbeRequest{Sender: d.addr()}
	}
	if mask&reqFastRound != 0 {
		vote := d.vote()
		req.FastRound = &vote
	}
	if mask&reqP1a != 0 {
		req.P1a = &Phase1a{Sender: d.addr(), ConfigurationID: d.u64(), Rank: d.rank()}
	}
	if mask&reqP1b != 0 {
		req.P1b = &Phase1b{
			Sender:          d.addr(),
			ConfigurationID: d.u64(),
			Rnd:             d.rank(),
			VRnd:            d.rank(),
			VVal:            d.endpoints(),
		}
	}
	if mask&reqP2a != 0 {
		req.P2a = &Phase2a{
			Sender:          d.addr(),
			ConfigurationID: d.u64(),
			Rank:            d.rank(),
			Value:           d.endpoints(),
		}
	}
	if mask&reqP2b != 0 {
		req.P2b = &Phase2b{
			Sender:          d.addr(),
			ConfigurationID: d.u64(),
			Rank:            d.rank(),
			Value:           d.endpoints(),
		}
	}
	if mask&reqLeave != 0 {
		req.Leave = &LeaveMessage{Sender: d.addr()}
	}
	if mask&reqGetView != 0 {
		req.GetView = &GetViewRequest{Sender: d.addr(), KnownConfigurationID: d.u64()}
	}
	if mask&reqCustom != 0 {
		req.Custom = &CustomMessage{Kind: d.string(), Data: d.bytes()}
	}
	if mask&reqVoteBatch != 0 {
		m := &FastRoundVoteBatch{Sender: d.addr(), Seq: d.uvarint()}
		n := d.count()
		if n > 0 {
			m.Votes = make([]FastRoundPhase2b, n)
			for i := range m.Votes {
				m.Votes[i] = d.vote()
			}
			if d.err != nil {
				m.Votes = nil
			}
		}
		req.VoteBatch = m
	}
	if mask&^uint64((reqVoteBatch<<1)-1) != 0 {
		d.fail(fmt.Errorf("unknown request fields in mask %#x", mask))
	}
	return req
}

func (d *decoder) response() *Response {
	d.version()
	mask := d.uvarint()
	resp := &Response{}
	if d.err != nil {
		return resp
	}
	if mask&respPreJoin != 0 {
		resp.PreJoin = &PreJoinResponse{
			Sender:          d.addr(),
			Status:          JoinStatus(d.uvarint()),
			ConfigurationID: d.u64(),
			Observers:       d.addrs(),
		}
	}
	if mask&respJoin != 0 {
		resp.Join = &JoinResponse{
			Sender:          d.addr(),
			Status:          JoinStatus(d.uvarint()),
			ConfigurationID: d.u64(),
			Members:         d.endpoints(),
		}
	}
	if mask&respProbe != 0 {
		resp.Probe = &ProbeResponse{Sender: d.addr(), Status: NodeStatus(d.uvarint())}
	}
	if mask&respView != 0 {
		resp.View = &GetViewResponse{
			Sender:          d.addr(),
			ConfigurationID: d.u64(),
			Members:         d.endpoints(),
			Unchanged:       d.bool(),
		}
	}
	if mask&respCustom != 0 {
		resp.Custom = &CustomMessage{Kind: d.string(), Data: d.bytes()}
	}
	resp.Ack = mask&respAck != 0
	if mask&^uint64((respAck<<1)-1) != 0 {
		d.fail(fmt.Errorf("unknown response fields in mask %#x", mask))
	}
	return resp
}
