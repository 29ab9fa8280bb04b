package remoting

// Cross-codec tests: the binary codec must agree value-for-value with the
// old encoding/gob codec (kept below as a test-only reference), must encode
// deterministically, and must reject corrupt input without panicking or
// over-allocating.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/node"
)

// --- reference implementation: the pre-binary-codec gob codec ----------------

func gobEncodeRequest(req *Request) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecodeRequest(data []byte) (*Request, error) {
	var req Request
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

func gobEncodeResponse(resp *Response) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecodeResponse(data []byte) (*Response, error) {
	var resp Response
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// --- randomized message generation ------------------------------------------

func randAddr(r *rand.Rand) node.Addr {
	return node.Addr(fmt.Sprintf("10.%d.%d.%d:%d", r.Intn(256), r.Intn(256), r.Intn(256), 1+r.Intn(65535)))
}

func randID(r *rand.Rand) node.ID {
	return node.ID{High: r.Uint64(), Low: r.Uint64()}
}

func randMetadata(r *rand.Rand) map[string]string {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	md := make(map[string]string, n)
	for i := 0; i < n; i++ {
		md[fmt.Sprintf("key-%d", r.Intn(10))] = fmt.Sprintf("val-%d", r.Intn(100))
	}
	return md
}

func randInts(r *rand.Rand) []int {
	n := r.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(10)
	}
	return out
}

func randEndpoints(r *rand.Rand) []node.Endpoint {
	n := r.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]node.Endpoint, n)
	for i := range out {
		out[i] = node.Endpoint{Addr: randAddr(r), ID: randID(r), Metadata: randMetadata(r)}
	}
	return out
}

func randAddrs(r *rand.Rand) []node.Addr {
	n := r.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]node.Addr, n)
	for i := range out {
		out[i] = randAddr(r)
	}
	return out
}

func randRank(r *rand.Rand) Rank {
	return Rank{Round: uint64(r.Intn(100)), NodeIndex: uint64(r.Intn(64))}
}

func randAlert(r *rand.Rand) AlertMessage {
	a := AlertMessage{
		EdgeSrc:         randAddr(r),
		EdgeDst:         randAddr(r),
		Status:          EdgeStatus(r.Intn(2)),
		ConfigurationID: r.Uint64(),
		RingNumbers:     randInts(r),
	}
	if a.Status == EdgeUp {
		a.JoinerID = randID(r)
		a.Metadata = randMetadata(r)
	}
	return a
}

func randAlertBatch(r *rand.Rand) *BatchedAlertMessage {
	m := &BatchedAlertMessage{Sender: randAddr(r), Seq: uint64(r.Intn(1 << 20))}
	for i, n := 0, r.Intn(6); i < n; i++ {
		m.Alerts = append(m.Alerts, randAlert(r))
	}
	return m
}

// randVote is a bare vote one time in three, otherwise an aggregate with a
// voter bitmap of up to 64 bytes (a 512-member configuration).
func randVote(r *rand.Rand) FastRoundPhase2b {
	v := FastRoundPhase2b{Sender: randAddr(r), ConfigurationID: r.Uint64(), Proposal: randEndpoints(r)}
	if r.Intn(3) > 0 {
		v.Voters = make([]byte, 1+r.Intn(64))
		r.Read(v.Voters)
	}
	return v
}

func randVoteBatch(r *rand.Rand) *FastRoundVoteBatch {
	m := &FastRoundVoteBatch{Sender: randAddr(r), Seq: uint64(r.Intn(1 << 20))}
	for i, n := 0, r.Intn(4); i < n; i++ {
		m.Votes = append(m.Votes, randVote(r))
	}
	return m
}

func randRequest(r *rand.Rand) *Request {
	req := &Request{}
	switch r.Intn(14) {
	case 0:
		req.PreJoin = &PreJoinRequest{Sender: randAddr(r), JoinerID: randID(r)}
	case 1:
		req.Join = &JoinRequest{
			Sender:          randAddr(r),
			JoinerID:        randID(r),
			ConfigurationID: r.Uint64(),
			RingNumbers:     randInts(r),
			Metadata:        randMetadata(r),
		}
	case 2:
		req.Alerts = randAlertBatch(r)
	case 3:
		req.Probe = &ProbeRequest{Sender: randAddr(r)}
	case 4:
		vote := randVote(r)
		req.FastRound = &vote
	case 5:
		req.P1a = &Phase1a{Sender: randAddr(r), ConfigurationID: r.Uint64(), Rank: randRank(r)}
	case 6:
		req.P1b = &Phase1b{Sender: randAddr(r), ConfigurationID: r.Uint64(), Rnd: randRank(r), VRnd: randRank(r), VVal: randEndpoints(r)}
	case 7:
		req.P2a = &Phase2a{Sender: randAddr(r), ConfigurationID: r.Uint64(), Rank: randRank(r), Value: randEndpoints(r)}
	case 8:
		req.P2b = &Phase2b{Sender: randAddr(r), ConfigurationID: r.Uint64(), Rank: randRank(r), Value: randEndpoints(r)}
	case 9:
		req.Leave = &LeaveMessage{Sender: randAddr(r)}
	case 10:
		req.GetView = &GetViewRequest{Sender: randAddr(r), KnownConfigurationID: r.Uint64()}
	case 11:
		data := make([]byte, r.Intn(32))
		r.Read(data)
		if len(data) == 0 {
			data = nil
		}
		req.Custom = &CustomMessage{Kind: fmt.Sprintf("proto-%d", r.Intn(5)), Data: data}
	case 12:
		req.VoteBatch = randVoteBatch(r)
	case 13:
		// Alerts and votes may share one wire message.
		req.Alerts = randAlertBatch(r)
		req.VoteBatch = randVoteBatch(r)
	}
	return req
}

func randResponse(r *rand.Rand) *Response {
	resp := &Response{}
	switch r.Intn(6) {
	case 0:
		resp.PreJoin = &PreJoinResponse{
			Sender:          randAddr(r),
			Status:          JoinStatus(r.Intn(6)),
			ConfigurationID: r.Uint64(),
			Observers:       randAddrs(r),
		}
	case 1:
		resp.Join = &JoinResponse{
			Sender:          randAddr(r),
			Status:          JoinStatus(r.Intn(6)),
			ConfigurationID: r.Uint64(),
			Members:         randEndpoints(r),
		}
	case 2:
		resp.Probe = &ProbeResponse{Sender: randAddr(r), Status: NodeStatus(r.Intn(2))}
	case 3:
		resp.View = &GetViewResponse{
			Sender:          randAddr(r),
			ConfigurationID: r.Uint64(),
			Members:         randEndpoints(r),
			Unchanged:       r.Intn(2) == 0,
		}
	case 4:
		resp.Custom = &CustomMessage{Kind: "k", Data: []byte{1, 2, 3}}
	case 5:
		resp.Ack = true
	}
	return resp
}

// --- cross-codec agreement ---------------------------------------------------

// TestRequestCrossCodecAgreement round-trips randomized requests through both
// the old gob codec and the new binary codec and requires identical decoded
// values (gob normalizes empty slices/maps to nil; so does the binary codec).
func TestRequestCrossCodecAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		req := randRequest(r)

		gobData, err := gobEncodeRequest(req)
		if err != nil {
			t.Fatalf("gob encode: %v", err)
		}
		viaGob, err := gobDecodeRequest(gobData)
		if err != nil {
			t.Fatalf("gob decode: %v", err)
		}

		binData, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		viaBin, err := DecodeRequest(binData)
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}

		if !reflect.DeepEqual(viaGob, viaBin) {
			t.Fatalf("codec disagreement on %s request:\n gob: %+v\n bin: %+v", req.Kind(), viaGob, viaBin)
		}
		if len(binData) >= len(gobData) {
			t.Errorf("binary encoding of %s request is %d bytes, gob was %d: compactness regressed",
				req.Kind(), len(binData), len(gobData))
		}
	}
}

// TestResponseCrossCodecAgreement is the response-side twin.
func TestResponseCrossCodecAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		resp := randResponse(r)

		gobData, err := gobEncodeResponse(resp)
		if err != nil {
			t.Fatalf("gob encode: %v", err)
		}
		viaGob, err := gobDecodeResponse(gobData)
		if err != nil {
			t.Fatalf("gob decode: %v", err)
		}

		binData, err := EncodeResponse(resp)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		viaBin, err := DecodeResponse(binData)
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}

		if !reflect.DeepEqual(viaGob, viaBin) {
			t.Fatalf("codec disagreement on response:\n gob: %+v\n bin: %+v", viaGob, viaBin)
		}
	}
}

// TestEncodingIsDeterministic requires byte-identical output across repeated
// encodes, including for messages containing maps (gob did not guarantee
// this; the binary codec sorts map keys).
func TestEncodingIsDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		req := randRequest(r)
		a, _ := EncodeRequest(req)
		b, _ := EncodeRequest(req)
		if !bytes.Equal(a, b) {
			t.Fatalf("non-deterministic encoding of %s request", req.Kind())
		}
	}
}

// TestSizeMatchesEncodedLength keeps the bandwidth accounting honest: a
// message appended into a reused scratch buffer, as the simulated network
// sizes it, is exactly the bytes EncodeRequest/EncodeResponse produce.
func TestSizeMatchesEncodedLength(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var scratch []byte
	for i := 0; i < 200; i++ {
		// A random request, and a random one-way answer: a phase-2 join's or
		// a poll's.
		for _, req := range []*Request{randRequest(r), {Answer: randResponse(r)}} {
			data, _ := EncodeRequest(req)
			scratch = AppendRequest(scratch[:0], req)
			if !bytes.Equal(scratch, data) {
				t.Fatalf("AppendRequest(%s) gives %d bytes, EncodeRequest %d, or they differ", req.Kind(), len(scratch), len(data))
			}
		}
		resp := randResponse(r)
		rdata, _ := EncodeResponse(resp)
		scratch = AppendResponse(scratch[:0], resp)
		if !bytes.Equal(scratch, rdata) {
			t.Fatalf("AppendResponse gives %d bytes, EncodeResponse %d, or they differ", len(scratch), len(rdata))
		}
	}
}

// TestEmptyMessagesRoundTrip covers the degenerate unions.
func TestEmptyMessagesRoundTrip(t *testing.T) {
	for _, req := range []*Request{nil, {}} {
		data, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind() != "empty" {
			t.Fatalf("empty request decoded as %q", got.Kind())
		}
	}
	data, err := EncodeResponse(AckResponse())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Ack {
		t.Fatal("Ack lost in round trip")
	}
}

// TestDecodeRejectsUnknownVersion pins the versioning behaviour.
func TestDecodeRejectsUnknownVersion(t *testing.T) {
	data, _ := EncodeRequest(&Request{Probe: &ProbeRequest{Sender: "a:1"}})
	data[0] = 99
	if _, err := DecodeRequest(data); err == nil {
		t.Fatal("decoding a future codec version should fail")
	}
}

// TestDecodeRejectsVersion2Frame: version 3 put a voter bitmap behind every
// vote's proposal, so a version-2 vote batch read as version 3 (or the other
// way round) would take the next field's bytes for the bitmap's. The version
// byte refuses the frame before any of it is read.
func TestDecodeRejectsVersion2Frame(t *testing.T) {
	data, _ := EncodeRequest(&Request{VoteBatch: &FastRoundVoteBatch{Sender: "a:1", Votes: []FastRoundPhase2b{
		{Sender: "a:1", ConfigurationID: 7, Proposal: []node.Endpoint{{Addr: "dead:1"}}},
	}}})
	// A version-2 encoder wrote everything this frame holds but the bitmap's
	// length byte, which for a bare vote is the frame's last.
	v2 := append([]byte{2}, data[1:len(data)-1]...)
	if _, err := DecodeRequest(v2); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("version-2 request: got %v, want ErrCodecVersion", err)
	}
	resp, _ := EncodeResponse(AckResponse())
	resp[0] = 2
	if _, err := DecodeResponse(resp); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("version-2 response: got %v, want ErrCodecVersion", err)
	}
}

// TestAnswerCountsAreBounded: an answer's member count is bounded by the
// bytes left in the frame, as a response's is, so a hostile count fails the
// decode instead of sizing an allocation.
func TestAnswerCountsAreBounded(t *testing.T) {
	data, _ := EncodeRequest(&Request{Answer: &Response{Join: &JoinResponse{Sender: "a:1", Status: JoinSafeToJoin, ConfigurationID: 7}}})
	// The members count is the frame's last byte; a count of 2^40 replaces it.
	hostile := binary.AppendUvarint(append([]byte(nil), data[:len(data)-1]...), 1<<40)
	if _, err := DecodeRequest(hostile); err == nil {
		t.Fatal("an answer claiming 2^40 members decoded")
	}
	if got, err := DecodeRequest(data); err != nil || got.Answer == nil || got.Answer.Join == nil || got.Kind() != "answer" {
		t.Fatalf("the well-formed answer decoded as %+v, %v", got, err)
	}
}

// TestDecodeRejectsTrailingBytes pins strict framing.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data, _ := EncodeRequest(&Request{Probe: &ProbeRequest{Sender: "a:1"}})
	if _, err := DecodeRequest(append(data, 0)); err == nil {
		t.Fatal("decoding a message with trailing bytes should fail")
	}
}

// TestDecodeCorruptInputNeverPanics truncates and bit-flips valid encodings:
// every mutation must either decode cleanly or fail with an error — never
// panic, and never allocate unboundedly (collection counts are bounded by the
// remaining input length).
func TestDecodeCorruptInputNeverPanics(t *testing.T) {
	corruptRequests(100, func(data []byte) { _, _ = DecodeRequest(data) })
}

// corruptRequests hands visit every truncation and twenty single-bit flips of
// n randomized requests' encodings (votes with and without bitmaps included).
func corruptRequests(n int, visit func([]byte)) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		req := randRequest(r)
		data, _ := EncodeRequest(req)
		for cut := 0; cut < len(data); cut++ {
			visit(data[:cut])
		}
		for flip := 0; flip < 20 && len(data) > 0; flip++ {
			mutated := append([]byte(nil), data...)
			mutated[r.Intn(len(mutated))] ^= byte(1 << r.Intn(8))
			visit(mutated)
		}
	}
}

// FuzzDecodeRequest: DecodeRequest faces the network. Whatever the bytes, it
// must not panic, and whatever it accepts must survive the codec: re-encoded
// and decoded again it is the same value. Seeded with the corrupt inputs of
// the test above, one well-formed vote batch carrying a voter bitmap, and the
// three one-way answers: a phase-2 admission naming 500 members, a redirect,
// and a poll's view.
func FuzzDecodeRequest(f *testing.F) {
	corruptRequests(5, func(data []byte) { f.Add(append([]byte(nil), data...)) })
	members := make([]node.Endpoint, 500)
	for i := range members {
		members[i] = node.Endpoint{Addr: node.Addr(fmt.Sprintf("10.0.%d.%d:7000", i/256, i%256)), ID: node.ID{High: uint64(i), Low: 7}}
	}
	for _, req := range []*Request{
		{VoteBatch: &FastRoundVoteBatch{Sender: "10.0.0.1:7000", Seq: 9, Votes: []FastRoundPhase2b{{
			Sender:          "10.0.0.1:7000",
			ConfigurationID: 0xfeedface,
			Proposal:        []node.Endpoint{{Addr: "10.0.0.9:7000", ID: node.ID{High: 1, Low: 2}, Metadata: map[string]string{"role": "backend"}}},
			Voters:          []byte{0xff, 0x0f, 0x01},
		}}}},
		{Answer: &Response{Join: &JoinResponse{Sender: "10.0.0.1:7000", Status: JoinSafeToJoin, ConfigurationID: 0xfeedface, Members: members}}},
		{Answer: &Response{Join: &JoinResponse{Sender: "10.0.0.1:7000", Status: JoinConfigChanged, ConfigurationID: 0xfeedface}}},
		{Answer: &Response{View: &GetViewResponse{Sender: "10.0.0.1:7000", ConfigurationID: 0xfeedface, Members: members[:3]}}},
	} {
		valid, _ := EncodeRequest(req)
		f.Add(valid)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		again, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("re-encoding a decoded request: %v", err)
		}
		back, err := DecodeRequest(again)
		if err != nil {
			t.Fatalf("decoding the re-encoded request: %v", err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("a decoded request changed across the codec:\n first: %+v\n again: %+v", req, back)
		}
	})
}

// TestAlertEncodingAllocs bounds the alert hot path's allocations on encode:
// the output buffer and its growth. Sizing a message for the bandwidth
// accounting, into a scratch buffer, is held to none in simnet's
// TestSendBestEffortZeroAlloc.
func TestAlertEncodingAllocs(t *testing.T) {
	batch := &Request{Alerts: &BatchedAlertMessage{Sender: "a:1"}}
	for i := 0; i < 8; i++ {
		batch.Alerts.Alerts = append(batch.Alerts.Alerts, AlertMessage{
			EdgeSrc: "a:1", EdgeDst: node.Addr(fmt.Sprintf("b%d:1", i)),
			Status: EdgeDown, ConfigurationID: 42, RingNumbers: []int{1, 5},
		})
	}
	encAllocs := testing.AllocsPerRun(200, func() {
		if _, err := EncodeRequest(batch); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs > 4 {
		t.Errorf("EncodeRequest allocates %.0f times per 8-alert batch, want <= 4", encAllocs)
	}
}
