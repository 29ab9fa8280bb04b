package remoting

import (
	"testing"
	"testing/quick"

	"repro/internal/node"
)

func TestRankOrdering(t *testing.T) {
	cases := []struct {
		a, b Rank
		less bool
	}{
		{Rank{1, 0}, Rank{2, 0}, true},
		{Rank{2, 0}, Rank{1, 9}, false},
		{Rank{1, 1}, Rank{1, 2}, true},
		{Rank{1, 2}, Rank{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("(%v).Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if !(Rank{}).IsZero() {
		t.Error("zero rank should be IsZero")
	}
	if (Rank{1, 0}).IsZero() {
		t.Error("non-zero rank should not be IsZero")
	}
}

func TestRankTotalOrderProperty(t *testing.T) {
	trichotomy := func(a, b Rank) bool {
		less, greater, equal := a.Less(b), b.Less(a), a.Equal(b)
		count := 0
		for _, v := range []bool{less, greater, equal} {
			if v {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(trichotomy, nil); err != nil {
		t.Errorf("rank ordering is not a total order: %v", err)
	}
}

func TestEdgeStatusString(t *testing.T) {
	if EdgeDown.String() != "REMOVE" || EdgeUp.String() != "JOIN" {
		t.Error("EdgeStatus strings do not match the paper's alert names")
	}
}

func TestJoinStatusString(t *testing.T) {
	statuses := map[JoinStatus]string{
		JoinSafeToJoin:           "SAFE_TO_JOIN",
		JoinHostAlreadyInRing:    "HOSTNAME_ALREADY_IN_RING",
		JoinUUIDAlreadyInRing:    "UUID_ALREADY_IN_RING",
		JoinConfigChanged:        "CONFIG_CHANGED",
		JoinViewChangeInProgress: "VIEW_CHANGE_IN_PROGRESS",
		JoinStatusUnknown:        "UNKNOWN",
	}
	for s, want := range statuses {
		if s.String() != want {
			t.Errorf("JoinStatus(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestRequestKind(t *testing.T) {
	cases := []struct {
		req  *Request
		want string
	}{
		{nil, "nil"},
		{&Request{}, "empty"},
		{&Request{PreJoin: &PreJoinRequest{}}, "prejoin"},
		{&Request{Join: &JoinRequest{}}, "join"},
		{&Request{Alerts: &BatchedAlertMessage{}}, "alerts"},
		{&Request{Probe: &ProbeRequest{}}, "probe"},
		{&Request{FastRound: &FastRoundPhase2b{}}, "fastround"},
		{&Request{P1a: &Phase1a{}}, "phase1a"},
		{&Request{P1b: &Phase1b{}}, "phase1b"},
		{&Request{P2a: &Phase2a{}}, "phase2a"},
		{&Request{P2b: &Phase2b{}}, "phase2b"},
		{&Request{Leave: &LeaveMessage{}}, "leave"},
		{&Request{Answer: &Response{Join: &JoinResponse{}}}, "answer"},
	}
	for _, c := range cases {
		if got := c.req.Kind(); got != c.want {
			t.Errorf("Kind() = %q, want %q", got, c.want)
		}
	}
}

func TestRequestCodecRoundTrip(t *testing.T) {
	req := &Request{
		Alerts: &BatchedAlertMessage{
			Sender: "10.0.0.1:1",
			Alerts: []AlertMessage{
				{
					EdgeSrc:         "10.0.0.1:1",
					EdgeDst:         "10.0.0.2:1",
					Status:          EdgeDown,
					ConfigurationID: 777,
					RingNumbers:     []int{0, 3, 7},
				},
				{
					EdgeSrc:         "10.0.0.1:1",
					EdgeDst:         "10.0.0.9:1",
					Status:          EdgeUp,
					ConfigurationID: 777,
					RingNumbers:     []int{1},
					JoinerID:        node.ID{High: 4, Low: 5},
					Metadata:        map[string]string{"role": "backend"},
				},
			},
		},
	}
	data, err := EncodeRequest(req)
	if err != nil {
		t.Fatalf("EncodeRequest: %v", err)
	}
	got, err := DecodeRequest(data)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if got.Kind() != "alerts" {
		t.Fatalf("decoded kind = %q", got.Kind())
	}
	if len(got.Alerts.Alerts) != 2 {
		t.Fatalf("decoded %d alerts, want 2", len(got.Alerts.Alerts))
	}
	if got.Alerts.Alerts[1].Metadata["role"] != "backend" {
		t.Error("metadata did not survive the round trip")
	}
	if got.Alerts.Alerts[0].Status != EdgeDown || got.Alerts.Alerts[1].Status != EdgeUp {
		t.Error("edge statuses did not survive the round trip")
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	resp := &Response{
		Join: &JoinResponse{
			Sender:          "seed:1",
			Status:          JoinSafeToJoin,
			ConfigurationID: 42,
			Members: []node.Endpoint{
				{Addr: "a:1", ID: node.ID{High: 1, Low: 2}},
				{Addr: "b:1", ID: node.ID{High: 3, Low: 4}, Metadata: map[string]string{"x": "y"}},
			},
		},
	}
	data, err := EncodeResponse(resp)
	if err != nil {
		t.Fatalf("EncodeResponse: %v", err)
	}
	got, err := DecodeResponse(data)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if got.Join == nil || len(got.Join.Members) != 2 {
		t.Fatalf("decoded response missing members: %+v", got)
	}
	if got.Join.Members[1].Metadata["x"] != "y" {
		t.Error("member metadata lost in round trip")
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	if _, err := DecodeRequest([]byte("not gob")); err == nil {
		t.Error("DecodeRequest should fail on garbage input")
	}
	if _, err := DecodeResponse([]byte{0x01, 0x02}); err == nil {
		t.Error("DecodeResponse should fail on garbage input")
	}
}

func TestSizesArePositive(t *testing.T) {
	req := &Request{Probe: &ProbeRequest{Sender: "x:1"}}
	if len(AppendRequest(nil, req)) <= 0 {
		t.Error("a valid request should encode to some bytes")
	}
	if len(AppendResponse(nil, AckResponse())) <= 0 {
		t.Error("a valid response should encode to some bytes")
	}
}

func TestBatchedAlertSizeGrowsSublinearly(t *testing.T) {
	// Batching should amortize per-message overhead: the encoded size of a
	// 10-alert batch must be well under 10x the size of a 1-alert batch.
	single := &Request{Alerts: &BatchedAlertMessage{
		Sender: "a:1",
		Alerts: []AlertMessage{{EdgeSrc: "a:1", EdgeDst: "b:1", ConfigurationID: 1}},
	}}
	batch := &Request{Alerts: &BatchedAlertMessage{Sender: "a:1"}}
	for i := 0; i < 10; i++ {
		batch.Alerts.Alerts = append(batch.Alerts.Alerts, AlertMessage{
			EdgeSrc: "a:1", EdgeDst: node.Addr(string(rune('b'+i)) + ":1"), ConfigurationID: 1,
		})
	}
	s1, s10 := len(AppendRequest(nil, single)), len(AppendRequest(nil, batch))
	if s10 >= 10*s1 {
		t.Errorf("batched size %d should be < 10x single size %d", s10, s1)
	}
}
