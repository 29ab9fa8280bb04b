package cutdetect

import (
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
)

// TestRingBitmapPastOneWord: the reported rings are a bitmap, and a K past 64
// takes more than one word of it.
func TestRingBitmapPastOneWord(t *testing.T) {
	d := New(100, 90, 30)
	subject := node.Endpoint{Addr: "s:1"}
	report := func(ring int) []node.Endpoint {
		return d.AggregateForProposal(remoting.AlertMessage{EdgeSrc: "o:1", EdgeDst: subject.Addr, RingNumbers: []int{ring}}, subject, time.Unix(0, 0))
	}
	for ring := 99; ring >= 11; ring-- { // 89 reports, high rings first
		if got := report(ring); got != nil {
			t.Fatalf("ring %d: proposal %v before H reports", ring, got)
		}
		report(ring) // a duplicate counts nothing
	}
	if d.Tally(subject.Addr) != 89 || !d.HasReportForRing(subject.Addr, 70) || d.HasReportForRing(subject.Addr, 6) || d.HasReportForRing(subject.Addr, 100) {
		t.Fatalf("tally %d, ring 70 %v, ring 6 %v", d.Tally(subject.Addr), d.HasReportForRing(subject.Addr, 70), d.HasReportForRing(subject.Addr, 6))
	}
	if got := report(6); len(got) != 1 || got[0].Addr != subject.Addr {
		t.Fatalf("the 90th report proposed %v", got)
	}
}
