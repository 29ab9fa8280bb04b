package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	rapid "repro"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// The tracing layer sits outside the program under test: a transport.Network
// that wraps the real one handed to StartCluster/JoinCluster. It sees every
// message a member sends and every request a member handles — the boundary
// between core (and the layers it drives) and simnet/tcpnet — and nothing
// inside either. Spans inside the program are a later change.

// tracedKinds are the request kinds that get their own counters and
// histograms; anything else is pooled under "other". The names are
// Request.Kind() with characters outside [A-Za-z0-9_.-] mapped to '_'.
var tracedKinds = []string{
	"probe", "prejoin", "join", "alerts", "votebatch", "alerts_votes",
	"phase1a", "phase1b", "phase2a", "phase2b", "leave", "other",
}

// kindName is the metric-name form of Request.Kind(). The one kind that needs
// rewriting goes out once per member on every broadcast, so it skips sanitize.
func kindName(req *remoting.Request) string {
	if req.Alerts != nil && req.VoteBatch != nil {
		return "alerts_votes"
	}
	return sanitize(req.Kind())
}

// kindStats are the counts and latency histograms of one request kind.
type kindStats struct {
	mu     sync.Mutex
	sends  int64     // Send + SendBestEffort calls
	rtt    histogram // Send round trips
	handle histogram // HandleRequest durations
}

// span is one traced call: a control-plane Send or HandleRequest. Its parent
// is the span of the round (or boot repeat) it happened in, identified by
// Round; probes are counted and histogrammed only.
type span struct {
	Name    string `json:"name"`
	Round   int    `json:"round"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span list: a 200-member view change is
// 200 x 200 vote-batch deliveries, so an unbounded list would grow by tens of
// megabytes per round. Spans past the cap are counted, not kept.
const maxSpans = 400_000

// roundTrace holds the first-seen stamps of the fault round in progress.
type roundTrace struct {
	id      int
	victims map[rapid.Addr]bool

	alertSeen  atomic.Bool
	mu         sync.Mutex
	firstAlert time.Time
	firstVote  time.Time
	proposals  map[uint64]bool // distinct proposals voted for
	phase1a    int
}

type tracer struct {
	epoch time.Time
	kinds map[string]*kindStats // fixed key set, so lookups need no lock
	round atomic.Pointer[roundTrace]

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), kinds: make(map[string]*kindStats)}
	for _, k := range tracedKinds {
		t.kinds[k] = &kindStats{}
	}
	return t
}

func (t *tracer) stats(kind string) *kindStats {
	if ks, ok := t.kinds[kind]; ok {
		return ks
	}
	return t.kinds["other"]
}

// sends is how many requests of one kind members have sent so far.
func (t *tracer) sends(kind string) int64 {
	ks := t.stats(kind)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.sends
}

func (t *tracer) addSpan(name string, start, end time.Time) {
	round := -1
	if r := t.round.Load(); r != nil {
		round = r.id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Name: name, Round: round,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
}

// beginRound opens the span of one fault round (or boot repeat); victims may
// be empty.
func (t *tracer) beginRound(id int, victims []rapid.Addr) *roundTrace {
	r := &roundTrace{id: id, victims: make(map[rapid.Addr]bool), proposals: make(map[uint64]bool)}
	for _, v := range victims {
		r.victims[v] = true
	}
	t.round.Store(r)
	return r
}

// endRound closes the round span.
func (t *tracer) endRound(r *roundTrace, name string, start, end time.Time) {
	t.round.Store(nil)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Round: r.id,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
}

// outbound inspects one outgoing request for the round's first-seen stamps:
// the first REMOVE alert naming a victim, the first fast-round vote whose
// proposal names one, every distinct proposal, and classic-Paxos prepares.
func (t *tracer) outbound(req *remoting.Request, now time.Time) {
	r := t.round.Load()
	if r == nil || len(r.victims) == 0 {
		return
	}
	if req.Alerts != nil && !r.alertSeen.Load() {
		for i := range req.Alerts.Alerts {
			a := &req.Alerts.Alerts[i]
			if a.Status == remoting.EdgeDown && r.victims[a.EdgeDst] {
				r.mu.Lock()
				if r.firstAlert.IsZero() {
					r.firstAlert = now
				}
				r.mu.Unlock()
				r.alertSeen.Store(true)
				break
			}
		}
	}
	if req.VoteBatch != nil {
		for i := range req.VoteBatch.Votes {
			r.vote(req.VoteBatch.Votes[i].Proposal, now)
		}
	}
	if req.FastRound != nil {
		r.vote(req.FastRound.Proposal, now)
	}
	if req.P1a != nil {
		r.mu.Lock()
		r.phase1a++
		r.mu.Unlock()
	}
}

func (r *roundTrace) vote(proposal []node.Endpoint, now time.Time) {
	names := false
	var h uint64
	for i := range proposal {
		names = names || r.victims[proposal[i].Addr]
		h += proposal[i].ID.High*0x9e3779b97f4a7c15 ^ proposal[i].ID.Low
	}
	if !names {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.proposals[h] = true
	if r.firstVote.IsZero() {
		r.firstVote = now
	}
}

// --- the wrapping transport ---------------------------------------------------

type tracedNet struct {
	inner transport.Network
	tr    *tracer
}

func (t *tracer) wrap(inner transport.Network) transport.Network {
	return tracedNet{inner: inner, tr: t}
}

func (n tracedNet) Register(addr node.Addr, h transport.Handler) error {
	return n.inner.Register(addr, tracedHandler{inner: h, tr: n.tr})
}

func (n tracedNet) Deregister(addr node.Addr) { n.inner.Deregister(addr) }

func (n tracedNet) Client(addr node.Addr) transport.Client {
	return &tracedClient{inner: n.inner.Client(addr), tr: n.tr}
}

type tracedClient struct {
	inner transport.Client
	tr    *tracer
	// lastBatch is the request most recently inspected: a broadcast hands the
	// same request to SendBestEffort once per member, and one look is enough.
	lastBatch atomic.Pointer[remoting.Request]
}

func (c *tracedClient) Send(ctx context.Context, to node.Addr, req *remoting.Request) (*remoting.Response, error) {
	kind := kindName(req)
	start := time.Now()
	c.tr.outbound(req, start)
	resp, err := c.inner.Send(ctx, to, req)
	end := time.Now()
	ks := c.tr.stats(kind)
	ks.mu.Lock()
	ks.sends++
	ks.rtt.add(end.Sub(start))
	ks.mu.Unlock()
	if kind != "probe" {
		c.tr.addSpan("send:"+kind, start, end)
	}
	return resp, err
}

func (c *tracedClient) SendBestEffort(to node.Addr, req *remoting.Request) {
	if c.lastBatch.Swap(req) != req {
		c.tr.outbound(req, time.Now())
	}
	ks := c.tr.stats(kindName(req))
	ks.mu.Lock()
	ks.sends++
	ks.mu.Unlock()
	c.inner.SendBestEffort(to, req)
}

type tracedHandler struct {
	inner transport.Handler
	tr    *tracer
}

func (h tracedHandler) HandleRequest(ctx context.Context, from node.Addr, req *remoting.Request) (*remoting.Response, error) {
	kind := kindName(req)
	start := time.Now()
	resp, err := h.inner.HandleRequest(ctx, from, req)
	end := time.Now()
	ks := h.tr.stats(kind)
	ks.mu.Lock()
	ks.handle.add(end.Sub(start))
	ks.mu.Unlock()
	if kind != "probe" {
		h.tr.addSpan("handle:"+kind, start, end)
	}
	return resp, err
}

// writeSpans writes the span list as one JSON document.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Dropped int64  `json:"spans_dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
