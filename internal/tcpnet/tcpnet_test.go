package tcpnet

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/transport"
)

type countingHandler struct {
	mu      sync.Mutex
	probes  int
	entered int
	block   chan struct{} // non-nil: handlers wait here before responding
}

func (h *countingHandler) HandleRequest(ctx context.Context, _ node.Addr, req *remoting.Request) (*remoting.Response, error) {
	h.mu.Lock()
	h.entered++
	h.mu.Unlock()
	if h.block != nil {
		select {
		case <-h.block:
		case <-ctx.Done():
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if req.Probe != nil {
		h.probes++
		return &remoting.Response{Probe: &remoting.ProbeResponse{Status: remoting.NodeOK}}, nil
	}
	return remoting.AckResponse(), nil
}

func (h *countingHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.probes
}

func (h *countingHandler) inFlight() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.entered
}

func newTestNet(t *testing.T, opts Options) *Network {
	t.Helper()
	n, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

func registerTestListener(t *testing.T, n *Network, h transport.Handler) node.Addr {
	t.Helper()
	if err := n.Register("127.0.0.1:0", h); err != nil {
		t.Fatalf("Register: %v", err)
	}
	addr, ok := n.ListenAddr("127.0.0.1:0")
	if !ok {
		t.Fatal("ListenAddr not found")
	}
	return addr
}

func probeReq() *remoting.Request {
	return &remoting.Request{Probe: &remoting.ProbeRequest{Sender: "client"}}
}

func TestTCPRequestResponse(t *testing.T) {
	n := newTestNet(t, Options{})
	h := &countingHandler{}
	addr := registerTestListener(t, n, h)

	resp, err := n.Client("client").Send(context.Background(), addr, probeReq())
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if resp.Probe == nil || resp.Probe.Status != remoting.NodeOK {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if h.count() != 1 {
		t.Fatalf("handler saw %d probes, want 1", h.count())
	}
}

func TestTCPSendToDownAddressFails(t *testing.T) {
	n := newTestNet(t, Options{DialTimeout: 200 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := n.Client("client").Send(ctx, "127.0.0.1:1", probeReq())
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("send to a closed port: got %v, want ErrUnreachable", err)
	}
}

func TestTCPBestEffortDelivered(t *testing.T) {
	n := newTestNet(t, Options{})
	h := &countingHandler{}
	addr := registerTestListener(t, n, h)

	n.Client("client").SendBestEffort(addr, probeReq())
	deadline := time.Now().Add(2 * time.Second)
	for h.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if h.count() != 1 {
		t.Fatal("best-effort message never arrived")
	}
	if got := n.Stats().BestEffortQueued; got != 1 {
		t.Fatalf("BestEffortQueued = %d, want 1", got)
	}
}

// TestBestEffortWorkerDoesNotWaitForTheAnswer: a best-effort send is a
// one-way frame, so the workers put a whole burst on the connection while
// the handlers of the first messages are still running. The burst is twice
// the bestEffortWorkers pool: workers that waited for each answer would have
// at most one message each in flight, fewer than the burst.
func TestBestEffortWorkerDoesNotWaitForTheAnswer(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	n := newTestNet(t, Options{RequestTimeout: 10 * time.Second})
	h := &countingHandler{block: block}
	addr := registerTestListener(t, n, h)

	const burst = 2 * bestEffortWorkers
	c := n.Client("client")
	for i := 0; i < burst; i++ {
		c.SendBestEffort(addr, probeReq())
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.inFlight() < burst && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := h.inFlight(); got != burst {
		t.Fatalf("%d of %d best-effort messages reached a blocked handler through %d workers", got, burst, bestEffortWorkers)
	}
	if st := n.Stats(); st.Requests != burst || st.Dials != 1 {
		t.Fatalf("Requests = %d, Dials = %d; want %d one-way frames over 1 dial", st.Requests, st.Dials, burst)
	}
}

// TestOneWayFrameIsNotAnswered: the server handles a frame with ID 0 and
// writes nothing back, while the request after it is answered as usual.
func TestOneWayFrameIsNotAnswered(t *testing.T) {
	n := newTestNet(t, Options{})
	h := &countingHandler{}
	addr := registerTestListener(t, n, h)
	data, err := remoting.EncodeRequest(probeReq())
	if err != nil {
		t.Fatal(err)
	}
	conn := rawDial(t, string(addr))
	if err := writeFrame(conn, oneWayID, data); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, 5, data); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	id, _, err := readFrame(conn)
	if err != nil {
		t.Fatalf("no answer to the request after a one-way frame: %v", err)
	}
	if id != 5 {
		t.Fatalf("the server answered frame %d, want only frame 5", id)
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if id, _, err := readFrame(conn); err == nil {
		t.Fatalf("the server wrote a second frame (ID %d) for one answered request", id)
	}
	if got := h.count(); got != 2 {
		t.Fatalf("handler saw %d probes, want 2 (one one-way, one answered)", got)
	}
}

// TestAnswerToOneWayFrameIsDropped: a peer that answers every frame, as a
// server that does not know one-way frames would, sends back a response with
// ID 0. The client drops it, and the connection keeps serving requests.
func TestAnswerToOneWayFrameIsDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ack, err := remoting.EncodeResponse(&remoting.Response{Probe: &remoting.ProbeResponse{Sender: "peer", Status: remoting.NodeOK}})
	if err != nil {
		t.Fatal(err)
	}
	var answered atomic.Int64
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			id, _, err := readFrame(conn)
			if err != nil || writeFrame(conn, id, ack) != nil {
				return
			}
			answered.Add(1)
		}
	}()

	n := newTestNet(t, Options{})
	c := n.Client("client")
	addr := node.Addr(ln.Addr().String())
	c.SendBestEffort(addr, probeReq())
	deadline := time.Now().Add(2 * time.Second)
	for answered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if answered.Load() == 0 {
		t.Fatal("the one-way frame never reached the peer")
	}
	// The stray answer is on the wire ahead of this request's.
	resp, err := c.Send(context.Background(), addr, probeReq())
	if err != nil {
		t.Fatalf("Send after an answered one-way frame: %v", err)
	}
	if resp.Probe == nil || resp.Probe.Status != remoting.NodeOK {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if st := n.Stats(); st.Dials != 1 || st.OpenConns != 1 {
		t.Fatalf("Dials = %d, OpenConns = %d; want one connection that survived the stray answer", st.Dials, st.OpenConns)
	}
}

// TestOneWayTrafficKeepsTheConnection: a connection that only carries
// one-way frames reads nothing, and is still not idle while it is written
// to. Once the writes stop it is reaped as usual.
func TestOneWayTrafficKeepsTheConnection(t *testing.T) {
	n := newTestNet(t, Options{IdleTimeout: 200 * time.Millisecond})
	h := &countingHandler{}
	addr := registerTestListener(t, n, h)
	c := n.Client("client")

	const sends = 12 // every 50 ms: four client idle periods of 150 ms
	for i := 0; i < sends; i++ {
		c.SendBestEffort(addr, probeReq())
		time.Sleep(50 * time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.count() < sends && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := h.count(); got != sends {
		t.Fatalf("handler saw %d of %d one-way frames", got, sends)
	}
	if st := n.Stats(); st.Dials != 1 {
		t.Fatalf("Dials = %d while one-way frames kept the connection busy, want 1", st.Dials)
	}
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && n.Stats().OpenConns != 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := n.Stats().OpenConns; got != 0 {
		t.Fatalf("connection not reaped once the writes stopped: OpenConns = %d", got)
	}
}

// TestConcurrentSendsShareOneConnection is the pooling invariant: many
// concurrent Sends to one peer must ride one pooled connection (one dial),
// not one FD each. Run under -race this also exercises the demux reader and
// write-lock paths for data races.
func TestConcurrentSendsShareOneConnection(t *testing.T) {
	n := newTestNet(t, Options{})
	h := &countingHandler{}
	addr := registerTestListener(t, n, h)

	const senders = 32
	const perSender = 20
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := n.Client("client")
			for j := 0; j < perSender; j++ {
				if _, err := c.Send(context.Background(), addr, probeReq()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Send: %v", err)
	}
	st := n.Stats()
	if h.count() != senders*perSender {
		t.Fatalf("handler saw %d probes, want %d", h.count(), senders*perSender)
	}
	if st.Dials != 1 {
		t.Fatalf("%d concurrent senders dialed %d times, want exactly 1 pooled connection", senders, st.Dials)
	}
	if st.Requests != senders*perSender {
		t.Fatalf("Requests = %d, want %d", st.Requests, senders*perSender)
	}
	if st.AcceptedConns != 1 {
		t.Fatalf("server accepted %d conns, want 1", st.AcceptedConns)
	}
}

// TestPipeliningNoHeadOfLineBlocking: with handlers blocked, a later request
// on the same connection must still complete once handlers unblock, and
// responses arriving out of order must demux to the right waiters.
func TestPipeliningInFlightRequestsOverlap(t *testing.T) {
	block := make(chan struct{})
	h := &countingHandler{block: block}
	n := newTestNet(t, Options{RequestTimeout: 5 * time.Second})
	addr := registerTestListener(t, n, h)

	const inflight = 8
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Client("c").Send(context.Background(), addr, probeReq()); err != nil {
				errs <- err
			}
		}()
	}
	// All requests must be executing on the server simultaneously (i.e.
	// pipelined past the reader) before any response is released.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if h.inFlight() == inflight {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h.inFlight() != inflight {
		t.Fatalf("only %d of %d requests in flight concurrently on one connection", h.inFlight(), inflight)
	}
	close(block)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("pipelined Send: %v", err)
	}
	if st := n.Stats(); st.Dials != 1 {
		t.Fatalf("pipelined sends dialed %d times, want 1", st.Dials)
	}
	if h.count() != inflight {
		t.Fatalf("handler saw %d, want %d", h.count(), inflight)
	}
}

// --- error mapping (satellite: honest errors) -------------------------------

func TestSendErrorMapping(t *testing.T) {
	tests := []struct {
		name string
		run  func(t *testing.T) error
		want error
	}{
		{
			name: "canceled mid-dial preserves context.Canceled",
			run: func(t *testing.T) error {
				// A hanging dialer injected through the TLS-ready Dial hook:
				// the dial blocks until the caller's context is canceled.
				n := newTestNet(t, Options{
					DialTimeout: 5 * time.Second,
					Dial: func(ctx context.Context, _, _ string) (net.Conn, error) {
						<-ctx.Done()
						return nil, ctx.Err()
					},
				})
				ctx, cancel := context.WithCancel(context.Background())
				go func() { time.Sleep(50 * time.Millisecond); cancel() }()
				_, err := n.Client("c").Send(ctx, "127.0.0.1:9", probeReq())
				return err
			},
			want: context.Canceled,
		},
		{
			name: "caller deadline mid-dial preserves context.DeadlineExceeded",
			run: func(t *testing.T) error {
				n := newTestNet(t, Options{
					DialTimeout: 5 * time.Second,
					Dial: func(ctx context.Context, _, _ string) (net.Conn, error) {
						<-ctx.Done()
						return nil, ctx.Err()
					},
				})
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				_, err := n.Client("c").Send(ctx, "127.0.0.1:9", probeReq())
				return err
			},
			want: context.DeadlineExceeded,
		},
		{
			name: "canceled while waiting for a response preserves context.Canceled",
			run: func(t *testing.T) error {
				block := make(chan struct{})
				defer close(block)
				n := newTestNet(t, Options{RequestTimeout: 10 * time.Second})
				addr := registerTestListener(t, n, &countingHandler{block: block})
				ctx, cancel := context.WithCancel(context.Background())
				go func() { time.Sleep(50 * time.Millisecond); cancel() }()
				_, err := n.Client("c").Send(ctx, addr, probeReq())
				return err
			},
			want: context.Canceled,
		},
		{
			name: "connection refused maps to ErrUnreachable",
			run: func(t *testing.T) error {
				n := newTestNet(t, Options{DialTimeout: 200 * time.Millisecond})
				_, err := n.Client("c").Send(context.Background(), "127.0.0.1:1", probeReq())
				return err
			},
			want: transport.ErrUnreachable,
		},
		{
			name: "internal request timeout maps to ErrTimeout",
			run: func(t *testing.T) error {
				block := make(chan struct{})
				defer close(block)
				// The server bounds its handler by its own RequestTimeout, so
				// it runs on a network whose timeout cannot race the client's.
				server := newTestNet(t, Options{RequestTimeout: 10 * time.Second})
				addr := registerTestListener(t, server, &countingHandler{block: block})
				n := newTestNet(t, Options{RequestTimeout: 100 * time.Millisecond})
				// No caller deadline: the transport's own RequestTimeout fires.
				_, err := n.Client("c").Send(context.Background(), addr, probeReq())
				return err
			},
			want: transport.ErrTimeout,
		},
		{
			name: "connection reset mid-request maps to ErrUnreachable",
			run: func(t *testing.T) error {
				block := make(chan struct{})
				n := newTestNet(t, Options{RequestTimeout: 10 * time.Second})
				h := &countingHandler{block: block}
				addr := registerTestListener(t, n, h)
				done := make(chan error, 1)
				go func() {
					_, err := n.Client("c").Send(context.Background(), addr, probeReq())
					done <- err
				}()
				// Wait for the request to be in flight, then tear the server
				// down so the client's pooled connection is closed under it.
				deadline := time.Now().Add(2 * time.Second)
				for time.Now().Before(deadline) && n.Stats().AcceptedConns == 0 {
					time.Sleep(5 * time.Millisecond)
				}
				time.Sleep(50 * time.Millisecond)
				// Deregister closes the connection immediately but then drains
				// the in-flight handler, so run it aside and release the
				// handler once the client has observed the reset.
				dereg := make(chan struct{})
				go func() { n.Deregister("127.0.0.1:0"); close(dereg) }()
				err := <-done
				close(block)
				<-dereg
				return err
			},
			want: transport.ErrUnreachable,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got error %v, want %v", err, tc.want)
			}
		})
	}
}

// --- options validation (satellite: configurable idle timeout) --------------

func TestOptionsValidation(t *testing.T) {
	tests := []struct {
		name    string
		opts    Options
		wantErr bool
	}{
		{"zero values default", Options{}, false},
		{"explicit idle timeout", Options{IdleTimeout: 5 * time.Second}, false},
		{"negative idle timeout rejected", Options{IdleTimeout: -time.Second}, true},
		{"negative dial timeout rejected", Options{DialTimeout: -1}, true},
		{"negative request timeout rejected", Options{RequestTimeout: -1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			n, err := New(tc.opts)
			if tc.wantErr {
				if err == nil {
					n.Close()
					t.Fatal("New accepted invalid options")
				}
				return
			}
			if err != nil {
				t.Fatalf("New rejected valid options: %v", err)
			}
			n.Close()
		})
	}
}

func TestIdleTimeoutDefaultsApplied(t *testing.T) {
	n := newTestNet(t, Options{})
	if n.opts.IdleTimeout != 60*time.Second {
		t.Fatalf("zero IdleTimeout did not default to 60s: %v", n.opts.IdleTimeout)
	}
}

// TestIdleConnectionsAreReaped: with a tiny idle timeout, the pooled
// connection must be retired after a quiet period and a later send must
// transparently re-dial.
func TestIdleConnectionsAreReaped(t *testing.T) {
	n := newTestNet(t, Options{IdleTimeout: 200 * time.Millisecond})
	h := &countingHandler{}
	addr := registerTestListener(t, n, h)
	c := n.Client("client")

	if _, err := c.Send(context.Background(), addr, probeReq()); err != nil {
		t.Fatalf("Send: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && n.Stats().OpenConns != 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := n.Stats().OpenConns; got != 0 {
		t.Fatalf("idle connection never reaped: OpenConns = %d", got)
	}
	if _, err := c.Send(context.Background(), addr, probeReq()); err != nil {
		t.Fatalf("Send after idle reap: %v", err)
	}
	if st := n.Stats(); st.Dials != 2 {
		t.Fatalf("Dials = %d, want 2 (one initial, one after idle reap)", st.Dials)
	}
}

// --- frame round trip --------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello rapid")
	if err := writeFrame(&buf, 42, payload); err != nil {
		t.Fatal(err)
	}
	id, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 {
		t.Fatalf("frame ID round trip: got %d, want 42", id)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip mismatch: %q", got)
	}
}

func TestReadFrameRejectsHugeFrames(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	if _, _, err := readFrame(&buf); err == nil {
		t.Fatal("readFrame should reject oversized frames")
	}
}

func TestDeregisterStopsListener(t *testing.T) {
	n := newTestNet(t, Options{DialTimeout: 200 * time.Millisecond})
	h := &countingHandler{}
	addr := registerTestListener(t, n, h)
	n.Deregister("127.0.0.1:0")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := n.Client("c").Send(ctx, addr, probeReq()); err == nil {
		t.Fatal("send after Deregister should fail")
	}
}

func TestRegisterTwiceFails(t *testing.T) {
	n := newTestNet(t, Options{})
	addr := registerTestListener(t, n, &countingHandler{})
	if err := n.Register(addr, &countingHandler{}); err == nil {
		t.Fatalf("second Register on %s should fail", addr)
	}
}
