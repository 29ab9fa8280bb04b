package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// client implements transport.Client. All clients of a Network share its
// per-destination pools; from only labels the sender.
type client struct {
	net  *Network
	from node.Addr
}

// Send implements transport.Client over a pooled, pipelined connection.
//
// Error contract: if the caller's context is canceled or expires, its
// ctx.Err() is returned verbatim. Otherwise dial failures, peer-closed
// connections and connection resets map to transport.ErrUnreachable, and
// deadline-style failures (including the internal RequestTimeout when the
// caller set no deadline) map to transport.ErrTimeout.
func (c *client) Send(ctx context.Context, to node.Addr, req *remoting.Request) (*remoting.Response, error) {
	callerCtx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.net.opts.RequestTimeout)
		defer cancel()
	}
	return c.net.send(callerCtx, ctx, to, req, false)
}

// SendBestEffort implements transport.Client: the message is queued for a
// bounded worker pool, which writes it as a one-way frame that the peer
// handles and does not answer; if the queue is full it is dropped and counted
// rather than spawning an unbounded goroutine (and connection) per message.
func (c *client) SendBestEffort(to node.Addr, req *remoting.Request) {
	n := c.net
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	select {
	case n.beCh <- beTask{to: to, req: req}:
		n.mu.Unlock()
		n.st.bestEffortQueued.Add(1)
	default:
		n.mu.Unlock()
		n.st.bestEffortDropped.Add(1)
	}
}

// send runs one exchange; with oneWay it writes the request as a one-way
// frame and returns, with no response, once the frame is on the connection.
// callerCtx distinguishes "the caller gave up" (preserve ctx.Err()) from "our
// internal request timeout fired" (report transport.ErrTimeout). A send that fails while writing to a
// reused pooled connection — the peer closed it while idle — is retried once
// on a fresh connection; the request was never processed, so the retry is
// safe.
func (n *Network) send(callerCtx, ctx context.Context, to node.Addr, req *remoting.Request, oneWay bool) (*remoting.Response, error) {
	pl := n.pool(to)
	if pl == nil {
		return nil, fmt.Errorf("%w: network closed", transport.ErrUnreachable)
	}
	data, err := remoting.EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	n.st.requests.Add(1)
	for attempt := 0; ; attempt++ {
		pc, err := pl.acquire(ctx)
		if err != nil {
			if cerr := callerCtx.Err(); cerr != nil {
				return nil, cerr
			}
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				// The internal request timeout fired while dialing/waiting.
				return nil, transport.ErrTimeout
			}
			return nil, err
		}
		var resp *remoting.Response
		var retryable bool
		if oneWay {
			err, retryable = pc.write(callerCtx, ctx, oneWayID, data)
		} else {
			resp, err, retryable = pc.roundTrip(callerCtx, ctx, data)
		}
		if err != nil && retryable && attempt == 0 {
			n.st.staleRetries.Add(1)
			continue
		}
		return resp, err
	}
}

// pool is the one pipelined connection to a destination, plus the dial
// backoff state that makes sends to a dead peer fail fast instead of each
// opening its own doomed SYN.
type pool struct {
	net  *Network
	addr node.Addr

	mu           sync.Mutex
	conn         *pconn        // nil until dialed, and again once it died
	dialDone     chan struct{} // non-nil while a dial is in flight
	backoffUntil time.Time
	backoff      time.Duration
	closed       bool
}

func newPool(n *Network, addr node.Addr) *pool {
	return &pool{net: n, addr: addr}
}

// acquire returns the live connection to the pool's destination, dialing at
// most once at a time: concurrent senders wait for the in-flight dial
// instead of each dialing their own connection (this is what collapses a
// join storm's worth of messages onto one FD).
func (pl *pool) acquire(ctx context.Context) (*pconn, error) {
	pl.mu.Lock()
	for {
		if pl.closed {
			pl.mu.Unlock()
			return nil, fmt.Errorf("%w: network closed", transport.ErrUnreachable)
		}
		if pc := pl.conn; pc != nil {
			pl.mu.Unlock()
			return pc, nil
		}
		if until := pl.backoffUntil; time.Now().Before(until) {
			pl.mu.Unlock()
			return nil, fmt.Errorf("%w: dial backoff until %s", transport.ErrUnreachable, until.Format("15:04:05.000"))
		}
		if pl.dialDone != nil {
			done := pl.dialDone
			pl.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			pl.mu.Lock()
			continue
		}
		// This goroutine dials; everyone else waits on dialDone.
		pl.dialDone = make(chan struct{})
		pl.mu.Unlock()
		pc, err := pl.dial(ctx)
		pl.mu.Lock()
		close(pl.dialDone)
		pl.dialDone = nil
		if err != nil {
			pl.mu.Unlock()
			return nil, err
		}
		if pl.closed {
			pl.mu.Unlock()
			pc.close(fmt.Errorf("%w: network closed", transport.ErrUnreachable))
			return nil, fmt.Errorf("%w: network closed", transport.ErrUnreachable)
		}
		pl.conn = pc
		pl.mu.Unlock()
		return pc, nil
	}
}

// dial opens and wires up one pipelined connection. Called with pl.mu
// released; only one dial runs at a time per pool.
func (pl *pool) dial(ctx context.Context) (*pconn, error) {
	opts := &pl.net.opts
	dctx, cancel := context.WithTimeout(ctx, opts.DialTimeout)
	conn, err := opts.Dial(dctx, "tcp", string(pl.addr))
	cancel()
	if err != nil {
		pl.net.st.dialErrors.Add(1)
		pl.mu.Lock()
		if pl.backoff == 0 {
			pl.backoff = opts.DialBackoffBase
		} else if pl.backoff < opts.DialBackoffMax {
			pl.backoff *= 2
			if pl.backoff > opts.DialBackoffMax {
				pl.backoff = opts.DialBackoffMax
			}
		}
		pl.backoffUntil = time.Now().Add(pl.backoff)
		pl.mu.Unlock()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("%w: dial %s: %v", transport.ErrUnreachable, pl.addr, err)
	}
	pl.mu.Lock()
	pl.backoff = 0
	pl.backoffUntil = time.Time{}
	pl.mu.Unlock()
	pl.net.st.dials.Add(1)
	pl.net.st.openConns.Add(1)
	pc := &pconn{
		pool:    pl,
		conn:    conn,
		pending: make(map[uint64]chan result),
	}
	pc.lastWrite.Store(time.Now().UnixNano())
	go pc.readLoop()
	return pc, nil
}

// remove drops a dead connection from the pool.
func (pl *pool) remove(pc *pconn) {
	pl.mu.Lock()
	if pl.conn == pc {
		pl.conn = nil
	}
	pl.mu.Unlock()
}

// closeAll closes the pooled connection; used by Network.Close.
func (pl *pool) closeAll() {
	pl.mu.Lock()
	pl.closed = true
	pc := pl.conn
	pl.conn = nil
	pl.mu.Unlock()
	if pc != nil {
		pc.close(fmt.Errorf("%w: network closed", transport.ErrUnreachable))
	}
}

// result is one demuxed response.
type result struct {
	resp *remoting.Response
	err  error
}

// pconn is one pipelined connection: a write lock serializes frames out, a
// reader goroutine demuxes ID-tagged responses back to waiting senders.
type pconn struct {
	pool *pool
	conn net.Conn

	wmu       sync.Mutex   // serializes writeFrame calls
	lastWrite atomic.Int64 // unix nanoseconds of the last frame written, or of the dial

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan result
	closed  bool
	failErr error
}

// roundTrip sends one encoded request and waits for its response. retryable
// reports that the failure happened before the request could have been
// processed (a write to a connection the peer had closed), so the caller may
// safely retry on a fresh connection.
func (pc *pconn) roundTrip(callerCtx, ctx context.Context, data []byte) (_ *remoting.Response, err error, retryable bool) {
	pc.mu.Lock()
	if pc.closed {
		err := pc.failErr
		pc.mu.Unlock()
		return nil, err, true
	}
	pc.nextID++
	id := pc.nextID
	ch := make(chan result, 1)
	pc.pending[id] = ch
	pc.mu.Unlock()

	if err, retryable := pc.write(callerCtx, ctx, id, data); err != nil {
		pc.unregister(id)
		return nil, err, retryable
	}

	select {
	case r := <-ch:
		if r.err != nil && callerCtx.Err() != nil {
			return nil, callerCtx.Err(), false
		}
		return r.resp, r.err, false
	case <-ctx.Done():
		pc.unregister(id)
		if cerr := callerCtx.Err(); cerr != nil {
			return nil, cerr, false
		}
		return nil, transport.ErrTimeout, false
	}
}

// write puts one frame on the connection. A failed write closes the
// connection; retryable reports that the peer cannot have processed the
// frame, unless the caller gave up.
func (pc *pconn) write(callerCtx, ctx context.Context, id uint64, data []byte) (err error, retryable bool) {
	pc.wmu.Lock()
	if dl, ok := ctx.Deadline(); ok {
		pc.conn.SetWriteDeadline(dl)
	}
	werr := writeFrame(pc.conn, id, data)
	pc.wmu.Unlock()
	if werr == nil {
		pc.lastWrite.Store(time.Now().UnixNano())
		return nil, false
	}
	pc.close(fmt.Errorf("%w: write: %v", transport.ErrUnreachable, werr))
	if cerr := callerCtx.Err(); cerr != nil {
		return cerr, false
	}
	return fmt.Errorf("%w: write %s: %v", transport.ErrUnreachable, pc.pool.addr, werr), true
}

func (pc *pconn) unregister(id uint64) {
	pc.mu.Lock()
	delete(pc.pending, id)
	pc.mu.Unlock()
}

// readLoop demuxes responses to waiters until the connection dies or idles
// out. The client end idles out at 3/4 of IdleTimeout so that reuse of a
// long-idle connection rarely races the server's own idle close. A one-way
// frame gets no answer, so the connection is idle only once nothing has been
// read from it nor written to it for that long; the wait for the next frame
// may run out and start again only while no byte of that frame has arrived.
func (pc *pconn) readLoop() {
	idle := pc.pool.net.opts.IdleTimeout * 3 / 4
	r := bufio.NewReaderSize(pc.conn, readBufferSize)
	deadline := time.Now().Add(idle)
	for {
		pc.conn.SetReadDeadline(deadline)
		if _, err := r.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if deadline = time.Unix(0, pc.lastWrite.Load()).Add(idle); time.Now().Before(deadline) {
					continue // written to since: not idle yet
				}
				pc.mu.Lock()
				quiet := len(pc.pending) == 0
				pc.mu.Unlock()
				if quiet {
					// Normal idle reap: nobody is waiting, just retire the conn.
					pc.close(fmt.Errorf("%w: connection idle-closed", transport.ErrUnreachable))
					return
				}
			}
			pc.close(mapReadErr(pc.pool.addr, err))
			return
		}
		id, frame, err := readFrame(r)
		if err != nil {
			pc.close(mapReadErr(pc.pool.addr, err))
			return
		}
		deadline = time.Now().Add(idle)
		resp, derr := remoting.DecodeResponse(frame)
		pc.mu.Lock()
		ch, ok := pc.pending[id]
		delete(pc.pending, id)
		pc.mu.Unlock()
		if ok {
			ch <- result{resp: resp, err: derr}
		}
	}
}

// mapReadErr translates a broken-connection read failure honestly: deadline
// expiries are timeouts, everything else (EOF, ECONNRESET, use-of-closed)
// means the peer is gone.
func mapReadErr(addr node.Addr, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: read %s: %v", transport.ErrTimeout, addr, err)
	}
	return fmt.Errorf("%w: read %s: %v", transport.ErrUnreachable, addr, err)
}

// close fails every pending waiter with err, closes the socket and removes
// the connection from its pool. Idempotent.
func (pc *pconn) close(err error) {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return
	}
	pc.closed = true
	pc.failErr = err
	pending := pc.pending
	pc.pending = make(map[uint64]chan result)
	pc.mu.Unlock()

	pc.conn.Close()
	pc.pool.remove(pc)
	pc.pool.net.st.openConns.Add(-1)
	for _, ch := range pending {
		ch <- result{err: err}
	}
}
