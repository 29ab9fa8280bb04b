package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// listenerState is one Register binding: a listener, its accept loop and the
// inbound connections it has spawned (tracked so Deregister can close them
// instead of waiting out their idle timeouts).
type listenerState struct {
	net     *Network
	ln      net.Listener
	handler transport.Handler
	quit    chan struct{}
	wg      sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// acceptBackoff schedules retry delays for transient Accept failures:
// exponential from 5ms to 1s, reset by any successful accept. Under FD
// exhaustion the loop used to spin at 100% CPU retrying EMFILE; now it backs
// off and recovers when descriptors free up.
const (
	acceptBackoffBase = 5 * time.Millisecond
	acceptBackoffMax  = time.Second
)

// isTemporaryAcceptErr classifies Accept failures worth retrying: timeouts
// and resource-exhaustion or connection-level errnos. Anything else —
// including net.ErrClosed from Deregister — permanently stops the loop.
func isTemporaryAcceptErr(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	for _, errno := range []syscall.Errno{
		syscall.EMFILE, syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM,
		syscall.ECONNABORTED, syscall.ECONNRESET, syscall.EINTR,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

func (st *listenerState) acceptLoop() {
	defer st.wg.Done()
	backoff := time.Duration(0)
	for {
		conn, err := st.ln.Accept()
		if err != nil {
			select {
			case <-st.quit:
				return
			default:
			}
			if !isTemporaryAcceptErr(err) {
				// Permanent failure: exit cleanly rather than spin. The
				// listener is dead either way; Deregister still works.
				return
			}
			st.net.st.acceptErrors.Add(1)
			if backoff == 0 {
				backoff = acceptBackoffBase
			} else if backoff < acceptBackoffMax {
				backoff *= 2
				if backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
			}
			t := time.NewTimer(backoff)
			select {
			case <-st.quit:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		backoff = 0
		st.net.st.acceptedConns.Add(1)
		st.track(conn)
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			st.serveConn(conn)
		}()
	}
}

func (st *listenerState) track(conn net.Conn) {
	st.mu.Lock()
	st.conns[conn] = struct{}{}
	st.mu.Unlock()
}

func (st *listenerState) untrack(conn net.Conn) {
	st.mu.Lock()
	delete(st.conns, conn)
	st.mu.Unlock()
}

// shutdown stops the accept loop, closes every inbound connection and waits
// for in-flight handlers to drain.
func (st *listenerState) shutdown() {
	close(st.quit)
	st.ln.Close()
	st.mu.Lock()
	for conn := range st.conns {
		conn.Close()
	}
	st.mu.Unlock()
	st.wg.Wait()
}

// serveConn serves one inbound connection, pipelined: frames are read
// sequentially but each request's handler runs in its own goroutine (bounded
// by maxInFlightPerConn) and responses are written, ID-tagged, in completion
// order under a write lock. A one-way frame's response is dropped instead.
// A decode failure or idle timeout closes the connection; clients re-dial
// transparently.
func (st *listenerState) serveConn(conn net.Conn) {
	defer st.untrack(conn)
	defer conn.Close()

	opts := &st.net.opts
	from := node.Addr(conn.RemoteAddr().String())
	r := bufio.NewReaderSize(conn, readBufferSize)
	sem := make(chan struct{}, maxInFlightPerConn)
	var wmu sync.Mutex
	var inflight sync.WaitGroup
	defer inflight.Wait()

	for {
		conn.SetReadDeadline(time.Now().Add(opts.IdleTimeout))
		id, frame, err := readFrame(r)
		if err != nil {
			return
		}
		req, err := remoting.DecodeRequest(frame)
		if err != nil {
			// Protocol violation: drop the connection, not the process.
			return
		}
		select {
		case sem <- struct{}{}:
		case <-st.quit:
			return
		}
		inflight.Add(1)
		go func(id uint64, req *remoting.Request) {
			defer inflight.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), opts.RequestTimeout)
			resp, herr := st.handler.HandleRequest(ctx, from, req)
			cancel()
			if id == oneWayID {
				return
			}
			if herr != nil || resp == nil {
				resp = &remoting.Response{}
			}
			data, eerr := remoting.EncodeResponse(resp)
			if eerr != nil {
				data, _ = remoting.EncodeResponse(&remoting.Response{})
			}
			wmu.Lock()
			conn.SetWriteDeadline(time.Now().Add(opts.RequestTimeout))
			werr := writeFrame(conn, id, data)
			wmu.Unlock()
			if werr != nil {
				conn.Close()
			}
		}(id, req)
	}
}
