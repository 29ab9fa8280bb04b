package core

import (
	"context"

	"repro/internal/node"
	"repro/internal/remoting"
)

// HandleRequest implements transport.Handler. Handlers are thin enqueuers:
// protocol messages go onto the engine queue as they are and are
// acknowledged immediately, so the transport's dispatch path never takes a
// lock and never touches protocol state; which message it is gets decided
// once, in the engine's dispatch. Only the join phases wait for the engine's
// reply, and probes are answered directly from an atomic flag.
func (c *Cluster) HandleRequest(ctx context.Context, from node.Addr, req *remoting.Request) (*remoting.Response, error) {
	switch {
	case req == nil:
		return remoting.AckResponse(), nil
	case req.Probe != nil:
		return c.handleProbe(), nil
	case req.PreJoin != nil:
		return c.handlePreJoin(ctx, req.PreJoin), nil
	case req.Join != nil:
		return c.handleJoinPhase2(ctx, req.Join), nil
	case req.Alerts != nil || req.VoteBatch != nil:
		// enqueueBatch sheds a stale batch when the queue is full instead of
		// blocking the transport's delivery worker; the batch is acked either
		// way, as best-effort dissemination expects.
		c.enqueueBatch(event{req: req})
	default:
		c.enqueue(event{req: req})
	}
	return remoting.AckResponse(), nil
}

// handleProbe answers an edge failure detector probe without involving the
// engine: probe latency is what failure detection is calibrated against, so
// it must not queue behind protocol work.
func (c *Cluster) handleProbe() *remoting.Response {
	status := remoting.NodeOK
	if !c.started.Load() {
		status = remoting.NodeBootstrapping
	}
	return &remoting.Response{Probe: &remoting.ProbeResponse{Sender: c.me.Addr, Status: status}}
}

// handlePreJoin forwards phase 1 of the join protocol to the engine and waits
// for its answer; the topology lookup needs a consistent ring view.
func (c *Cluster) handlePreJoin(ctx context.Context, msg *remoting.PreJoinRequest) *remoting.Response {
	busy := &remoting.Response{PreJoin: &remoting.PreJoinResponse{
		Sender: c.me.Addr,
		Status: remoting.JoinViewChangeInProgress,
	}}
	if !c.started.Load() {
		return busy
	}
	reply := make(chan *remoting.Response, 1)
	if !c.enqueue(event{ctl: &control{preJoin: &preJoinEvent{msg: msg, reply: reply}}}) {
		return busy
	}
	select {
	case resp := <-reply:
		return resp
	case <-ctx.Done():
		return busy
	case <-c.stopCh:
		return busy
	}
}

// handleJoinPhase2 forwards phase 2 of the join protocol to the engine, which
// answers at once or at the next view change: admitted, or redirected to
// phase 1. A request that arrives before this member's own engine runs — a
// member is registered with the transport while it is still joining, and the
// configuration that admits it already names it as an observer — waits for
// the engine instead of bouncing. This handler enforces the caller-facing
// bounds: the caller's context and JoinPhase2Timeout.
func (c *Cluster) handleJoinPhase2(ctx context.Context, msg *remoting.JoinRequest) *remoting.Response {
	timeout := c.clock.Timer(c.settings.JoinPhase2Timeout)
	defer timeout.Stop()
	ev := &joinEvent{msg: msg, reply: make(chan *remoting.Response, 1)}
	started := c.startedCh
	var reply chan *remoting.Response // nil until the engine has the request
	for {
		select {
		case <-started:
			started = nil
			if !c.enqueue(event{ctl: &control{join: ev}}) {
				return c.joinBusy()
			}
			reply = ev.reply
		case resp := <-reply:
			return resp
		case <-ctx.Done():
			// A caller that cancelled was answered by another observer or
			// gave the attempt up; only an expired wait counts as timed out.
			return c.abandonJoin(ev, reply, ctx.Err() != context.Canceled)
		case <-timeout.C():
			return c.abandonJoin(ev, reply, true)
		case <-c.stopCh:
			return c.joinBusy()
		}
	}
}

// abandonJoin ends a phase-2 request whose bounds ran out. An answer that is
// already there still wins: on a saturated host this goroutine may be
// scheduled long after the engine replied, with the deadline passed as well.
// Otherwise the engine is told to forget the request, if it ever got it.
func (c *Cluster) abandonJoin(ev *joinEvent, reply chan *remoting.Response, timedOut bool) *remoting.Response {
	select {
	case resp := <-reply:
		return resp
	default:
	}
	if timedOut {
		c.emetrics.JoinsTimedOut.Add(1)
	}
	if reply != nil {
		c.enqueue(event{ctl: &control{joinGone: ev}})
	}
	return c.joinBusy()
}

// joinBusy is the phase-2 answer of a member that cannot serve the request
// now; the joiner counts it as a lost observer.
func (c *Cluster) joinBusy() *remoting.Response {
	return &remoting.Response{Join: &remoting.JoinResponse{
		Sender:          c.me.Addr,
		Status:          remoting.JoinViewChangeInProgress,
		ConfigurationID: c.ConfigurationID(),
	}}
}
