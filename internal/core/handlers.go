package core

import (
	"context"

	"repro/internal/node"
	"repro/internal/remoting"
)

// HandleRequest implements transport.Handler. Handlers are thin enqueuers:
// protocol messages — a phase-2 join request among them, started or not, as
// the queue is there before the engine runs — go onto the engine queue as they
// are and are acknowledged immediately, so the transport's dispatch path never
// takes a lock and never touches protocol state; which message it is gets
// decided once, in the engine's dispatch. Only phase 1 of a join waits for the
// engine's reply; probes and polls are answered directly, from an atomic flag
// and the snapshot, and answers to this process' own phase-2 requests and
// polls are handed on (see takeAnswer).
func (c *Cluster) HandleRequest(ctx context.Context, from node.Addr, req *remoting.Request) (*remoting.Response, error) {
	switch {
	case req == nil:
		return remoting.AckResponse(), nil
	case req.Probe != nil:
		return c.handleProbe(), nil
	case req.GetView != nil:
		c.handleGetView(req.GetView)
	case req.PreJoin != nil:
		return c.handlePreJoin(ctx, req.PreJoin), nil
	case req.Answer != nil:
		c.takeAnswer(req.Answer)
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

// handleGetView answers a member's poll from the snapshot, as handleProbe
// answers a probe, but with a one-way send: "unchanged" for a member that
// already holds the configuration, the membership otherwise. A handle that
// has not started yet has nothing to answer with.
func (c *Cluster) handleGetView(msg *remoting.GetViewRequest) {
	s := c.snap.Load()
	if s == nil {
		return
	}
	resp := &remoting.GetViewResponse{Sender: c.me.Addr, ConfigurationID: s.configID, Unchanged: msg.KnownConfigurationID == s.configID}
	if !resp.Unchanged {
		resp.Members = s.members
	}
	c.client.SendBestEffort(msg.Sender, &remoting.Request{Answer: &remoting.Response{View: resp}})
}

// takeAnswer hands on a one-way answer addressed to this process: a poll's to
// the engine, which judges whether it is the one it waits for, and a phase-2
// join's to the join in progress, without blocking — once the join is over
// (the handle has started), or its buffer is full, the answer is dropped.
func (c *Cluster) takeAnswer(resp *remoting.Response) {
	switch {
	case resp.View != nil:
		c.enqueue(event{ctl: &control{learned: resp.View}})
	case resp.Join != nil && !c.started.Load():
		select {
		case c.joinAnswers <- resp.Join:
		default:
		}
	}
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
