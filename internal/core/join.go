package core

import (
	"fmt"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
)

// joiner is Rapid's two-phase join (§4.1, §6) from the joiner's side, a state
// machine as the engine is: start begins an attempt, step files one call's
// answer, and join (driver.go) performs the calls they return. Phase 1 asks a
// seed for this joiner's K temporary observers in the seed's current
// configuration. Phase 2 asks every distinct one of them; each broadcasts a
// JOIN alert and answers at the next view change. If that view change admits
// someone else, the observers redirect the joiner — the cluster is alive, it
// just decided something else first — and it re-runs phase 1 at once, free of
// charge; only failures (an unreachable seed, lost observers, a timeout) cost
// one of JoinAttempts and a JoinRetryDelay.
type joiner struct {
	// me is the joining process; its ID is regenerated on a collision.
	me         node.Endpoint
	seeds      []node.Addr
	h          int
	attempts   int
	retryDelay time.Duration
	// deadline bounds the join: redirects are not counted, so the attempts
	// alone do not bound it; the time the attempts could have taken does.
	deadline time.Time

	attempt int    // the attempts that failed so far
	left    uint64 // the configuration the last attempt was redirected out of
	lastErr error

	// The phase-2 round in flight — nil rings during phase 1: the
	// configuration phase 1 named, the rings each distinct observer holds, the
	// answers still to come, the rings not lost yet, how many of them the cut
	// rule needs, and whether an observer redirected.
	config     uint64
	rings      map[node.Addr]int
	awaiting   int
	live, need int
	redirected bool
}

// joinAnswer is what one call came back with.
type joinAnswer struct {
	from node.Addr
	resp *remoting.Response
	err  error
}

// joinOutputs is what start or step asks for. At most one of them is set: a
// new round, req to every address in to, which supersedes the one in flight;
// a delay after which start is due; or the outcome, members or err. Nothing
// set: wait for the next answer of the round in flight.
type joinOutputs struct {
	to      []node.Addr
	req     *remoting.Request
	retryIn time.Duration
	members []node.Endpoint
	err     error
}

// newJoiner returns the joiner of me through seeds, starting at now.
func newJoiner(me node.Endpoint, seeds []node.Addr, s *Settings, now time.Time) *joiner {
	return &joiner{
		me:         me,
		seeds:      seeds,
		h:          s.H,
		attempts:   s.JoinAttempts,
		retryDelay: s.JoinRetryDelay,
		deadline:   now.Add(time.Duration(s.JoinAttempts) * (2*s.JoinPhase2Timeout + s.JoinRetryDelay)),
	}
}

// start begins the next attempt, phase 1 with the next seed in turn, unless
// the time the attempts could have taken is spent (fail sees to the rest).
func (j *joiner) start(now time.Time) joinOutputs {
	switch {
	case len(j.seeds) == 0:
		return joinOutputs{err: fmt.Errorf("core: join requires at least one seed")}
	case !now.Before(j.deadline):
		return joinOutputs{err: fmt.Errorf("%w: %v", ErrJoinFailed, j.lastErr)}
	}
	j.rings = nil
	return joinOutputs{
		to:  []node.Addr{j.seeds[j.attempt%len(j.seeds)]},
		req: &remoting.Request{PreJoin: &remoting.PreJoinRequest{Sender: j.me.Addr, JoinerID: j.me.ID}},
	}
}

// step files the answer to one call of the round in flight.
func (j *joiner) step(a joinAnswer, now time.Time) joinOutputs {
	if j.rings == nil {
		return j.preJoined(a)
	}
	return j.joined(a, now)
}

// preJoined files the seed's phase-1 answer and, if it names observers,
// starts phase 2. A seed that still names the configuration the last attempt
// was redirected out of has not caught up with its own members, and retrying
// at once would only spin on it, so that answer fails the attempt like any
// other seed that is not ready.
func (j *joiner) preJoined(a joinAnswer) joinOutputs {
	var resp *remoting.PreJoinResponse
	if a.err == nil && a.resp != nil {
		resp = a.resp.PreJoin
	}
	switch {
	case a.err != nil:
		return j.fail(fmt.Errorf("core: pre-join to seed %s: %w", a.from, a.err))
	case resp == nil:
		return j.fail(fmt.Errorf("core: malformed pre-join response from %s", a.from))
	case resp.Status == remoting.JoinHostAlreadyInRing:
		return joinOutputs{err: ErrAddressInUse}
	case resp.Status == remoting.JoinUUIDAlreadyInRing:
		j.me.ID = node.NewID()
		return j.fail(fmt.Errorf("core: identifier collision, regenerated ID"))
	case resp.Status != remoting.JoinSafeToJoin:
		return j.fail(fmt.Errorf("core: seed %s not ready: %s", a.from, resp.Status))
	case len(resp.Observers) == 0:
		return j.fail(fmt.Errorf("core: seed %s returned no observers", a.from))
	case j.left != 0 && resp.ConfigurationID == j.left:
		return j.fail(fmt.Errorf("core: seed %s is still in the configuration its members left", a.from))
	}

	// Phase 2. observers lists one per ring; a seed running a smaller K than
	// this joiner names fewer rings than H, and all of them must then report.
	j.config, j.redirected = resp.ConfigurationID, false
	out := joinOutputs{req: &remoting.Request{Join: &remoting.JoinRequest{
		Sender:          j.me.Addr,
		JoinerID:        j.me.ID,
		ConfigurationID: j.config,
		Metadata:        j.me.Metadata,
	}}}
	j.rings = make(map[node.Addr]int, len(resp.Observers))
	for _, o := range resp.Observers {
		if j.rings[o]++; j.rings[o] == 1 {
			out.to = append(out.to, o)
		}
	}
	j.awaiting, j.live, j.need = len(out.to), len(resp.Observers), min(j.h, len(resp.Observers))
	return out
}

// joined files one observer's phase-2 answer. Observers answer at the next
// view change, so the attempt normally ends there: admitted or redirected. It
// also ends as soon as the observers that bounced or failed hold so many rings
// that the rest cannot report H of them — the cut rule (§4.2) can then never
// admit the joiner in this configuration, whatever the still-parked observers
// do.
func (j *joiner) joined(a joinAnswer, now time.Time) joinOutputs {
	var resp *remoting.JoinResponse
	if a.err == nil && a.resp != nil {
		resp = a.resp.Join
	}
	switch {
	case a.err != nil:
		j.lastErr = a.err
	case resp == nil:
		j.lastErr = fmt.Errorf("core: malformed join response from %s", a.from)
	case resp.Status == remoting.JoinSafeToJoin && len(resp.Members) > 0:
		return joinOutputs{members: resp.Members}
	case resp.Status == remoting.JoinSafeToJoin:
		j.lastErr = fmt.Errorf("core: join response carried no members")
	case resp.Status == remoting.JoinConfigChanged:
		j.redirected = true
	case resp.Status == remoting.JoinHostAlreadyInRing:
		return joinOutputs{err: ErrAddressInUse}
	default:
		j.lastErr = fmt.Errorf("core: join rejected: %s", resp.Status)
	}
	j.awaiting--
	if j.live -= j.rings[a.from]; j.live >= j.need && j.awaiting > 0 {
		return joinOutputs{}
	}
	if j.redirected {
		j.lastErr, j.left = fmt.Errorf("core: configuration %x changed during join", j.config), j.config
		return j.start(now)
	}
	return j.fail(j.lastErr)
}

// fail ends an attempt that failed: it costs one of the attempts and, unless
// that was the last, a retry delay.
func (j *joiner) fail(err error) joinOutputs {
	j.lastErr, j.left = err, 0
	if j.attempt++; j.attempt == j.attempts {
		return joinOutputs{err: fmt.Errorf("%w: %v", ErrJoinFailed, err)}
	}
	return joinOutputs{retryIn: j.retryDelay}
}
