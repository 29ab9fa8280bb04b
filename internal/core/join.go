package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
)

// joiner is Rapid's two-phase join (§4.1, §6) from the joiner's side, a state
// machine as the engine is: start begins an attempt, preJoined files the
// seed's phase-1 answer, joined files one observer's phase-2 answer, wake runs
// the deadline it holds, and join (driver.go) performs what they return. Phase
// 1 asks a seed for this joiner's K temporary observers in the seed's current
// configuration, and waits for the answer. Phase 2 sends every distinct one of
// them a one-way request; each broadcasts a JOIN alert and answers with a
// one-way send at the next view change. If that view change admits someone
// else, the observers redirect the joiner — the cluster is alive, it just
// decided something else first — and it re-runs phase 1 at once, free of
// charge; only failures (an unreachable seed, lost observers, a round whose
// deadline runs out) cost one of JoinAttempts and a JoinRetryDelay.
type joiner struct {
	// me is the joining process; its ID is regenerated on a collision.
	me           node.Endpoint
	seeds        []node.Addr
	h            int
	attempts     int
	retryDelay   time.Duration
	roundTimeout time.Duration
	metrics      *EngineMetrics
	// deadline bounds the join: redirects are not counted, so the attempts
	// alone do not bound it; the time the attempts could have taken does.
	deadline time.Time
	// wakeAt is the one deadline the joiner holds: the end of the phase-2
	// round in flight (JoinPhase2Timeout after it started) or of a retry
	// delay, zero during phase 1 and once the join is over.
	wakeAt time.Time

	attempt int    // the attempts that failed so far
	left    uint64 // the configuration the last attempt was redirected out of
	lastErr error

	// The phase-2 round in flight — nil rings otherwise: the configuration
	// phase 1 named, the rings each distinct observer still awaited holds, the
	// rings not lost yet, how many of them the cut rule needs, and whether an
	// observer redirected.
	config     uint64
	rings      map[node.Addr]int
	live, need int
	redirected bool
}

// joinOutputs is what the joiner asks for. At most one of them is set: req to
// every address in to — a phase-1 call to one seed, whose answer preJoined
// files, or a phase-2 round of one-way requests, which supersedes the one in
// flight — or the outcome, members or err. Nothing set: wait for the next
// answer or for wakeAt, the joiner's deadline.
type joinOutputs struct {
	to      []node.Addr
	req     *remoting.Request
	members []node.Endpoint
	err     error
	wakeAt  time.Time
}

// newJoiner returns the joiner of me through seeds, starting at now; it counts
// the phase-2 rounds whose deadline runs out in m.
func newJoiner(me node.Endpoint, seeds []node.Addr, s *Settings, m *EngineMetrics, now time.Time) *joiner {
	return &joiner{
		me:           me,
		seeds:        seeds,
		h:            s.H,
		attempts:     s.JoinAttempts,
		retryDelay:   s.JoinRetryDelay,
		roundTimeout: s.JoinPhase2Timeout,
		metrics:      m,
		deadline:     now.Add(time.Duration(s.JoinAttempts) * (2*s.JoinPhase2Timeout + s.JoinRetryDelay)),
	}
}

// start begins the next attempt, phase 1 with the next seed in turn, unless
// the time the attempts could have taken is spent (fail sees to the rest).
func (j *joiner) start(now time.Time) joinOutputs {
	j.rings, j.wakeAt = nil, time.Time{}
	switch {
	case len(j.seeds) == 0:
		return joinOutputs{err: fmt.Errorf("core: join requires at least one seed")}
	case !now.Before(j.deadline):
		return joinOutputs{err: fmt.Errorf("%w: %v", ErrJoinFailed, j.lastErr)}
	}
	return joinOutputs{
		to:  []node.Addr{j.seeds[j.attempt%len(j.seeds)]},
		req: &remoting.Request{PreJoin: &remoting.PreJoinRequest{Sender: j.me.Addr, JoinerID: j.me.ID}},
	}
}

// wake runs the joiner's deadline at now, if it has come: a phase-2 round
// whose observers did not all answer in JoinPhase2Timeout fails its attempt,
// and counts as one timed-out join; a retry delay that is over starts the
// next attempt.
func (j *joiner) wake(now time.Time) joinOutputs {
	switch {
	case j.wakeAt.IsZero() || now.Before(j.wakeAt):
		return joinOutputs{wakeAt: j.wakeAt}
	case j.rings != nil:
		j.metrics.JoinsTimedOut.Add(1)
		return j.fail(fmt.Errorf("core: %d observers did not answer within %v", len(j.rings), j.roundTimeout), now)
	}
	return j.start(now)
}

// preJoined files the seed's phase-1 answer, or the error its call failed
// with, and, if it names observers, starts phase 2 at now. A seed that still
// names the configuration the last attempt was redirected out of has not
// caught up with its own members, and retrying at once would only spin on it,
// so that answer fails the attempt like any other seed that is not ready.
func (j *joiner) preJoined(seed node.Addr, r *remoting.Response, err error, now time.Time) joinOutputs {
	var resp *remoting.PreJoinResponse
	if err == nil && r != nil {
		resp = r.PreJoin
	}
	switch {
	case err != nil:
		return j.fail(fmt.Errorf("core: pre-join to seed %s: %w", seed, err), now)
	case resp == nil:
		return j.fail(fmt.Errorf("core: malformed pre-join response from %s", seed), now)
	case resp.Status == remoting.JoinHostAlreadyInRing:
		return joinOutputs{err: ErrAddressInUse}
	case resp.Status == remoting.JoinUUIDAlreadyInRing:
		j.me.ID = node.NewID()
		return j.fail(fmt.Errorf("core: identifier collision, regenerated ID"), now)
	case resp.Status != remoting.JoinSafeToJoin:
		return j.fail(fmt.Errorf("core: seed %s not ready: %s", seed, resp.Status), now)
	case len(resp.Observers) == 0:
		return j.fail(fmt.Errorf("core: seed %s returned no observers", seed), now)
	case j.left != 0 && resp.ConfigurationID == j.left:
		return j.fail(fmt.Errorf("core: seed %s is still in the configuration its members left", seed), now)
	}

	// Phase 2. observers lists one per ring; a seed running a smaller K than
	// this joiner names fewer rings than H, and all of them must then report.
	j.config, j.redirected = resp.ConfigurationID, false
	j.wakeAt = now.Add(j.roundTimeout)
	out := joinOutputs{wakeAt: j.wakeAt, req: &remoting.Request{Join: &remoting.JoinRequest{
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
	j.live, j.need = len(resp.Observers), min(j.h, len(resp.Observers))
	return out
}

// joined files one observer's phase-2 answer. Answers carry no round, so an
// admission ends the join whichever round asked for it, if its membership
// names this very incarnation, while anything else counts only as the first
// answer of an observer the round in flight still awaits, and a redirect only
// if it names a configuration other than the round's own: one that names it
// answers a request of an earlier round, sent before the observer moved on
// (a genuine redirect always names a later one). Observers answer at the
// next view change, so the attempt normally ends there: admitted or
// redirected. It also ends as soon as the observers that redirected hold so
// many rings that the rest cannot report H of them — the cut rule (§4.2) can
// then never admit the joiner in this configuration, whatever the observers
// still parking it do.
func (j *joiner) joined(resp *remoting.JoinResponse, now time.Time) joinOutputs {
	if i, ok := slices.BinarySearchFunc(resp.Members, j.me, node.CompareEndpoints); ok && resp.Status == remoting.JoinSafeToJoin && resp.Members[i].ID == j.me.ID {
		j.wakeAt = time.Time{}
		return joinOutputs{members: resp.Members}
	}
	rings, awaited := j.rings[resp.Sender]
	if !awaited || resp.Status == remoting.JoinConfigChanged && resp.ConfigurationID == j.config {
		return joinOutputs{wakeAt: j.wakeAt}
	}
	delete(j.rings, resp.Sender)
	if resp.Status == remoting.JoinConfigChanged {
		j.redirected = true
	} else {
		j.lastErr = fmt.Errorf("core: join rejected by %s: %s", resp.Sender, resp.Status)
	}
	if j.live -= rings; j.live >= j.need && len(j.rings) > 0 {
		return joinOutputs{wakeAt: j.wakeAt}
	}
	if j.redirected {
		j.lastErr, j.left = fmt.Errorf("core: configuration %x changed during join", j.config), j.config
		return j.start(now)
	}
	return j.fail(j.lastErr, now)
}

// fail ends an attempt that failed: it costs one of the attempts and, unless
// that was the last, a retry delay, which wakeAt ends.
func (j *joiner) fail(err error, now time.Time) joinOutputs {
	j.lastErr, j.left, j.rings, j.wakeAt = err, 0, nil, time.Time{}
	if j.attempt++; j.attempt == j.attempts {
		return joinOutputs{err: fmt.Errorf("%w: %v", ErrJoinFailed, err)}
	}
	j.wakeAt = now.Add(j.retryDelay)
	return joinOutputs{wakeAt: j.wakeAt}
}
