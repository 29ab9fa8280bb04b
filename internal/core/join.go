package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
)

// errJoinRedirected ends a join attempt whose configuration was replaced
// before it admitted this joiner. It is a redirect to phase 1, not a failure:
// the cluster is alive and deciding, it just decided something else first.
var errJoinRedirected = errors.New("core: configuration changed during join")

// runJoinProtocol performs Rapid's two-phase join (§4.1, §6) from the
// joiner's side and returns the membership of the configuration that admitted
// this process.
//
// Phase 1: ask a seed for this joiner's K temporary observers in the seed's
// current configuration. Phase 2: contact those observers; each broadcasts a
// JOIN alert and replies at the next view change. If that view change admits
// someone else, the observers redirect the joiner and it re-runs phase 1 at
// once, free of charge; only failures (an unreachable seed, lost observers, a
// timeout) cost one of JoinAttempts and a JoinRetryDelay.
func (c *Cluster) runJoinProtocol(seeds []node.Addr) ([]node.Endpoint, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: join requires at least one seed")
	}
	s := &c.settings
	// Redirects are not counted, so the attempts alone no longer bound the
	// loop; the time the attempts could have taken does.
	deadline := c.clock.Now().Add(time.Duration(s.JoinAttempts) * (2*s.JoinPhase2Timeout + s.JoinRetryDelay))
	var lastErr error = ErrJoinFailed
	var left uint64 // the configuration the last attempt was redirected out of
	for attempt := 0; attempt < s.JoinAttempts && c.clock.Now().Before(deadline); {
		select {
		case <-c.stopCh:
			return nil, ErrStopped
		default:
		}
		members, configID, err := c.joinOnce(seeds[attempt%len(seeds)], left)
		if err == nil {
			return members, nil
		}
		lastErr = err
		if err == ErrAddressInUse {
			return nil, err
		}
		if errors.Is(err, errJoinRedirected) {
			left = configID
			continue
		}
		left = 0
		if attempt++; attempt == s.JoinAttempts {
			break
		}
		select {
		case <-c.stopCh:
			return nil, ErrStopped
		case <-c.clock.After(s.JoinRetryDelay):
		}
	}
	return nil, fmt.Errorf("%w: %v", ErrJoinFailed, lastErr)
}

// joinOnce runs one attempt of the two-phase join against a single seed and
// returns the configuration it ran in. left is the configuration the previous
// attempt was redirected out of: a seed that still names it has not caught up
// with its own members, and retrying at once would only spin on it, so that
// answer fails the attempt like any other seed that is not ready.
func (c *Cluster) joinOnce(seed node.Addr, left uint64) ([]node.Endpoint, uint64, error) {
	// Phase 1: obtain the configuration and this joiner's temporary observers.
	ctx, cancel := simclock.WithTimeout(c.clock, c.settings.JoinPhase2Timeout)
	defer cancel()
	resp, err := c.client.Send(ctx, seed, &remoting.Request{PreJoin: &remoting.PreJoinRequest{
		Sender:   c.me.Addr,
		JoinerID: c.me.ID,
	}})
	if err != nil {
		return nil, 0, fmt.Errorf("core: pre-join to seed %s: %w", seed, err)
	}
	if resp.PreJoin == nil {
		return nil, 0, fmt.Errorf("core: malformed pre-join response from %s", seed)
	}
	switch resp.PreJoin.Status {
	case remoting.JoinSafeToJoin:
	case remoting.JoinHostAlreadyInRing:
		return nil, 0, ErrAddressInUse
	case remoting.JoinUUIDAlreadyInRing:
		// Regenerate the logical identifier and let the caller retry.
		c.me.ID = node.NewID()
		return nil, 0, fmt.Errorf("core: identifier collision, regenerated ID")
	default:
		return nil, 0, fmt.Errorf("core: seed %s not ready: %s", seed, resp.PreJoin.Status)
	}
	if len(resp.PreJoin.Observers) == 0 {
		return nil, 0, fmt.Errorf("core: seed %s returned no observers", seed)
	}
	configID := resp.PreJoin.ConfigurationID
	if left != 0 && configID == left {
		return nil, 0, fmt.Errorf("core: seed %s is still in the configuration its members left", seed)
	}
	members, err := c.joinPhase2(configID, resp.PreJoin.Observers)
	return members, configID, err
}

// joinPhase2 contacts every distinct temporary observer (observers lists one
// per ring) and returns the first complete answer. Observers answer at the
// next view change, so the attempt normally ends there: admitted or
// redirected. It also ends as soon as the observers that bounced or failed
// hold so many rings that the rest cannot report H of them — the cut rule
// (§4.2) can then never admit the joiner in this configuration, whatever the
// still-parked observers do. Returning cancels the calls still outstanding.
func (c *Cluster) joinPhase2(configID uint64, observers []node.Addr) ([]node.Endpoint, error) {
	rings := make(map[node.Addr]int, len(observers))
	for _, o := range observers {
		rings[o]++
	}
	// A seed running a smaller K than this joiner names fewer rings than H;
	// all of them must then report.
	live, need := len(observers), min(c.settings.H, len(observers))

	type outcome struct {
		from node.Addr
		resp *remoting.JoinResponse
		err  error
	}
	ctx, cancel := simclock.WithTimeout(c.clock, c.settings.JoinPhase2Timeout)
	defer cancel()
	results := make(chan outcome, len(rings)) // every sender finishes without a reader
	for observer := range rings {
		observer := observer
		go func() {
			r, err := c.client.Send(ctx, observer, &remoting.Request{Join: &remoting.JoinRequest{
				Sender:          c.me.Addr,
				JoinerID:        c.me.ID,
				ConfigurationID: configID,
				Metadata:        c.me.Metadata,
			}})
			out := outcome{from: observer, err: err}
			if err == nil {
				if out.resp = r.Join; out.resp == nil {
					out.err = fmt.Errorf("core: malformed join response from %s", observer)
				}
			}
			results <- out
		}()
	}

	redirected := false
	var lastErr error
	for range rings {
		out := <-results
		switch {
		case out.err != nil:
			lastErr = out.err
		case out.resp.Status == remoting.JoinSafeToJoin && len(out.resp.Members) > 0:
			return out.resp.Members, nil
		case out.resp.Status == remoting.JoinSafeToJoin:
			lastErr = fmt.Errorf("core: join response carried no members")
		case out.resp.Status == remoting.JoinConfigChanged:
			redirected = true
		case out.resp.Status == remoting.JoinHostAlreadyInRing:
			return nil, ErrAddressInUse
		default:
			lastErr = fmt.Errorf("core: join rejected: %s", out.resp.Status)
		}
		if live -= rings[out.from]; live < need {
			break
		}
	}
	if redirected {
		return nil, errJoinRedirected
	}
	return nil, lastErr
}
