package cluster

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Client-edge resilience: per-attempt deadlines, retries under a
// token-bucket budget, hedged requests, and passive outlier ejection.
// All state here is homed on the client engine and mutated only in its
// event context. Every cluster dispatches through this one path; a
// Config with no retry policy, fault plan, or health config is simply
// the zero policy — each request is one attempt, no timer is armed, and
// every node stays routable.

// ErrNoLiveNodes is returned (and recorded as a request outcome) when
// every node is crashed or ejected: routing fails fast instead of
// queueing on a dead fleet.
var ErrNoLiveNodes = errors.New("cluster: no live nodes")

// HealthConfig enables passive outlier ejection at the client edge:
// after EjectAfter consecutive failed or timed-out attempts a node is
// ejected from routing for Cooldown, then re-admitted on probation —
// one more failure re-ejects it immediately, one success clears it.
// The zero value disables ejection.
type HealthConfig struct {
	// EjectAfter is the consecutive-failure threshold (0 disables).
	EjectAfter int
	// Cooldown is how long an ejected node stays out of routing.
	Cooldown sim.Duration
	// MaxEjected caps how many nodes may be ejected at once, so a
	// global overload — where every node fails attempts — cannot eject
	// the whole fleet out of routing (an ejection storm). Non-positive
	// means max(1, 10% of the fleet).
	MaxEjected int
}

// Resilience counts the client edge's fault-handling activity over a
// run. All counters are mutated on the client engine only.
type Resilience struct {
	// Retries counts re-dispatched attempts beyond each request's first.
	Retries int
	// Hedges counts hedge attempts issued; HedgeWins counts requests
	// whose winning reply came from the hedge.
	Hedges, HedgeWins int
	// Shed counts requests failed because the retry budget was empty
	// (the retry was dropped, not sent).
	Shed int
	// Timeouts counts attempts abandoned at their deadline.
	Timeouts int
	// Failed counts requests that permanently failed (all policy
	// avenues exhausted, crash with no retry, shed, or no live node).
	Failed int
	// NoLiveNode counts dispatch moments that found every node crashed
	// or ejected.
	NoLiveNode int
	// Ejections and Readmits count outlier-ejection transitions.
	Ejections, Readmits int
	// LateReplies counts replies that arrived for already-resolved
	// attempts (timed-out or hedge-loser work that finished anyway).
	LateReplies int
	// Cancelled counts attempts cancelled after their request resolved
	// elsewhere (hedge losers).
	Cancelled int
	// OrphanDone counts backend completions for unknown or stale
	// attempt handles — cancelled or crashed work finishing on backends
	// that cannot abort.
	OrphanDone int
}

// rstate is one request's resilience state, taken from the client
// engine's free list at submission and returned, zeroed, the moment the
// request resolves (see newState and releaseState). Client-engine-owned.
// Timers that can outlive one attempt (retry backoff, hedge) carry the
// rstate rather than a flight, since the flight may be recycled by then;
// none of them outlives the request. A request with an open attempt is
// unresolved: a reply closes every sibling as it resolves the request,
// and a request fails only once no attempt is open.
type rstate struct {
	c   *Cluster
	rid int
	// submitAt is the request's submission instant, the start of its
	// end-to-end latency.
	submitAt sim.Time
	// attempts counts dispatches so far; open counts attempts currently
	// in flight (≤ 2: primary + hedge).
	attempts, open int
	// hedgeEv is the pending hedge timer for the first attempt.
	hedgeEv sim.Event
	// primary and hedge point at the currently open attempts (at most
	// one of each), so a winner can cancel its sibling.
	primary, hedge *flight
	// last is the most recent failed attempt, for span stamping when
	// the request ultimately fails. It holds a recyclable flight back
	// from the free list until replaced or the request resolves (see
	// setLast), because failRequest reads the flight's returned flag and
	// hop stamps late.
	last *flight
}

// healthState is the client edge's liveness view of one node.
type healthState struct {
	c  *Cluster
	ni int
	// down is set by crash notifications (eager removal).
	down bool
	// ejected, consec, and probation implement passive outlier
	// ejection.
	ejected   bool
	consec    int
	probation bool
}

// abandons reports whether the config lets the client edge give up on
// an attempt its node may still complete: a deadline, a hedge, or a
// fault plan. Only then can a backend legitimately report an attempt
// id the node no longer tracks.
func (cfg Config) abandons() bool {
	return cfg.Retry.Timeout > 0 || cfg.Retry.HedgeDelay > 0 || cfg.Faults != nil
}

// available reports whether node ni is routable from the client edge's
// current view.
func (c *Cluster) available(ni int) bool {
	h := &c.hstate[ni]
	return !h.down && !h.ejected
}

// allAvailable reports whether every node is routable — the fast path
// on which routers reproduce their original decisions byte for byte.
func (c *Cluster) allAvailable() bool {
	return c.liveNodes == len(c.nodes)
}

// bumpEpoch advances the liveness epoch (ConsistentHash rebuilds its
// ring lazily when it observes a new epoch) and recounts live nodes.
func (c *Cluster) bumpEpoch() {
	c.healthEpoch++
	c.liveNodes = 0
	for i := range c.hstate {
		if c.available(i) {
			c.liveNodes++
		}
	}
}

// PickNode routes one request through the router's health-aware view.
// It fails fast with ErrNoLiveNodes when every node is crashed or
// ejected. Exposed for tests and custom drivers; the serving path
// reports the same condition per request via Resilience.NoLiveNode.
func (c *Cluster) PickNode(req Request) (int, error) {
	ni := c.router.Pick(req)
	if ni < 0 {
		return -1, ErrNoLiveNodes
	}
	return ni, nil
}

// recordFailure feeds the ejection state machine one failed or
// timed-out attempt on node ni. Client engine only.
func (c *Cluster) recordFailure(ni int) {
	if c.cfg.Health.EjectAfter <= 0 {
		return
	}
	h := &c.hstate[ni]
	h.consec++
	if h.ejected || h.down {
		return
	}
	if h.consec >= c.cfg.Health.EjectAfter || h.probation {
		if c.ejectedCount >= c.maxEjected() || c.liveNodes <= 1 {
			// Ejection-storm guard: keep the node routable rather than
			// take the last of the fleet out of rotation.
			return
		}
		h.ejected = true
		h.probation = false
		c.ejectedCount++
		c.res.Ejections++
		c.bumpEpoch()
		c.Eng.AfterFunc(c.cfg.Health.Cooldown, readmitNode, h)
	}
}

// maxEjected resolves the concurrent-ejection cap.
func (c *Cluster) maxEjected() int {
	if m := c.cfg.Health.MaxEjected; m > 0 {
		return m
	}
	if m := len(c.nodes) / 10; m > 1 {
		return m
	}
	return 1
}

// recordSuccess clears node ni's failure history. Client engine only.
func (c *Cluster) recordSuccess(ni int) {
	h := &c.hstate[ni]
	h.consec = 0
	h.probation = false
}

// readmitNode ends one node's ejection cooldown: it rejoins routing on
// probation.
func readmitNode(arg any) {
	h := arg.(*healthState)
	if !h.ejected {
		return
	}
	h.ejected = false
	h.probation = true
	h.consec = 0
	h.c.ejectedCount--
	h.c.res.Readmits++
	h.c.bumpEpoch()
}

// dispatch issues one attempt of request rs: pick a node, arm the
// deadline and (for a first attempt) the hedge timer, and send the
// request across the link. Client engine only.
func (c *Cluster) dispatch(rs *rstate, hedge bool) {
	now := c.Eng.Now()
	ni := c.router.Pick(Request{ID: rs.rid, Session: c.session(rs.rid)})
	if ni < -1 || ni >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: router %s picked node %d of %d", c.router.Name(), ni, len(c.nodes)))
	}
	if ni < 0 {
		c.res.NoLiveNode++
		if hedge {
			// No node to hedge onto; the primary attempt stands alone.
			return
		}
		c.failRequest(rs, now, obs.OutcomeNoNode)
		return
	}
	n := c.nodes[ni]
	n.dispatched++
	n.outstanding++
	rs.attempts++
	rs.open++
	f := c.newFlight()
	f.c, f.rs, f.aid, f.node, f.hedge = c, rs, c.nextAid, ni, hedge
	c.nextAid++
	if hedge {
		rs.hedge = f
	} else {
		rs.primary = f
	}
	if c.cfg.Retry.Timeout > 0 {
		f.timeoutEv = c.Eng.AfterFunc(c.cfg.Retry.Timeout, flightTimeout, f)
	}
	if !hedge && rs.attempts == 1 && c.cfg.Retry.HedgeDelay > 0 {
		rs.hedgeEv = c.Eng.AfterFunc(c.cfg.Retry.HedgeDelay, fireHedge, rs)
	}
	d := n.reqLink.delay(now, c.cfg.Net.RequestLatency, c.cfg.Net.RequestBytes, c.cfg.Net.LinkBandwidth)
	c.hop(n, true, d, deliverFlight, f)
}

// closeAttempt resolves one attempt at the client edge exactly once:
// deadline disarmed, outstanding released. Reports false if the attempt
// was already closed.
func (c *Cluster) closeAttempt(f *flight) bool {
	if f.closed {
		return false
	}
	f.closed = true
	f.timeoutEv.Cancel()
	c.nodes[f.node].outstanding--
	rs := f.rs
	rs.open--
	if rs.primary == f {
		rs.primary = nil
	} else if rs.hedge == f {
		rs.hedge = nil
	}
	return true
}

// newFlight pops a recycled flight or allocates a fresh one. Client
// engine only.
func (c *Cluster) newFlight() *flight {
	if k := len(c.spare); k > 0 {
		f := c.spare[k-1]
		c.spare = c.spare[:k-1]
		return f
	}
	return new(flight)
}

// newState pops a recycled request state or allocates a fresh one, so a
// run allocates no more states than it ever has unresolved requests.
// Client engine only.
func (c *Cluster) newState() *rstate {
	if k := len(c.spareStates); k > 0 {
		rs := c.spareStates[k-1]
		c.spareStates = c.spareStates[:k-1]
		return rs
	}
	rs := new(rstate)
	c.states = append(c.states, rs)
	return rs
}

// releaseState zeroes a resolved request's state and puts it on the free
// list. Nothing may reach it any more: its hedge timer is cancelled, no
// backoff is pending, and every one of its flights is closed, so a late
// reply, timeout or failure of one stops at the f.closed check before it
// reads f.rs. That check is the guard; zeroing does not catch a stale
// use. Client engine only.
func (c *Cluster) releaseState(rs *rstate) {
	*rs = rstate{}
	c.spareStates = append(c.spareStates, rs)
}

// release zeroes a finished flight and puts it on the free list. Only
// flights that came back from their node while still open qualify, and
// only once the request no longer references them: a zeroed flight has
// no Cluster, so any stale use dies at once instead of reading another
// request's attempt. Client engine only.
func (c *Cluster) release(f *flight) {
	*f = flight{}
	c.spare = append(c.spare, f)
}

// setLast makes f (nil when the request resolves) the request's most
// recent failed attempt, recycling the previous one if nothing else can
// reach it. Client engine only.
func (c *Cluster) setLast(rs *rstate, f *flight) {
	if g := rs.last; g != nil && g.reusable {
		c.release(g)
	}
	rs.last = f
}

// fireHedge issues the hedge attempt if the primary is still pending.
// The hedge timer is cancelled whenever the first attempt closes with
// no sibling, so an open primary here is always the first attempt.
func fireHedge(arg any) {
	rs := arg.(*rstate)
	if rs.primary == nil {
		return
	}
	rs.c.res.Hedges++
	rs.c.dispatch(rs, true)
}

// flightTimeout abandons an attempt at its deadline: the node is asked
// to cancel the work (best effort), the failure feeds ejection, and the
// request decides between retry and failure.
func flightTimeout(arg any) {
	f := arg.(*flight)
	c := f.c
	if !c.closeAttempt(f) {
		return
	}
	now := c.Eng.Now()
	c.res.Timeouts++
	c.recordFailure(f.node)
	c.cancelAtNodeLater(f)
	c.attemptFailed(f, now, obs.OutcomeTimeout)
}

// failFlight is a failure reply (crash or node-side shed) arriving back
// at the client edge. Runs on the client engine.
func failFlight(arg any) {
	f := arg.(*flight)
	c := f.c
	f.returned = true
	if !c.closeAttempt(f) {
		return // already timed out or cancelled locally
	}
	f.reusable = true
	now := c.Eng.Now()
	c.recordFailure(f.node)
	c.attemptFailed(f, now, obs.OutcomeFailed)
}

// attemptFailed routes a failed attempt into the request's policy:
// wait for a sibling attempt, retry under the budget, or fail the
// request. Client engine only.
func (c *Cluster) attemptFailed(f *flight, now sim.Time, outcome string) {
	rs := f.rs
	c.setLast(rs, f)
	if rs.open > 0 {
		return // a sibling (hedge) attempt is still in flight
	}
	rs.hedgeEv.Cancel()
	p := c.cfg.Retry
	if !p.Enabled() || (p.MaxAttempts > 0 && rs.attempts >= p.MaxAttempts) {
		c.failRequest(rs, now, outcome)
		return
	}
	if p.Budget != nil && !p.Budget.Withdraw() {
		c.res.Shed++
		c.failRequest(rs, now, obs.OutcomeShed)
		return
	}
	c.res.Retries++
	delay := p.Backoff(rs.attempts, c.retryRNG())
	c.Eng.AfterFunc(delay, redispatch, rs)
}

// redispatch fires after a retry backoff. Nothing resolves a request
// while its backoff is pending: every attempt of it is closed.
func redispatch(arg any) {
	rs := arg.(*rstate)
	rs.c.dispatch(rs, false)
}

// retryRNG returns the labelled client-engine stream backoff jitter
// draws from.
func (c *Cluster) retryRNG() *sim.Rand {
	if c.retryRand == nil {
		c.retryRand = c.Eng.Rand("cluster/retry")
	}
	return c.retryRand
}

// cancelAttempt closes a still-open attempt whose request resolved
// elsewhere (hedge loser) and asks its node to abandon the work.
func (c *Cluster) cancelAttempt(f *flight) {
	if !c.closeAttempt(f) {
		return
	}
	c.res.Cancelled++
	c.cancelAtNodeLater(f)
}

// cancelAtNodeLater sends a best-effort cancellation to the attempt's
// node, one request-latency away. Client engine only.
func (c *Cluster) cancelAtNodeLater(f *flight) {
	c.hop(c.nodes[f.node], true, c.cfg.Net.RequestLatency, cancelAtNode, f)
}

// cancelAtNode abandons one attempt at its node, if the backend can.
// Runs on the node's engine. Backends that cannot abort finish the work
// and reply; the client edge discards the late reply. A cancelled
// flight is never recycled, so its atNode flag is still its own.
func cancelAtNode(arg any) {
	f := arg.(*flight)
	if !f.atNode {
		return // not yet arrived, already completed, crashed away, or bounced
	}
	n := f.c.nodes[f.node]
	if ab, ok := n.backend.(abortable); ok && ab.Abort(f.bid) {
		n.evict(f)
		n.meter.Failed()
	}
}

// failRequest resolves request rs as permanently failed and recycles its
// state. Client engine only.
func (c *Cluster) failRequest(rs *rstate, now sim.Time, outcome string) {
	rs.hedgeEv.Cancel()
	c.res.Failed++
	c.failedReqs++
	c.meter.Failed()
	if c.spans != nil {
		sp := &c.spans[rs.rid]
		sp.Outcome = outcome
		sp.Attempts = rs.attempts
		if f := rs.last; f != nil {
			sp.Node = c.nodes[f.node].Name
			// Node-side hop stamps are only causally transferred when the
			// node sent the flight back (failure reply); a timed-out
			// attempt's stamps may still be in flux on the node engine.
			if f.returned {
				sp.Arrive, sp.Start, sp.Done = f.arrive, f.start, f.done
			}
		}
	}
	c.setLast(rs, nil)
	rid := rs.rid
	c.releaseState(rs)
	c.src.Completed(rid)
	c.maybeFinish(now)
}

// replyFlight is a reply's arrival back at the client edge: the first
// reply wins the request, siblings are cancelled, late replies are
// discarded, and after the final resolution the fleet drains. Runs on
// the client engine. A reply that finds its attempt still open returns
// the flight to the free list; a late one does not, since a
// cancellation message may still reference it.
func replyFlight(arg any) {
	f := arg.(*flight)
	c := f.c
	now := c.Eng.Now()
	if f.closed {
		c.res.LateReplies++
		return
	}
	c.closeAttempt(f)
	c.recordSuccess(f.node)
	rs := f.rs
	rs.hedgeEv.Cancel()
	c.meter.Completed(rs.submitAt, now)
	c.completed++
	if f.hedge {
		c.res.HedgeWins++
	}
	if c.spans != nil {
		sp := &c.spans[rs.rid]
		sp.Node = c.nodes[f.node].Name
		sp.Arrive, sp.Start, sp.Done = f.arrive, f.start, f.done
		sp.Reply = now
		sp.Outcome = obs.OutcomeOK
		sp.Attempts = rs.attempts
	}
	// Cancel any sibling attempt still in flight.
	if g := rs.primary; g != nil {
		c.cancelAttempt(g)
	}
	if g := rs.hedge; g != nil {
		c.cancelAttempt(g)
	}
	c.setLast(rs, nil)
	c.release(f)
	rid := rs.rid
	c.releaseState(rs)
	c.src.Completed(rid)
	c.maybeFinish(now)
}

// Resilience returns the run's fault-handling counters. Orphaned
// backend completions are summed across nodes; call after Run returns.
func (c *Cluster) Resilience() Resilience {
	r := c.res
	for _, n := range c.nodes {
		r.OrphanDone += n.orphans
	}
	return r
}
