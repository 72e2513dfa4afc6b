package cluster

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Deterministic fault injection: a FaultPlan is a declarative schedule
// of node-lifecycle events — crashes, recoveries, brownouts — installed
// as ordinary engine timers on each node's home engine at Serve. Every
// fault therefore fires at a fixed virtual instant in the node's own
// event order, and its client-visible effects travel as network-delayed
// events (failure replies at the reply latency, liveness notices at the
// cross-shard lookahead), so a faulted run is byte-identical for any
// -par or -shards value. A nil plan costs nothing: no timers, no state,
// no branches beyond a nil check at Serve.

// FaultAware is the optional backend extension the fault layer drives.
// Backends that implement it participate fully in crashes and
// brownouts (SimService does); backends that don't (e.g. the full
// inference stack) still have their in-flight requests failed back to
// the client on a crash, but keep computing as zombies — their late
// completions are discarded and counted (Resilience.OrphanDone).
type FaultAware interface {
	// Crash drops all internal state: queued and in-service work is
	// abandoned without completion callbacks (the cluster has already
	// failed those attempts back to the client).
	Crash()
	// Recover returns the backend to service with empty queues.
	Recover()
	// SetSlowdown scales subsequent service times by factor (1 restores
	// nominal speed). Work already in service keeps its old deadline.
	SetSlowdown(factor float64)
}

// abortable is the optional backend extension cancellation uses: Abort
// abandons one submitted attempt (queued or in service) and reports
// whether it was found. Attempts a backend cannot abort simply finish;
// the client edge discards the late reply.
type abortable interface {
	Abort(id int) bool
}

// faultKind discriminates scheduled fault events.
type faultKind uint8

const (
	faultCrash faultKind = iota
	faultRecover
	faultSlowdown
)

// faultEvent is one scheduled fault.
type faultEvent struct {
	node     int
	at       sim.Duration
	kind     faultKind
	slowdown float64
}

// FaultPlan is a declarative, chainable schedule of node faults. Build
// one with NewFaultPlan, add events, and set it as Config.Faults before
// AddNode/Serve. Times are offsets from the start of the run.
type FaultPlan struct {
	events []faultEvent
}

// NewFaultPlan returns an empty schedule.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// Crash schedules node (by registration index) to fail at `at`: its
// in-flight requests fail back to the client path, arrivals bounce
// until recovery, and the router is notified one network lookahead
// later.
func (p *FaultPlan) Crash(node int, at sim.Duration) *FaultPlan {
	p.events = append(p.events, faultEvent{node: node, at: at, kind: faultCrash})
	return p
}

// Recover schedules node to return to service at `at` with empty
// queues; the router re-admits it one network lookahead later.
func (p *FaultPlan) Recover(node int, at sim.Duration) *FaultPlan {
	p.events = append(p.events, faultEvent{node: node, at: at, kind: faultRecover})
	return p
}

// Brownout degrades node between at and at+dur: service times are
// multiplied by slowdown (>1 is slower), then restored. Brownouts are
// silent — no notification is sent; only passive outlier ejection can
// route around them. Backends that are not FaultAware ignore brownouts.
func (p *FaultPlan) Brownout(node int, at, dur sim.Duration, slowdown float64) *FaultPlan {
	p.events = append(p.events,
		faultEvent{node: node, at: at, kind: faultSlowdown, slowdown: slowdown},
		faultEvent{node: node, at: at + dur, kind: faultSlowdown, slowdown: 1})
	return p
}

// Crashes counts scheduled crash events (reporting convenience).
func (p *FaultPlan) Crashes() int {
	n := 0
	for _, ev := range p.events {
		if ev.kind == faultCrash {
			n++
		}
	}
	return n
}

// faultFire carries one scheduled fault to its node-engine timer.
type faultFire struct {
	c  *Cluster
	ev faultEvent
}

// install schedules the plan's events on each target node's home
// engine. Called from Serve, before the run starts.
func (p *FaultPlan) install(c *Cluster) {
	for _, ev := range p.events {
		if ev.node < 0 || ev.node >= len(c.nodes) {
			panic(fmt.Sprintf("cluster: fault plan targets node %d of %d", ev.node, len(c.nodes)))
		}
		n := c.nodes[ev.node]
		n.eng.AtFunc(sim.Time(0).Add(ev.at), fireFault, &faultFire{c: c, ev: ev})
	}
}

// fireFault runs one scheduled fault in its node's engine context.
func fireFault(arg any) {
	ff := arg.(*faultFire)
	c, ev := ff.c, ff.ev
	n := c.nodes[ev.node]
	switch ev.kind {
	case faultCrash:
		c.crashNode(ev.node)
	case faultRecover:
		if !n.dead {
			return
		}
		n.dead = false
		if fa, ok := n.backend.(FaultAware); ok {
			fa.Recover()
		}
		c.notifyHealth(n, ev.node, false)
	case faultSlowdown:
		if fa, ok := n.backend.(FaultAware); ok {
			fa.SetSlowdown(ev.slowdown)
		}
	}
}

// crashNode kills node ni at the current instant of its home engine:
// the backend drops its internal state, every in-flight attempt fails
// back to the client a reply-latency later, and the client edge learns
// of the death one lookahead later (eager removal from routing).
func (c *Cluster) crashNode(ni int) {
	n := c.nodes[ni]
	if n.dead {
		return
	}
	n.dead = true
	if fa, ok := n.backend.(FaultAware); ok {
		fa.Crash()
	}
	// Fail the resident attempts in ascending attempt-id order so the
	// failure replies are issued — and therefore delivered — in the
	// same deterministic order for any shard count.
	var resident []*flight
	for _, sl := range n.slots {
		if sl.f != nil {
			resident = append(resident, sl.f)
		}
	}
	sort.Slice(resident, func(i, j int) bool { return resident[i].aid < resident[j].aid })
	for _, f := range resident {
		n.evict(f)
		n.meter.Failed()
		c.sendFail(n, f)
	}
	c.notifyHealth(n, ni, true)
}

// sendFail bounces one attempt back to the client edge as a failure
// reply, one reply-latency away (control messages skip link
// serialisation). Runs on the node's engine.
func (c *Cluster) sendFail(n *Node, f *flight) {
	c.hop(n, false, c.cfg.Net.ReplyLatency, failFlight, f)
}

// healthNote is a node-liveness notification in flight to the client
// edge.
type healthNote struct {
	c    *Cluster
	node int
	down bool
}

// notifyHealth tells the client edge about a liveness change, one
// network lookahead later — the same bound PR 7's stop broadcast rides,
// and the minimum credible detection delay. Runs on the node's engine.
func (c *Cluster) notifyHealth(n *Node, ni int, down bool) {
	c.hop(n, false, c.look, applyHealthNote, &healthNote{c: c, node: ni, down: down})
}

// applyHealthNote updates the client edge's liveness view. Runs on the
// client engine.
func applyHealthNote(arg any) {
	hn := arg.(*healthNote)
	c := hn.c
	h := &c.hstate[hn.node]
	if h.down == hn.down {
		return
	}
	h.down = hn.down
	if !hn.down {
		// A recovered node starts with a clean failure history.
		h.consec = 0
		h.probation = false
	}
	c.bumpEpoch()
}
