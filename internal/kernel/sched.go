package kernel

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Core is one simulated CPU. Dispatch, preemption, stealing, and
// balancing here are scheduling-class-agnostic: every class-specific
// decision is delegated to the Class interface, and each class owns one
// RunQueue per core (qs is indexed by class slot, ascending rank).
type Core struct {
	k  *Kernel
	id int

	curr *Thread
	qs   []RunQueue
	// qlen mirrors qs[i].Len(), and nq/nsteal the total and stealable
	// queued counts, so pick/steal/preempt decisions read counters
	// instead of rescanning every class queue. Every queue mutation goes
	// through noteAdded/noteRemoved.
	qlen   []int
	nq     int
	nsteal int

	minVruntime int64
	sliceEnd    sim.Time
	preemptEv   sim.Event
	pendingIRQ  sim.Duration // timer-tick overhead charged to the next dispatch

	lastTid   Tid
	isIdle    bool
	idleSince sim.Time
	idleAccum sim.Duration
	busyAccum sim.Duration
}

func newCore(k *Kernel, id int) *Core {
	c := &Core{k: k, id: id, isIdle: true}
	c.qs = make([]RunQueue, len(k.classes))
	c.qlen = make([]int, len(k.classes))
	for i, cl := range k.classes {
		c.qs[i] = cl.NewQueue()
	}
	return c
}

// noteAdded records that a thread entered the queue of the given class
// slot.
func (c *Core) noteAdded(slot int) {
	c.qlen[slot]++
	c.nq++
	if c.k.stealableSlot[slot] {
		c.nsteal++
	}
}

// noteRemoved records that a thread left the queue of the given class
// slot.
func (c *Core) noteRemoved(slot int) {
	c.qlen[slot]--
	c.nq--
	if c.k.stealableSlot[slot] {
		c.nsteal--
	}
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Kernel returns the owning kernel.
func (c *Core) Kernel() *Kernel { return c.k }

// Current returns the thread currently running on the core, or nil.
func (c *Core) Current() *Thread { return c.curr }

// Queue returns the core's runqueue for the given class.
func (c *Core) Queue(cl Class) RunQueue { return c.qs[cl.slot()] }

// MinVruntime returns the core's fair-clock floor (shared by the
// weighted-fair classes).
func (c *Core) MinVruntime() int64 { return c.minVruntime }

func (c *Core) now() sim.Time { return c.k.Eng.Now() }

// queued returns the number of threads waiting across all class queues.
func (c *Core) queued() int { return c.nq }

// stealableQueued returns the number of queued threads that load
// balancing may migrate.
func (c *Core) stealableQueued() int { return c.nsteal }

// hasCompetitor reports whether any queued thread could actually
// displace t at a pick: threads in classes ranked at or above t's
// (cores pick in ascending rank order, so a lower-ranked queue never
// wins while t's class has work). Without the rank filter a fair thread
// with only batch threads queued would self-preempt every slice —
// burning timer IRQs and inflating the preemption counters — only to be
// re-picked immediately.
func (c *Core) hasCompetitor(t *Thread) bool {
	if c.nq == 0 {
		return false
	}
	rank := t.class.Rank()
	for i, n := range c.qlen {
		if n > 0 && c.k.classRank[i] <= rank {
			return true
		}
	}
	return false
}

// enqueue puts a runnable thread on its class's queue on this core and
// arms preemption machinery as needed.
func (c *Core) enqueue(t *Thread) {
	if c.curr != nil {
		c.curr.proc.WakeLull()
	}
	t.state = ThreadRunnable
	t.queuedOn = c.id
	c.k.rrSeq++
	t.rqSeq = c.k.rrSeq
	slot := t.class.slot()
	c.qs[slot].Enqueue(t)
	c.noteAdded(slot)
	c.armPreempt()
}

// removeQueued pulls a runnable thread out of its queue (exit, affinity
// change, steal). The counters track only removals that actually
// happened — Dequeue of an absent thread must not desync them.
func (c *Core) removeQueued(t *Thread) {
	slot := t.class.slot()
	if c.qs[slot].Dequeue(t) {
		c.noteRemoved(slot)
	}
}

// armPreempt ensures a slice-expiry timer is pending while the current
// thread has competitors and its class time-slices at all. Classes whose
// slice shrinks with queue depth (fair) recompute the expiry from the
// present crowd; quantum classes (RR) keep the granted slice end.
func (c *Core) armPreempt() {
	t := c.curr
	if t == nil || !c.hasCompetitor(t) {
		return
	}
	s := t.class.Slice(c, t)
	if s <= 0 {
		return // run-to-block class: no slice preemption
	}
	end := c.sliceEnd
	if t.class.SliceShrinks() || end < t.dispatchedAt {
		end = t.dispatchedAt + sim.Time(s)
	}
	if end < c.now() {
		end = c.now()
	}
	c.sliceEnd = end
	if c.preemptEv.Active() {
		if c.preemptEv.When() <= end {
			return // existing timer fires at or before the new end
		}
		c.preemptEv.Cancel()
	}
	c.preemptEv = c.k.Eng.AtFunc(end, corePreemptTimer, c)
}

// corePreemptTimer is the slice-expiry callback shared by every core, so
// arming a preemption timer allocates nothing.
func corePreemptTimer(arg any) { arg.(*Core).onPreemptTimer() }

func (c *Core) onPreemptTimer() {
	c.preemptEv = sim.Event{}
	t := c.curr
	if t == nil || !c.hasCompetitor(t) {
		return
	}
	if c.now() < c.sliceEnd {
		c.armPreempt()
		return
	}
	if !t.class.ExpirePreempts(c, t) {
		// Renew the slice in place (RR with no equal-or-higher
		// priority waiter).
		c.sliceEnd = c.now() + sim.Time(t.class.Slice(c, t))
		c.armPreempt()
		return
	}
	if t.seg == nil || !t.seg.running {
		// The thread sits at a zero-time call boundary; make it
		// self-preempt at its next scheduling point.
		t.needResched = true
		return
	}
	c.k.Stats.Preemptions++
	c.pendingIRQ += c.k.HW.Costs.TimerTick
	c.stopCurrent()
	c.enqueue(t)
	c.scheduleNext()
}

// preemptCurrent forcibly removes the current thread (event context) and
// requeues it according to its affinity.
func (c *Core) preemptCurrent(reason string) {
	t := c.curr
	if t == nil {
		return
	}
	c.k.Stats.Preemptions++
	c.stopCurrent()
	if t.affinity.Has(c.id) {
		c.enqueue(t)
	} else {
		c.k.wakePlace(t)
	}
	c.scheduleNext()
}

// preemptCurrentVoluntary is the self-initiated variant (yield, expired
// slice honoured at a Compute boundary, affinity move). The caller must
// park the proc afterwards.
func (c *Core) preemptCurrentVoluntary(reason string) {
	t := c.curr
	if t == nil {
		return
	}
	c.stopCurrent()
	if t.affinity.Has(c.id) {
		c.enqueue(t)
	} else {
		c.k.wakePlace(t)
	}
	c.scheduleNext()
}

// kickCurrent preempts the current thread at the next safe point: right
// away when it is inside a compute segment, else at its next scheduling
// point (wake-up preemption).
func (c *Core) kickCurrent(reason string) {
	curr := c.curr
	if curr == nil {
		return
	}
	if curr.seg != nil && curr.seg.running {
		c.preemptCurrent(reason)
	} else {
		curr.needResched = true
	}
}

// stopCurrent detaches the current thread, folding segment progress and
// runtime accounting. The thread is left in Runnable state with no queue.
func (c *Core) stopCurrent() {
	t := c.curr
	t.proc.WakeLull()
	now := c.now()
	if t.seg != nil && t.seg.running {
		t.seg.advance(now)
		c.k.bw.deregister(c, t)
		t.seg.endEv.Cancel()
		t.seg.endEv = sim.Event{}
		t.seg.running = false
	}
	c.accountOff(t)
	t.state = ThreadRunnable
	t.curCore = -1
	t.needResched = false
	c.curr = nil
	c.preemptEv.Cancel()
	c.preemptEv = sim.Event{}
}

// undispatch is stopCurrent for threads leaving the runnable set (block,
// exit).
func (c *Core) undispatch(t *Thread) {
	c.stopCurrent()
}

// accountOff charges wall time to the class's runtime accounting and the
// usage counters.
func (c *Core) accountOff(t *Thread) {
	now := c.now()
	wall := now.Sub(t.dispatchedAt)
	if wall > 0 {
		t.CPUTime += wall
		c.busyAccum += wall
		t.class.Charge(c, t, wall)
	}
	t.lastCore = c.id
	c.lastTid = t.TID
	c.k.trace(trace.KindRunEnd, c.id, t)
}

// popNext removes and returns the core's next queued thread, scanning
// class queues in rank order, or nil. Used by the yield path to
// implement skip-buddy picking.
func (c *Core) popNext() *Thread {
	if c.nq == 0 {
		return nil
	}
	for i, q := range c.qs {
		if c.qlen[i] == 0 {
			continue
		}
		if t := q.Pick(); t != nil {
			c.noteRemoved(i)
			return t
		}
	}
	return nil
}

// scheduleNext picks and dispatches the next thread for this core,
// stealing from a loaded peer when the local queues are empty.
func (c *Core) scheduleNext() {
	if c.curr != nil {
		return
	}
	next := c.popNext()
	if next == nil {
		next = c.k.stealFor(c)
	}
	if next == nil {
		c.isIdle = true
		c.idleSince = c.now()
		return
	}
	c.dispatch(next)
}

// dispatch makes t current on this core.
func (c *Core) dispatch(t *Thread) {
	if c.curr != nil {
		panic(fmt.Sprintf("kernel: dispatch on busy core %d", c.id))
	}
	k := c.k
	now := c.now()
	if c.isIdle {
		c.idleAccum += now.Sub(c.idleSince)
		c.isIdle = false
	}
	k.armBalance()

	var penalty sim.Duration
	if c.lastTid != t.TID {
		penalty += k.HW.Costs.ContextSwitch
		k.Stats.ContextSwitches++
	}
	if t.lastCore >= 0 && t.lastCore != c.id {
		k.Stats.Migrations++
		topo := k.HW.Topo
		switch {
		case !topo.SameSocket(t.lastCore, c.id):
			penalty += k.HW.Costs.MigrationCrossSocket
			k.Stats.CrossSocket++
		case !topo.SameNUMA(t.lastCore, c.id):
			penalty += k.HW.Costs.MigrationCrossNUMA
		default:
			penalty += k.HW.Costs.MigrationSameNUMA
		}
	}
	// Cache re-pollution: our lines were evicted if someone else ran
	// here, or we arrive from elsewhere.
	if t.seg != nil && t.seg.footprint > 0 && (c.lastTid != t.TID || t.lastCore != c.id) {
		fp := t.seg.footprint
		if fp > k.HW.Costs.L2Bytes {
			fp = k.HW.Costs.L2Bytes
		}
		penalty += sim.Duration(float64(fp) / k.HW.Costs.CacheRefillBytesPerNs)
	}
	penalty += c.pendingIRQ
	c.pendingIRQ = 0

	c.curr = t
	t.state = ThreadRunning
	t.curCore = c.id
	t.queuedOn = -1
	t.dispatchedAt = now
	if s := t.class.Slice(c, t); s > 0 {
		c.sliceEnd = now + sim.Time(s)
	} else {
		c.sliceEnd = now
	}
	t.class.OnDispatch(c, t)
	c.armPreempt()
	k.trace(trace.KindRunStart, c.id, t)

	if t.seg != nil {
		t.seg.penalty += float64(penalty)
		c.startSegment(t)
	} else {
		t.pendingPenalty += penalty
		k.Eng.Ready(t.proc)
	}
}

// startSegment begins (or resumes) the current thread's compute segment.
func (c *Core) startSegment(t *Thread) {
	seg := t.seg
	seg.running = true
	seg.lastUpdate = c.now()
	c.k.bw.register(c, t)
}

// onSegmentEnd completes the current compute request and resumes the
// thread's code.
func (c *Core) onSegmentEnd(t *Thread) {
	if t.seg == nil || c.curr != t {
		return
	}
	t.seg.advance(c.now())
	c.k.bw.deregister(c, t)
	t.seg.running = false
	t.seg.endEv = sim.Event{}
	t.seg = nil
	c.k.Eng.Ready(t.proc)
}

// blockCurrent transitions the calling thread to Blocked and frees its
// core. The caller parks the proc afterwards.
func (k *Kernel) blockCurrent(t *Thread) {
	switch t.state {
	case ThreadRunning:
		c := k.cores[t.curCore]
		c.undispatch(t)
		t.state = ThreadBlocked
		c.scheduleNext()
	case ThreadRunnable:
		// Preempted at the call boundary and now blocking.
		k.cores[t.queuedOn].removeQueued(t)
		t.state = ThreadBlocked
	default:
		panic(fmt.Sprintf("kernel: blockCurrent on %v in state %v", t, t.state))
	}
}

// trace records a scheduling event when tracing is enabled.
func (k *Kernel) trace(kind trace.Kind, core int, t *Thread) {
	if k.Tracer == nil {
		return
	}
	k.Tracer.Add(trace.Event{
		At:     k.Eng.Now(),
		Kind:   kind,
		Core:   core,
		Thread: t.Name,
		TID:    int(t.TID),
		Class:  t.class.Name(),
	})
}

// wake makes a blocked thread runnable, with class-specific placement.
func (k *Kernel) wake(t *Thread, sleeper bool) {
	if t.state != ThreadBlocked {
		return
	}
	k.Stats.Wakeups++
	t.sleeperWake = sleeper
	k.trace(trace.KindWake, t.lastCore, t)
	k.wakePlace(t)
}

// wakePlace selects a core for a runnable thread and either dispatches it
// (idle core) or enqueues it (possibly preempting the current thread).
func (k *Kernel) wakePlace(t *Thread) {
	c := k.selectCore(t)
	t.class.OnWake(c, t)
	t.sleeperWake = false
	if c.curr == nil && c.queued() == 0 {
		t.state = ThreadRunnable
		c.dispatch(t)
		return
	}
	c.enqueue(t)
	k.maybeWakeupPreempt(c, t)
}

// maybeWakeupPreempt applies wake-up preemption rules: a lower-ranked
// (higher) class always preempts, and within a class the class decides.
func (k *Kernel) maybeWakeupPreempt(c *Core, t *Thread) {
	curr := c.curr
	if curr == nil {
		c.scheduleNext()
		return
	}
	switch {
	case t.class.Rank() < curr.class.Rank():
		c.kickCurrent("class-wakeup")
	case t.class == curr.class && t.class.WakeupPreempts(c, t, curr):
		c.kickCurrent("wakeup")
	}
}

// selectCore implements wake-up placement: last core if idle, then an idle
// core in the same NUMA node, then any idle core, then the least loaded
// core, always respecting affinity.
func (k *Kernel) selectCore(t *Thread) *Core {
	idle := func(c *Core) bool { return c.curr == nil && c.queued() == 0 }

	if t.lastCore >= 0 && t.affinity.Has(t.lastCore) && idle(k.cores[t.lastCore]) {
		return k.cores[t.lastCore]
	}
	if t.lastCore >= 0 {
		// The last core's NUMA node, in ascending order; the last core
		// itself fails the test again.
		lo, hi := k.HW.Topo.NUMARange(t.lastCore)
		for _, c := range k.cores[lo:hi] {
			if t.affinity.Has(c.id) && idle(c) {
				return c
			}
		}
	}
	var best *Core
	bestLoad := 1 << 30
	for _, c := range k.cores {
		if !t.affinity.Has(c.id) {
			continue
		}
		if idle(c) {
			return c
		}
		load := c.queued()
		if c.curr != nil {
			load++
		}
		if load < bestLoad {
			bestLoad = load
			best = c
		}
	}
	if best == nil {
		panic(fmt.Sprintf("kernel: thread %v has empty effective affinity %v", t, t.affinity))
	}
	return best
}

// stealFor pulls a runnable thread of a stealable class from the most
// loaded core whose queued work may run on c (idle balancing).
func (k *Kernel) stealFor(c *Core) *Thread {
	var busiest *Core
	load := 0 // any queued (non-running) stealable thread is worth pulling
	for _, o := range k.cores {
		if o == c {
			continue
		}
		l := o.stealableQueued()
		if l > load {
			load = l
			busiest = o
		}
	}
	if busiest == nil {
		return nil
	}
	for i, q := range busiest.qs {
		if !k.stealableSlot[i] || busiest.qlen[i] == 0 {
			continue
		}
		if t := q.Steal(c.id); t != nil {
			busiest.noteRemoved(i)
			k.Stats.Steals++
			return t
		}
	}
	return nil
}

// armBalance schedules a periodic balance pass if one is not pending. It is
// invoked from dispatch, so the balancer runs only while the machine has
// work; otherwise the event queue can drain and the simulation terminate.
func (k *Kernel) armBalance() {
	if k.Params.BalanceInterval <= 0 || k.balanceEv.Active() {
		return
	}
	k.balanceEv = k.Eng.AfterFunc(k.Params.BalanceInterval, kernelBalance, k)
}

// kernelBalance is the periodic-balance callback shared by every kernel,
// so arming the balancer allocates nothing.
func kernelBalance(arg any) { arg.(*Kernel).periodicBalance() }

// periodicBalance is the simplified periodic load balancer: it moves
// queued threads of stealable classes from the most to the least loaded
// cores.
func (k *Kernel) periodicBalance() {
	k.balanceEv = sim.Event{}
	if k.TotalRunnable() > 0 {
		k.armBalance()
	}
	const maxMoves = 8
	for move := 0; move < maxMoves; move++ {
		var src, dst *Core
		srcLoad, dstLoad := -1, 1<<30
		for _, c := range k.cores {
			l := c.stealableQueued()
			if c.curr != nil {
				l++
			}
			if l > srcLoad {
				srcLoad = l
				src = c
			}
			if l < dstLoad {
				dstLoad = l
				dst = c
			}
		}
		if src == nil || dst == nil || srcLoad-dstLoad <= 1 || src.stealableQueued() == 0 {
			return
		}
		var victim *Thread
		for i, q := range src.qs {
			if !k.stealableSlot[i] || src.qlen[i] == 0 {
				continue
			}
			if t := q.Steal(dst.id); t != nil {
				src.noteRemoved(i)
				victim = t
				break
			}
		}
		if victim == nil {
			return
		}
		k.Stats.BalanceMoves++
		if dst.curr == nil && dst.queued() == 0 {
			dst.dispatch(victim)
		} else {
			dst.enqueue(victim)
		}
	}
}
