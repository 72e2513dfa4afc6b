// Package usf is the User-space Scheduling Framework: the pluggable policy
// layer on top of nOS-V that the paper contributes. A policy owns every
// choice — which ready task goes where, in what order, and when one
// process's tasks yield to another's — while nosv provides the mechanics.
//
// SchedCoop is the paper's SCHED_COOP policy (§3, §4.1): threads run
// uninterrupted with single-core affinity until they block or yield; ready
// tasks queue in per-process per-core FIFOs; idle cores are filled
// preferring the task's own core, then its NUMA node, then anywhere; and a
// per-process quantum (20 ms by default), evaluated only at scheduling
// points, rotates cores between processes.
package usf

import (
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/nosv"
	"repro/internal/sim"
)

// CoopConfig tunes SCHED_COOP.
type CoopConfig struct {
	// ProcessQuantum is the per-process quantum evaluated at scheduling
	// points (20 ms in the paper).
	ProcessQuantum sim.Duration
	// DisableAffinity drops the core→NUMA→any search and treats all
	// queues as one pool (ablation of §4.1's placement).
	DisableAffinity bool
}

// DefaultCoopConfig returns the paper's defaults.
func DefaultCoopConfig() CoopConfig {
	return CoopConfig{ProcessQuantum: 20 * sim.Millisecond}
}

// CoopStats counts policy-level decisions.
type CoopStats struct {
	LocalPicks       int64 // task picked from the idle core's own queue
	NUMAPicks        int64 // task picked from a same-NUMA queue
	RemotePicks      int64 // task picked from another NUMA node
	QuantumRotations int64 // process switches due to quantum expiry
	IdlePlacements   int64 // ready tasks placed straight onto idle cores
}

// SchedCoop implements nosv.Policy with the paper's cooperative policy.
// Per-process state is indexed by kernel Pid, which the kernel hands out
// densely from 1, and a self-yield with nothing else queued (a busy-wait
// poll) costs O(1): Next answers an empty system from the queued counter.
type SchedCoop struct {
	cfg  CoopConfig
	in   *nosv.Instance
	topo hw.Topology

	procs  []coopProc   // by Pid; grown when a process first queues a task
	queued int          // sum of pending: every queued task, any process
	pids   []kernel.Pid // rotation ring, registration order

	curPid     []kernel.Pid // per core: process currently being served
	sliceStart []sim.Time   // per core: when that process's quantum began
	nextHome   int          // round-robin home queue for never-run tasks

	Stats CoopStats
}

// coopProc is one process's queue state.
type coopProc struct {
	// queues[core] is the process's FIFO of ready tasks homed on core;
	// nil until the process first queues a task, which registers it.
	queues  [][]*nosv.Task
	pending int // tasks across queues
	ring    int // the process's slot in pids
}

// NewSchedCoop returns a SCHED_COOP policy with the given configuration.
func NewSchedCoop(cfg CoopConfig) *SchedCoop {
	if cfg.ProcessQuantum <= 0 {
		cfg.ProcessQuantum = 20 * sim.Millisecond
	}
	return &SchedCoop{cfg: cfg}
}

// Name implements nosv.Policy.
func (p *SchedCoop) Name() string { return "sched_coop" }

// Bind implements nosv.Policy.
func (p *SchedCoop) Bind(in *nosv.Instance) {
	p.in = in
	p.topo = in.Topo()
	n := in.NumCores()
	p.curPid = make([]kernel.Pid, n)
	p.sliceStart = make([]sim.Time, n)
}

// proc returns pid's state, or nil when pid has never queued a task.
func (p *SchedCoop) proc(pid kernel.Pid) *coopProc {
	if int(pid) < len(p.procs) && p.procs[pid].queues != nil {
		return &p.procs[pid]
	}
	return nil
}

// enqueue appends t to its process's FIFO on core home, registering the
// process at the end of the rotation ring on first use.
func (p *SchedCoop) enqueue(t *nosv.Task, home int) {
	pid := t.Pid
	if int(pid) >= len(p.procs) {
		p.procs = append(p.procs, make([]coopProc, int(pid)+1-len(p.procs))...)
	}
	cp := &p.procs[pid]
	if cp.queues == nil {
		cp.queues = make([][]*nosv.Task, p.in.NumCores())
		cp.ring = len(p.pids)
		p.pids = append(p.pids, pid)
	}
	t.SetQueuedAt(home)
	cp.queues[home] = append(cp.queues[home], t)
	cp.pending++
	p.queued++
}

// Ready implements nosv.Policy: place on an idle core (own, same-NUMA,
// any), else queue in the task's per-process per-core FIFO.
func (p *SchedCoop) Ready(t *nosv.Task, yield bool) int {
	pref := t.PrefCore()
	if !yield {
		if c := p.findIdle(pref); c >= 0 {
			p.Stats.IdlePlacements++
			p.notePick(c, t.Pid)
			return c
		}
	}
	home := pref
	if home < 0 {
		// Never-run tasks have no affinity yet: spread them round-robin
		// so no single core's FIFO becomes the funnel for new work.
		home = p.nextHome
		p.nextHome = (p.nextHome + 1) % p.in.NumCores()
	}
	p.enqueue(t, home)
	return -1
}

// findIdle searches for an idle core: preferred, same NUMA, anywhere.
// The NUMA pass may include pref itself: it is busy by then.
func (p *SchedCoop) findIdle(pref int) int {
	in := p.in
	if p.cfg.DisableAffinity || pref < 0 {
		return in.FirstIdleCore()
	}
	if in.IsIdle(pref) {
		return pref
	}
	lo, hi := p.topo.NUMARange(pref)
	if c := p.idleIn(lo, hi); c >= 0 {
		return c
	}
	if c := p.idleIn(0, lo); c >= 0 {
		return c
	}
	return p.idleIn(hi, in.NumCores())
}

// idleIn returns the lowest idle core in [lo, hi), or -1.
func (p *SchedCoop) idleIn(lo, hi int) int {
	for c := lo; c < hi; c++ {
		if p.in.IsIdle(c) {
			return c
		}
	}
	return -1
}

// Next implements nosv.Policy: serve the core's current process until its
// quantum expires or it runs dry, then rotate to the next process with
// pending work.
func (p *SchedCoop) Next(core int) *nosv.Task {
	if p.queued == 0 {
		return nil
	}
	now := p.in.Now()
	cur := p.curPid[core]
	start := 0
	if cp := p.proc(cur); cp != nil { // pid 0, no process yet, has no state
		if cp.pending > 0 && now.Sub(p.sliceStart[core]) < p.cfg.ProcessQuantum {
			if t := p.pickFor(cp, core); t != nil {
				return t
			}
		}
		// Rotate through the process ring, starting after the current
		// one.
		start = cp.ring + 1
	}
	n := len(p.pids)
	for i := 0; i < n; i++ {
		pid := p.pids[(start+i)%n]
		cp := &p.procs[pid]
		if cp.pending == 0 {
			continue
		}
		if t := p.pickFor(cp, core); t != nil {
			if pid != cur {
				p.Stats.QuantumRotations++
			}
			p.curPid[core] = pid
			p.sliceStart[core] = now
			return t
		}
	}
	return nil
}

// pickFor pops a queued task of cp suitable for core, honouring the
// core→NUMA→any affinity order. The NUMA pass may include core itself:
// its FIFO is empty by then.
func (p *SchedCoop) pickFor(cp *coopProc, core int) *nosv.Task {
	q := cp.queues
	if p.cfg.DisableAffinity {
		if c := queuedIn(q, 0, len(q)); c >= 0 {
			return p.pop(cp, c)
		}
		return nil
	}
	if len(q[core]) > 0 {
		p.Stats.LocalPicks++
		return p.pop(cp, core)
	}
	lo, hi := p.topo.NUMARange(core)
	if c := queuedIn(q, lo, hi); c >= 0 {
		p.Stats.NUMAPicks++
		return p.pop(cp, c)
	}
	c := queuedIn(q, 0, lo)
	if c < 0 {
		c = queuedIn(q, hi, len(q))
	}
	if c >= 0 {
		p.Stats.RemotePicks++
		return p.pop(cp, c)
	}
	return nil
}

// queuedIn returns the lowest core in [lo, hi) with a non-empty FIFO in
// q, or -1.
func queuedIn(q [][]*nosv.Task, lo, hi int) int {
	for c := lo; c < hi; c++ {
		if len(q[c]) > 0 {
			return c
		}
	}
	return -1
}

// pop removes the head of cp's FIFO on core c. It shifts the queue in
// place (rather than re-slicing the head away) so the backing array is
// stable and enqueue/pick cycles do not reallocate it.
func (p *SchedCoop) pop(cp *coopProc, c int) *nosv.Task {
	q := cp.queues[c]
	t := q[0]
	n := copy(q, q[1:])
	q[n] = nil
	cp.queues[c] = q[:n]
	cp.pending--
	p.queued--
	return t
}

// NextAfterYield implements nosv.YieldAware: a yielding (busy-waiting)
// task only runs again when nothing else is queued, so spinning on a
// barrier hands the core to real work anywhere in the system instead of
// burning it in a self-yield loop.
func (p *SchedCoop) NextAfterYield(core int, y *nosv.Task) *nosv.Task {
	t := p.Next(core)
	if t != y || t == nil {
		return t
	}
	// Popped the yielder itself: look for any alternative.
	if alt := p.Next(core); alt != nil {
		// Requeue the yielder behind its siblings and run the
		// alternative.
		home := y.PrefCore()
		if home < 0 {
			home = core
		}
		p.enqueue(y, home)
		return alt
	}
	return y
}

// YieldRepicks implements nosv.YieldAware in O(1): NextAfterYield
// re-picks the yielder exactly when no other task is queued, because
// Next finds any queued task from any core.
func (p *SchedCoop) YieldRepicks(core int, y *nosv.Task) bool { return p.queued == 0 }

// notePick charges the placement to the pid's quantum bookkeeping so that
// direct idle placements also count as serving that process.
func (p *SchedCoop) notePick(core int, pid kernel.Pid) {
	if p.curPid[core] != pid {
		p.curPid[core] = pid
		p.sliceStart[core] = p.in.Now()
	}
}

// Remove implements nosv.Policy.
func (p *SchedCoop) Remove(t *nosv.Task) {
	cp := p.proc(t.Pid)
	if cp == nil {
		return
	}
	q := cp.queues
	c := t.QueuedAt()
	if c < 0 || c >= len(q) {
		return
	}
	for i, x := range q[c] {
		if x == t {
			copy(q[c][i:], q[c][i+1:])
			q[c] = q[c][:len(q[c])-1]
			cp.pending--
			p.queued--
			return
		}
	}
}
