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
type SchedCoop struct {
	cfg  CoopConfig
	in   *nosv.Instance
	topo hw.Topology

	// queues[pid][core] is the per-process per-core FIFO of ready tasks.
	queues  map[kernel.Pid][][]*nosv.Task
	pending map[kernel.Pid]int
	queued  int          // sum of pending: every queued task, any process
	pids    []kernel.Pid // rotation ring, registration order

	curPid     []kernel.Pid // per core: process currently being served
	sliceStart []sim.Time   // per core: when that process's quantum began
	nextHome   int          // round-robin home queue for never-run tasks

	Stats CoopStats
}

// NewSchedCoop returns a SCHED_COOP policy with the given configuration.
func NewSchedCoop(cfg CoopConfig) *SchedCoop {
	if cfg.ProcessQuantum <= 0 {
		cfg.ProcessQuantum = 20 * sim.Millisecond
	}
	return &SchedCoop{
		cfg:     cfg,
		queues:  make(map[kernel.Pid][][]*nosv.Task),
		pending: make(map[kernel.Pid]int),
	}
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

func (p *SchedCoop) queuesFor(pid kernel.Pid) [][]*nosv.Task {
	q, ok := p.queues[pid]
	if !ok {
		q = make([][]*nosv.Task, p.in.NumCores())
		p.queues[pid] = q
		p.pids = append(p.pids, pid)
	}
	return q
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
	q := p.queuesFor(t.Pid)
	home := pref
	if home < 0 {
		// Never-run tasks have no affinity yet: spread them round-robin
		// so no single core's FIFO becomes the funnel for new work.
		home = p.nextHome
		p.nextHome = (p.nextHome + 1) % p.in.NumCores()
	}
	t.SetQueuedAt(home)
	q[home] = append(q[home], t)
	p.pending[t.Pid]++
	p.queued++
	return -1
}

// findIdle searches for an idle core: preferred, same NUMA, anywhere.
func (p *SchedCoop) findIdle(pref int) int {
	in := p.in
	if p.cfg.DisableAffinity || pref < 0 {
		return in.FirstIdleCore()
	}
	if in.IsIdle(pref) {
		return pref
	}
	n := in.NumCores()
	for c := 0; c < n; c++ {
		if c != pref && p.topo.SameNUMA(c, pref) && in.IsIdle(c) {
			return c
		}
	}
	for c := 0; c < n; c++ {
		if !p.topo.SameNUMA(c, pref) && in.IsIdle(c) {
			return c
		}
	}
	return -1
}

// Next implements nosv.Policy: serve the core's current process until its
// quantum expires or it runs dry, then rotate to the next process with
// pending work.
func (p *SchedCoop) Next(core int) *nosv.Task {
	now := p.in.Now()
	cur := p.curPid[core]
	if cur != 0 && p.pending[cur] > 0 && now.Sub(p.sliceStart[core]) < p.cfg.ProcessQuantum {
		if t := p.pickFor(cur, core); t != nil {
			return t
		}
	}
	// Rotate through the process ring, starting after the current one.
	start := 0
	for i, pid := range p.pids {
		if pid == cur {
			start = i + 1
			break
		}
	}
	n := len(p.pids)
	for i := 0; i < n; i++ {
		pid := p.pids[(start+i)%n]
		if p.pending[pid] == 0 {
			continue
		}
		if t := p.pickFor(pid, core); t != nil {
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

// pickFor pops a queued task of pid suitable for core, honouring the
// core→NUMA→any affinity order.
func (p *SchedCoop) pickFor(pid kernel.Pid, core int) *nosv.Task {
	q := p.queues[pid]
	if q == nil {
		return nil
	}
	// pop shifts the queue in place (rather than re-slicing the head
	// away) so the backing array is stable and enqueue/pick cycles do
	// not reallocate it.
	pop := func(c int) *nosv.Task {
		t := q[c][0]
		n := copy(q[c], q[c][1:])
		q[c][n] = nil
		q[c] = q[c][:n]
		p.pending[pid]--
		p.queued--
		return t
	}
	if p.cfg.DisableAffinity {
		for c := range q {
			if len(q[c]) > 0 {
				return pop(c)
			}
		}
		return nil
	}
	if len(q[core]) > 0 {
		p.Stats.LocalPicks++
		return pop(core)
	}
	for c := range q {
		if c != core && p.topo.SameNUMA(c, core) && len(q[c]) > 0 {
			p.Stats.NUMAPicks++
			return pop(c)
		}
	}
	for c := range q {
		if !p.topo.SameNUMA(c, core) && len(q[c]) > 0 {
			p.Stats.RemotePicks++
			return pop(c)
		}
	}
	return nil
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
		q := p.queuesFor(y.Pid)
		home := y.PrefCore()
		if home < 0 {
			home = core
		}
		y.SetQueuedAt(home)
		q[home] = append(q[home], y)
		p.pending[y.Pid]++
		p.queued++
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
	q := p.queues[t.Pid]
	if q == nil {
		return
	}
	c := t.QueuedAt()
	if c < 0 || c >= len(q) {
		return
	}
	for i, x := range q[c] {
		if x == t {
			copy(q[c][i:], q[c][i+1:])
			q[c] = q[c][:len(q[c])-1]
			p.pending[t.Pid]--
			p.queued--
			return
		}
	}
}
