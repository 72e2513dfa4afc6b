package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// ThreadState is the lifecycle state of a simulated thread.
type ThreadState int

// Thread states.
const (
	ThreadRunnable ThreadState = iota // in a runqueue, waiting for a core
	ThreadRunning                     // current on some core
	ThreadBlocked                     // waiting (futex, sleep, ...)
	ThreadExited
)

func (s ThreadState) String() string {
	switch s {
	case ThreadRunnable:
		return "runnable"
	case ThreadRunning:
		return "running"
	case ThreadBlocked:
		return "blocked"
	case ThreadExited:
		return "exited"
	}
	return "unknown"
}

// niceToWeight is the Linux sched_prio_to_weight table for nice -20..19.
var niceToWeight = [40]int64{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

func weightOf(nice int) int64 {
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	return niceToWeight[nice+20]
}

// segment is an in-flight compute request.
type segment struct {
	remaining  float64 // work ns left at speed 1
	penalty    float64 // dispatch/IRQ overhead ns to burn before work
	bw         float64 // bytes/ns of memory traffic while running
	footprint  int64   // working-set bytes (cache model)
	speed      float64 // current effective speed (bandwidth scaling)
	lastUpdate sim.Time
	running    bool
	endEv      sim.Event
}

func (s *segment) total() float64 { return s.penalty + s.remaining }

// advance folds elapsed wall time into the segment's progress.
func (s *segment) advance(now sim.Time) {
	if !s.running {
		return
	}
	done := float64(now.Sub(s.lastUpdate)) * s.speed
	s.lastUpdate = now
	if done <= s.penalty {
		s.penalty -= done
		return
	}
	done -= s.penalty
	s.penalty = 0
	s.remaining -= done
	if s.remaining < 0 {
		s.remaining = 0
	}
}

// Thread is a simulated kernel thread.
type Thread struct {
	TID  Tid
	Name string
	Proc *Process

	kern *Kernel
	proc *sim.Proc

	state    ThreadState
	class    Class
	rtPrio   int
	nice     int
	weight   int64
	vruntime int64 // weighted virtual runtime, ns at weight 1024

	affinity Mask
	curCore  int // core we are current on, -1 otherwise
	lastCore int // last core we ran on, -1 if never

	seg *segment
	// segBuf is the reusable storage behind seg: a thread runs at most
	// one compute segment at a time and nothing retains *segment past
	// completion, so Compute recycles this buffer instead of allocating.
	segBuf         segment
	pendingPenalty sim.Duration // dispatch cost charged to the next segment
	needResched    bool         // self-preempt at the next scheduling point

	dispatchedAt sim.Time
	rqIdx        int    // index in fair runqueue heap, -1 when absent
	rqSeq        uint64 // FIFO tie-break within equal vruntime
	queuedOn     int    // core whose runqueue holds us while Runnable
	sleeperWake  bool   // wake came from a sleep (sleeper fairness bonus)

	sleepEv sim.Event // pending sleep/timeout wakeup
	yieldEv sim.Event // deferred lazy-yield switch (next tick)
	waitsOn *Futex
	// timeoutFutex and futexTimedOut carry a futex wait's timeout state
	// so the timer needs no per-wait closure: timeoutFutex remembers
	// which futex the pending sleepEv was armed for, futexTimedOut is
	// how the fired timer reports WaitTimedOut back to Wait.
	timeoutFutex  *Futex
	futexTimedOut bool

	// CPUTime accumulates wall time spent current on a core.
	CPUTime sim.Duration
	// TLS is the per-thread upper-layer binding (the glibc pthread
	// state), read on every simulated libc call.
	TLS any
}

func (t *Thread) String() string { return fmt.Sprintf("tid %d (%s)", t.TID, t.Name) }

// State returns the thread state.
func (t *Thread) State() ThreadState { return t.state }

// Kernel returns the owning kernel.
func (t *Thread) Kernel() *Kernel { return t.kern }

// Nice returns the thread's nice value.
func (t *Thread) Nice() int { return t.nice }

// LastCore returns the core the thread last ran on (-1 if never ran).
func (t *Thread) LastCore() int { return t.lastCore }

// CurrentCore returns the core the thread is current on, or -1.
func (t *Thread) CurrentCore() int {
	if t.state == ThreadRunning {
		return t.curCore
	}
	return -1
}

// Affinity returns a copy of the thread's affinity mask.
func (t *Thread) Affinity() Mask { return t.affinity.Clone() }

// Class returns the thread's scheduling class.
func (t *Thread) Class() Class { return t.class }

// ClassName returns the name of the thread's scheduling class.
func (t *Thread) ClassName() string { return t.class.Name() }

// Weight returns the thread's fair-class weight (derived from nice).
func (t *Thread) Weight() int64 { return t.weight }

// RTPrio returns the thread's real-time priority (RR/FIFO; higher wins).
func (t *Thread) RTPrio() int { return t.rtPrio }

// SpawnThread creates a runnable thread in process p executing fn. The
// thread inherits the process default affinity and nice value. It may be
// called from event context or from another thread's code.
func (k *Kernel) SpawnThread(p *Process, name string, fn func(t *Thread)) *Thread {
	k.nextTid++
	t := &Thread{
		TID:      k.nextTid,
		Name:     name,
		Proc:     p,
		kern:     k,
		state:    ThreadBlocked, // becomes runnable via wake below
		class:    k.defaultClass,
		nice:     p.DefaultNice,
		weight:   weightOf(p.DefaultNice),
		affinity: p.DefaultAffinity.Clone(),
		curCore:  -1,
		lastCore: -1,
		rqIdx:    -1,
	}
	k.threads[t.TID] = t
	p.threads = append(p.threads, t)
	k.Stats.ThreadsCreated++
	t.proc = k.Eng.Spawn(name, func(pr *sim.Proc) {
		defer k.exitThread(t)
		fn(t)
	})
	t.proc.Data = t
	k.wake(t, false)
	return t
}

// assertCurrent panics unless t's own code is executing.
func (t *Thread) assertCurrent() {
	if t.kern.Eng.Current() != t.proc {
		panic(fmt.Sprintf("kernel: %v API called from outside its own code", t))
	}
}

// ComputeOpts qualifies a compute segment.
type ComputeOpts struct {
	// BW is the memory traffic the segment generates, in bytes per ns
	// (GB/s). The per-socket bandwidth model slows the segment down
	// proportionally when the socket saturates.
	BW float64
	// Footprint is the working set in bytes; it sizes cache-refill
	// penalties after migrations and corunner pollution.
	Footprint int64
}

// Compute consumes d of CPU work at full speed. The call returns when the
// work completes; the thread may be preempted and migrated while inside.
func (t *Thread) Compute(d sim.Duration) { t.ComputeOpts(d, ComputeOpts{}) }

// ComputeOpts is Compute with a bandwidth demand and cache footprint.
func (t *Thread) ComputeOpts(d sim.Duration, o ComputeOpts) {
	if t.StartCompute(d, o) {
		t.proc.Park()
	}
}

// StartCompute is ComputeOpts without the wait: it begins the segment
// and reports whether one was started. When it returns true the caller
// must park until the segment completes (the kernel readies the thread
// then), either by returning from a resume step (see ParkStep) or by
// calling ParkStep. It never parks itself, so a resume step may call it.
func (t *Thread) StartCompute(d sim.Duration, o ComputeOpts) bool {
	t.assertCurrent()
	if d <= 0 && t.pendingPenalty <= 0 {
		return false
	}
	if d < 0 {
		d = 0
	}
	seg := &t.segBuf
	*seg = segment{
		remaining: float64(d),
		bw:        o.BW,
		footprint: o.Footprint,
		speed:     1,
	}
	if t.pendingPenalty > 0 {
		seg.penalty = float64(t.pendingPenalty)
		t.pendingPenalty = 0
	}
	t.seg = seg
	k := t.kern
	if t.state == ThreadRunning {
		c := k.cores[t.curCore]
		// Voluntary scheduling point: honour an expired slice or a
		// pending resched request before burning more CPU.
		if t.needResched && c.hasCompetitor(t) {
			c.preemptCurrent("resched")
		} else {
			c.startSegment(t)
		}
	}
	// Otherwise we were preempted at a call boundary; the segment will
	// start when a core dispatches us.
	return true
}

// ParkStep parks the calling thread with step(arg) as its resume step
// (see sim.Proc.ParkStep): the step runs on the engine stack at every
// resume, and the thread's code continues only once it returns false.
// Use it right after StartCompute returned true; the step must never
// park.
func (t *Thread) ParkStep(step func(any) bool, arg any) {
	t.assertCurrent()
	t.proc.ParkStep(step, arg)
}

// KeepsCore reports whether the running thread keeps its core, whatever
// its next compute bursts and (if yields is set) lazy sched_yields do,
// until an event that is already queued or a kernel path that wakes its
// lull first (see StartLull). That holds when nothing queued competes
// for the core, and also while competitors can take the core only at
// the slice-expiry timer or at the thread's armed lazy-yield switch:
// YieldImmediate off, no resched request pending and, if the thread
// yields, the switch armed, so its yields only count.
func (t *Thread) KeepsCore(yields bool) bool {
	if t.state != ThreadRunning {
		return false
	}
	if !t.kern.cores[t.curCore].hasCompetitor(t) {
		return true
	}
	if t.kern.Params.YieldImmediate || t.needResched {
		return false
	}
	return !yields || t.yieldEv.Active()
}

// PendingPenalty returns the dispatch and syscall overhead that the
// thread's next compute segment will burn before its work.
func (t *Thread) PendingPenalty() sim.Duration { return t.pendingPenalty }

// StartLull lulls the calling thread's proc (see sim.Engine.Lull) with
// grid gaps a and b instead of starting its next compute burst; the
// pending penalty is dropped, as the caller's grid accounts for it.
// The thread must keep its core (KeepsCore) and must park right after
// (or stay parked, in a resume step). Until the lull wakes, every
// kernel path that could take the core or look at the thread wakes it
// first, so fn can re-create the burst in flight (ResumeCompute): an
// enqueue on its core, a stop there (a preemption, a migration by
// SetAffinity, the exit of a killed thread), the core's slice-expiry
// timer and the thread's lazy-yield switch.
func (t *Thread) StartLull(a, b sim.Duration, fn func(l *sim.Lull, arg any), arg any) {
	t.assertCurrent()
	t.pendingPenalty = 0
	t.kern.Eng.Lull(t.proc, a, b, fn, arg)
}

// WakeLull wakes the thread's lull, if it has one (see StartLull).
func (t *Thread) WakeLull() { t.proc.WakeLull() }

// ResumeCompute re-creates, from any context but the thread's own, the
// compute burst a lulled thread is running: it started at start, burns
// penalty and then d of work at full speed, and is still running. It schedules the burst's end
// and returns its instant. The thread's proc stays parked; the end
// readies it as StartCompute's would.
func (t *Thread) ResumeCompute(start sim.Time, d, penalty sim.Duration) sim.Time {
	if t.state != ThreadRunning || t.seg != nil {
		panic(fmt.Sprintf("kernel: ResumeCompute on %v in state %v", t, t.state))
	}
	seg := &t.segBuf
	*seg = segment{
		remaining:  float64(d),
		penalty:    float64(penalty),
		speed:      1,
		lastUpdate: start,
		running:    true,
	}
	t.seg = seg
	end := start.Add(penalty + d)
	seg.endEv = t.kern.Eng.AtFunc(end, segmentEnd, t)
	return end
}

// YieldWouldPark reports, without side effects, whether Yield called now
// could park the thread: it is already off-CPU, or YieldImmediate is set
// and a competitor is queued on its core. When it returns false, Yield
// returns without parking.
func (t *Thread) YieldWouldPark() bool {
	if t.state != ThreadRunning {
		return true
	}
	return t.kern.Params.YieldImmediate && t.kern.cores[t.curCore].hasCompetitor(t)
}

// Yield models sched_yield: the thread stays runnable but is pushed behind
// its competitors.
func (t *Thread) Yield() {
	t.assertCurrent()
	k := t.kern
	k.Stats.Yields++
	t.chargeSyscall()
	if t.state != ThreadRunning {
		// Preempted at the boundary; we are already off-CPU, which
		// is as yielded as it gets.
		t.proc.Park()
		return
	}
	c := k.cores[t.curCore]
	if !c.hasCompetitor(t) {
		return // nothing else to run; yield is a no-op
	}
	if k.Params.YieldImmediate {
		// EEVDF-style ablation: switch right away, vruntime untouched.
		c.preemptCurrentVoluntary("yield")
		t.proc.Park()
		return
	}
	// The paper's Linux 5.14 behaviour (§5.3): the yield does not take
	// effect immediately — the thread keeps burning its core until the
	// next scheduler tick, when the kernel finally switches. Repeated
	// yields within a tick collapse into one deferred switch. This is
	// the residual busy-wait cost the Baseline pays even with the
	// sched_yield barrier patch.
	if t.yieldEv.Active() {
		return
	}
	t.yieldEv = k.Eng.AfterFunc(k.Params.TickInterval, lazyYieldSwitch, t)
}

// lazyYieldSwitch is the deferred-yield callback shared by every thread:
// it performs the switch a lazy sched_yield postponed to the next tick.
func lazyYieldSwitch(arg any) {
	t := arg.(*Thread)
	t.yieldEv = sim.Event{}
	if t.state != ThreadRunning || t.curCore < 0 {
		return
	}
	c := t.kern.cores[t.curCore]
	if c.curr != t || !c.hasCompetitor(t) {
		return
	}
	// A lulled yielder's burst in flight becomes real before the switch
	// looks at it.
	t.proc.WakeLull()
	if t.seg == nil || !t.seg.running {
		t.needResched = true
		return
	}
	c.stopCurrent()
	// Skip-buddy semantics: the pick following a yield skips the
	// yielder even though its vruntime is lowest, so a lone
	// busy-waiter cannot monopolise consecutive picks. Fairness
	// still brings it back afterwards (CFS does not reduce a
	// yielder's entitlement).
	next := c.popNext()
	c.enqueue(t)
	if next != nil {
		c.dispatch(next)
	} else {
		c.scheduleNext()
	}
}

// Nanosleep blocks the thread for d of virtual time.
func (t *Thread) Nanosleep(d sim.Duration) {
	t.assertCurrent()
	k := t.kern
	k.Stats.Sleeps++
	t.chargeSyscall()
	if d <= 0 {
		return
	}
	k.blockCurrent(t)
	t.sleepEv = k.Eng.AfterFunc(d, sleepWake, t)
	t.proc.Park()
}

// sleepWake is the Nanosleep expiry callback shared by every thread.
func sleepWake(arg any) {
	t := arg.(*Thread)
	t.sleepEv = sim.Event{}
	t.kern.wake(t, true)
}

// SetAffinity restricts the thread to the given cores. If the thread is
// running on a core outside the new mask it is migrated at this scheduling
// point.
func (t *Thread) SetAffinity(m Mask) {
	t.affinity = m.CloneInto(t.affinity)
	k := t.kern
	switch t.state {
	case ThreadRunning:
		if !m.Has(t.curCore) {
			if k.Eng.Current() == t.proc {
				c := k.cores[t.curCore]
				c.preemptCurrentVoluntary("affinity")
				t.proc.Park()
			} else {
				k.cores[t.curCore].preemptCurrent("affinity")
			}
		}
	case ThreadRunnable:
		c := k.cores[t.queuedOn]
		if !m.Has(c.id) {
			c.removeQueued(t)
			k.wakePlace(t)
		}
	}
}

// SetNice adjusts the thread's nice value (fair-class weight).
func (t *Thread) SetNice(nice int) {
	t.nice = nice
	t.weight = weightOf(nice)
}

// SetRR moves the thread to the SCHED_RR class at the given priority
// (higher wins). In the real system this needs privileges; the simulation
// exposes it to model the comparison in §3 of the paper.
func (t *Thread) SetRR(prio int) {
	t.rtPrio = prio
	t.mustSetClass("rr")
}

// SetFIFO moves the thread to the SCHED_FIFO class at the given priority
// (higher wins).
func (t *Thread) SetFIFO(prio int) {
	t.rtPrio = prio
	t.mustSetClass("fifo")
}

// SetFair returns the thread to the fair class.
func (t *Thread) SetFair() { t.mustSetClass("fair") }

// SetBatch moves the thread to the SCHED_BATCH class.
func (t *Thread) SetBatch() { t.mustSetClass("batch") }

// SetClass moves the thread to the named scheduling class. A queued
// thread is moved between its old and new class's runqueues; a running
// thread keeps its core until its next scheduling point.
func (t *Thread) SetClass(name string) error {
	cl, ok := t.kern.classByName[name]
	if !ok {
		return fmt.Errorf("kernel: unknown scheduling class %q (have %v)", name, ClassNames())
	}
	t.setClass(cl)
	return nil
}

func (t *Thread) mustSetClass(name string) {
	if err := t.SetClass(name); err != nil {
		panic(err)
	}
}

func (t *Thread) setClass(cl Class) {
	if t.class == cl {
		return
	}
	if t.state == ThreadRunnable && t.queuedOn >= 0 {
		// Requeue under the new class so dequeue/pick consult the
		// right runqueue.
		c := t.kern.cores[t.queuedOn]
		c.removeQueued(t)
		t.class = cl
		c.enqueue(t)
		return
	}
	t.class = cl
}

// Kill forcibly terminates a thread that is not currently executing (the
// exit(2) path tearing down a process's remaining threads). The thread's
// proc unwinds; kernel bookkeeping is released by the exit handler. A
// thread whose code never started has no exit handler to run (its proc
// returns before its body), so it exits here.
func (t *Thread) Kill() {
	if t.state == ThreadExited {
		return
	}
	if t.proc.State() == sim.ProcCreated {
		t.kern.exitThread(t)
	}
	t.kern.Eng.Kill(t.proc)
}

// chargeSyscall adds the kernel-entry cost to the thread's next segment.
func (t *Thread) chargeSyscall() {
	t.pendingPenalty += t.kern.HW.Costs.SyscallEntry
}

// exitThread tears the thread down; invoked as a deferred call when the
// thread function returns (or via Goexit-style unwinding from pthread_exit).
func (k *Kernel) exitThread(t *Thread) {
	if t.state == ThreadExited {
		return
	}
	k.Stats.ThreadsExited++
	switch t.state {
	case ThreadRunning:
		c := k.cores[t.curCore]
		c.undispatch(t)
		c.scheduleNext()
	case ThreadRunnable:
		k.cores[t.queuedOn].removeQueued(t)
	case ThreadBlocked:
		t.sleepEv.Cancel()
		t.sleepEv = sim.Event{}
		if t.waitsOn != nil {
			t.waitsOn.remove(t)
		}
	}
	t.yieldEv.Cancel()
	t.yieldEv = sim.Event{}
	t.state = ThreadExited
	t.seg = nil
	t.proc.Data = nil
}
