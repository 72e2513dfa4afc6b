package nosv

import (
	"fmt"
	"sort"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Stats counts nOS-V scheduling activity.
type Stats struct {
	Attaches    int64
	Detaches    int64
	Submits     int64
	Pauses      int64
	Yields      int64
	Waitfors    int64
	Placements  int64 // task dispatched onto a core slot
	Completions int64
	SelfYields  int64 // yields where the same task was picked again
}

// Instance is one nOS-V shared-memory segment: a centralized scheduler
// shared by every connected process, plus the per-core slots that enforce
// the one-running-worker-per-core invariant.
type Instance struct {
	K      *kernel.Kernel
	Key    string
	policy Policy
	// yieldAware is policy's YieldAware side, nil when it has none,
	// resolved once so a yield makes no interface type assertion;
	// yieldSkip is its YieldSkipper side, nil unless it has both.
	yieldAware YieldAware
	yieldSkip  YieldSkipper

	slots     []*Task       // current task per core, nil = idle slot
	coreMasks []kernel.Mask // single-core pin masks, built once per instance
	procs     map[kernel.Pid]*procConn
	nextTask  int

	uid, gid int // credentials of the segment creator

	Stats Stats
}

type procConn struct {
	proc  *kernel.Process
	tasks map[*Task]struct{}
}

// OpenSegment connects proc to the shared segment named key, creating it
// (with the supplied policy) on first open. Mirroring nOS-V's security
// rule, only processes with the creator's uid and gid may connect.
func OpenSegment(k *kernel.Kernel, key string, proc *kernel.Process, mkPolicy func() Policy) (*Instance, error) {
	reg, _ := k.Segments.(map[string]*Instance)
	if reg == nil {
		reg = make(map[string]*Instance)
		k.Segments = reg
	}
	in, ok := reg[key]
	if !ok {
		in = &Instance{
			K:         k,
			Key:       key,
			policy:    mkPolicy(),
			slots:     make([]*Task, k.NumCores()),
			coreMasks: make([]kernel.Mask, k.NumCores()),
			procs:     make(map[kernel.Pid]*procConn),
			uid:       proc.UID,
			gid:       proc.GID,
		}
		for c := range in.coreMasks {
			in.coreMasks[c] = kernel.NewMask(c)
		}
		in.yieldAware, _ = in.policy.(YieldAware)
		if in.yieldAware != nil {
			in.yieldSkip, _ = in.policy.(YieldSkipper)
		}
		in.policy.Bind(in)
		reg[key] = in
	}
	if proc.UID != in.uid || proc.GID != in.gid {
		return nil, fmt.Errorf("nosv: process %d (uid %d gid %d) may not join segment %q owned by uid %d gid %d",
			proc.PID, proc.UID, proc.GID, key, in.uid, in.gid)
	}
	if _, ok := in.procs[proc.PID]; !ok {
		in.procs[proc.PID] = &procConn{proc: proc, tasks: make(map[*Task]struct{})}
	}
	return in, nil
}

// Policy returns the scheduling policy driving this instance.
func (in *Instance) Policy() Policy { return in.policy }

// Topo returns the machine topology (for policy placement decisions).
func (in *Instance) Topo() hw.Topology { return in.K.HW.Topo }

// Now returns the current virtual time.
func (in *Instance) Now() sim.Time { return in.K.Eng.Now() }

// NumCores returns the machine width.
func (in *Instance) NumCores() int { return len(in.slots) }

// IsIdle reports whether core's slot is free.
func (in *Instance) IsIdle(core int) bool { return in.slots[core] == nil }

// RunningOn returns the task occupying core, or nil.
func (in *Instance) RunningOn(core int) *Task { return in.slots[core] }

// FirstIdleCore returns the lowest-numbered idle core, or -1.
func (in *Instance) FirstIdleCore() int {
	for c, s := range in.slots {
		if s == nil {
			return c
		}
	}
	return -1
}

// NewWorker recruits a kernel thread as a worker. The worker starts in the
// parked state; its thread must call ParkWorker, which returns once the
// scheduler places a task bound to it.
func (in *Instance) NewWorker(kt *kernel.Thread) *Worker {
	w := &Worker{KT: kt, parkF: in.K.NewFutex()}
	w.parkF.Word = 1
	return w
}

// NewTask creates a task bound to worker w on behalf of process pid.
func (in *Instance) NewTask(w *Worker, pid kernel.Pid, label string) *Task {
	pc := in.procs[pid]
	if pc == nil {
		panic(fmt.Sprintf("nosv: NewTask for unregistered pid %d", pid))
	}
	in.nextTask++
	t := &Task{
		ID:       in.nextTask,
		Pid:      pid,
		inst:     in,
		worker:   w,
		state:    TaskBlocked,
		prefCore: -1,
		Label:    label,
	}
	w.task = t
	pc.tasks[t] = struct{}{}
	return t
}

// Attach implements nosv_attach for the calling thread: it becomes a
// worker with a fresh bound task, the task is submitted, and the call
// blocks until the scheduler places it on a core. On return the caller
// runs under nOS-V control, pinned to its assigned core.
func (in *Instance) Attach(kt *kernel.Thread, pid kernel.Pid, label string) *Task {
	w := in.NewWorker(kt)
	t := in.NewTask(w, pid, label)
	in.Stats.Attaches++
	in.Submit(t)
	in.ParkWorker(w)
	return t
}

// Detach implements nosv_detach: the task is deregistered and the thread
// leaves nOS-V control (its affinity is left as-is; callers usually exit).
func (in *Instance) Detach(t *Task) {
	in.Stats.Detaches++
	if t.state == TaskRunning {
		in.releaseCore(t.prefCore, t)
	}
	if t.state == TaskReady {
		in.policy.Remove(t)
	}
	t.state = TaskDone
	if pc := in.procs[t.Pid]; pc != nil {
		delete(pc.tasks, t)
	}
}

// Submit implements nosv_submit: the task becomes ready. The policy either
// assigns it an idle core immediately or keeps it queued.
func (in *Instance) Submit(t *Task) {
	if t.state == TaskReady || t.state == TaskRunning || t.state == TaskDone {
		return
	}
	t.waitEv.Cancel()
	t.waitEv = sim.Event{}
	in.Stats.Submits++
	t.state = TaskReady
	if core := in.policy.Ready(t, false); core >= 0 {
		in.place(t, core)
		return
	}
	in.wakeLulls()
}

// Pause implements nosv_pause: the calling task blocks, its core is handed
// to the next scheduled task, and the call returns once somebody Submits
// the task again and the scheduler re-places it.
func (in *Instance) Pause(t *Task) {
	in.checkCaller(t)
	in.Stats.Pauses++
	t.state = TaskBlocked
	w := t.worker
	w.parkF.Word = 1
	in.releaseCore(t.prefCore, t)
	in.ParkWorker(w)
}

// Waitfor implements nosv_waitfor: a timed pause. The task is resubmitted
// automatically when d elapses, or earlier by an explicit Submit. It
// reports whether the wake came early (before the timeout).
func (in *Instance) Waitfor(t *Task, d sim.Duration) (early bool) {
	in.checkCaller(t)
	in.Stats.Waitfors++
	t.state = TaskBlocked
	w := t.worker
	w.parkF.Word = 1
	t.waitFired = false
	t.waitEv = in.K.Eng.AfterFunc(d, waitforExpire, t)
	in.releaseCore(t.prefCore, t)
	in.ParkWorker(w)
	return !t.waitFired
}

// waitforExpire is the nosv_waitfor timeout callback shared by every
// task, so timed pauses (nanosleep, timed condvar waits, poll loops)
// allocate nothing per arm.
func waitforExpire(arg any) {
	t := arg.(*Task)
	t.waitFired = true
	t.waitEv = sim.Event{}
	t.inst.Submit(t)
}

// Yield implements nosv_yield: the task requeues behind its siblings and
// the scheduler picks the next task for the core (possibly the same one).
func (in *Instance) Yield(t *Task) {
	in.checkCaller(t)
	in.Stats.Yields++
	core := t.prefCore
	t.state = TaskReady
	in.slots[core] = nil
	var next *Task
	if ya := in.yieldAware; ya != nil {
		in.policy.Ready(t, true)
		next = ya.NextAfterYield(core, t)
	} else {
		if c := in.policy.Ready(t, true); c >= 0 {
			// Policy chose to place the yielding task straight back
			// (e.g. on another idle core).
			in.place(t, c)
			if c == core {
				in.Stats.SelfYields++
				return
			}
		}
		next = in.policy.Next(core)
	}
	switch next {
	case nil:
		// Nothing else: continue in place if we were not moved.
		if t.state == TaskReady {
			in.policy.Remove(t)
			in.place(t, core)
			in.Stats.SelfYields++
		}
		return
	case t:
		in.place(t, core)
		in.Stats.SelfYields++
		return
	default:
		in.place(next, core)
	}
	if t.state == TaskReady {
		// We handed the core away; park until rescheduled.
		in.wakeLulls()
		w := t.worker
		w.parkF.Word = 1
		in.ParkWorker(w)
	}
}

// YieldLone reports whether a yield by t, running, is a self-yield that
// a busy-wait may skip: the policy re-picks t, and it can apply skipped
// self-yields' bookkeeping (SkipSelfYields).
func (in *Instance) YieldLone(t *Task) bool {
	return in.yieldSkip != nil && in.yieldAware.YieldRepicks(t.prefCore, t)
}

// SkipSelfYields applies the instance's and the policy's bookkeeping of
// n self-yields by t at the instants first, first+step, ... (see
// YieldSkipper); each counts as a yield, a placement and a self-yield.
// It runs on t's behalf, from any context.
func (in *Instance) SkipSelfYields(t *Task, first sim.Time, step sim.Duration, n int) {
	in.Stats.Yields += int64(n)
	in.Stats.Placements += int64(n)
	in.Stats.SelfYields += int64(n)
	in.yieldSkip.SkipSelfYields(t.prefCore, t, first, step, n)
}

// wakeLulls wakes the lull of every running task whose next yield would
// no longer be a self-yield: a task was just queued, so a lulled
// busy-wait's skipped yields must stop here.
func (in *Instance) wakeLulls() {
	if in.K.Eng.Lulls() == 0 {
		return
	}
	for core, t := range in.slots {
		if t != nil && (in.yieldAware == nil || !in.yieldAware.YieldRepicks(core, t)) {
			t.worker.KT.WakeLull()
		}
	}
}

// YieldWouldPark reports, without side effects, whether Yield(t) called
// now could park t's worker: only a YieldAware policy can promise that
// the yield re-picks t, so under any other policy the answer is true.
func (in *Instance) YieldWouldPark(t *Task) bool {
	ya := in.yieldAware
	return ya == nil || !ya.YieldRepicks(t.prefCore, t)
}

// Complete marks the running task finished and frees its core. The worker
// thread survives (glibcv's thread cache may rebind it to a new task).
func (in *Instance) Complete(t *Task) {
	in.checkCaller(t)
	in.Stats.Completions++
	t.state = TaskDone
	if pc := in.procs[t.Pid]; pc != nil {
		delete(pc.tasks, t)
	}
	w := t.worker
	w.parkF.Word = 1
	in.releaseCore(t.prefCore, t)
}

// ParkWorker blocks the calling worker thread until its task is placed on
// a core (parkF.Word becomes 0) or a shutdown is requested.
func (in *Instance) ParkWorker(w *Worker) {
	for w.parkF.Word == 1 && !w.Shutdown {
		w.parkF.Wait(w.KT, 1, -1)
	}
}

// WakeForShutdown releases a parked worker so its loop can exit.
func (in *Instance) WakeForShutdown(w *Worker) {
	w.Shutdown = true
	w.parkF.Wake(1)
}

// DisconnectProcess implements nosv_shutdown for one process: queued tasks
// are withdrawn. Running tasks are left to finish; glibcv drains its cache
// before calling this.
//
// Withdrawal happens in ascending task-ID order: pc.tasks is a map, and
// handing its random iteration order to policy.Remove would make the
// policy's residual queue state (and any removal-order bookkeeping a
// policy keeps) depend on the run, not the seed — the same class of bug
// as the omp.Runtime.Shutdown map-order teardown fixed in PR 3.
func (in *Instance) DisconnectProcess(pid kernel.Pid) {
	pc := in.procs[pid]
	if pc == nil {
		return
	}
	doomed := make([]*Task, 0, len(pc.tasks))
	for t := range pc.tasks {
		doomed = append(doomed, t)
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i].ID < doomed[j].ID })
	for _, t := range doomed {
		if t.state == TaskReady {
			in.policy.Remove(t)
			t.state = TaskDone
		}
	}
	delete(in.procs, pid)
}

// releaseCore clears the slot t occupies and dispatches the next task.
func (in *Instance) releaseCore(core int, t *Task) {
	if core < 0 || in.slots[core] != t {
		return
	}
	in.slots[core] = nil
	if next := in.policy.Next(core); next != nil {
		in.place(next, core)
	}
}

// place dispatches a ready task onto an idle core: the bound worker is
// pinned there and released.
func (in *Instance) place(t *Task, core int) {
	if in.slots[core] != nil {
		panic(fmt.Sprintf("nosv: placing %v on busy core %d (held by %v)", t, core, in.slots[core]))
	}
	if t.state == TaskRunning {
		panic(fmt.Sprintf("nosv: double placement of %v", t))
	}
	in.slots[core] = t
	t.state = TaskRunning
	t.prefCore = core
	in.Stats.Placements++
	w := t.worker
	w.KT.SetAffinity(in.coreMasks[core])
	w.parkF.Word = 0
	w.parkF.Wake(1)
}

// checkCaller panics if t's worker thread is not the one executing.
func (in *Instance) checkCaller(t *Task) {
	if cur := in.K.Current(); cur != t.worker.KT {
		panic(fmt.Sprintf("nosv: %v API called from %v, not its bound worker", t, cur))
	}
}
