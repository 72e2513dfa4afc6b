// Package glibc models the C library layer of the paper's system: the
// pthread API (create/join/exit, mutex, condition variable, barrier,
// semaphore), sleeping, yielding, affinity management, and poll — each
// with two interchangeable backends:
//
//   - standard: futex-based, directly on the simulated kernel (stock
//     glibc behaviour);
//   - USF ("glibcv"): every pthread becomes a nOS-V worker with a bound
//     task; blocking APIs park tasks in per-object FIFO queues and hand
//     the core to the next scheduled task (paper §4.2-4.3, Listing 1).
//
// Whether a process runs glibcv is decided at process start by the
// USF_ENABLE environment variable, exactly like the paper's `chrt -c`.
package glibc

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/nosv"
	"repro/internal/sim"
)

// Stats counts glibc-level activity.
type Stats struct {
	ThreadsCreated int64
	CacheHits      int64 // pthread_create served from the thread cache
	CacheMisses    int64
	Joins          int64
	Yields         int64
}

// Lib is one process's C library instance.
type Lib struct {
	K    *kernel.Kernel
	Proc *kernel.Process
	// Inst is the nOS-V segment; non-nil means the USF backend
	// (glibcv) is active for this process.
	Inst *nosv.Instance
	// CacheEnabled turns the Dice & Kogan thread cache on (§4.3.1).
	CacheEnabled bool
	// TaskAwareIO enables the TASIO extension: BlockingIO releases the
	// nOS-V core during the wait (§7 future work).
	TaskAwareIO bool

	cache    []*Pthread // MRU stack of parked, reusable workers
	shutdown bool

	Stats Stats
}

// Options configures process startup.
type Options struct {
	// USF enables the glibcv backend (the process "enters SCHED_COOP").
	USF bool
	// Policy creates the scheduling policy if this process is the first
	// to open the segment. nil falls back to nosv.NewFIFO.
	Policy func() nosv.Policy
	// ThreadCache enables pthread caching and reuse (default on when
	// USF is on; ignored otherwise). Set DisableThreadCache to turn it
	// off for ablations.
	DisableThreadCache bool
	// TaskAwareIO enables the TASIO blocking-I/O extension under USF.
	TaskAwareIO bool
	// Nice is the default nice value for the process's threads.
	Nice int
	// Affinity is the process cpuset (resource-partitioning baselines).
	Affinity kernel.Mask
}

// NewLib attaches a C library instance to proc. Most callers should use
// StartProcess instead.
func NewLib(k *kernel.Kernel, proc *kernel.Process, opts Options) (*Lib, error) {
	l := &Lib{K: k, Proc: proc}
	proc.DefaultNice = opts.Nice
	proc.DefaultAffinity = opts.Affinity.Clone()
	if opts.USF {
		proc.Env["USF_ENABLE"] = "1"
		pol := opts.Policy
		if pol == nil {
			pol = func() nosv.Policy { return nosv.NewFIFO() }
		}
		in, err := nosv.OpenSegment(k, "nosv-default", proc, pol)
		if err != nil {
			return nil, err
		}
		l.Inst = in
		l.CacheEnabled = !opts.DisableThreadCache
		l.TaskAwareIO = opts.TaskAwareIO
	}
	proc.Libc = l
	return l, nil
}

// StartProcess creates a process, attaches a Lib, and launches its main
// thread running main. When main returns the library shuts down: cached
// workers are destroyed and the process disconnects from nOS-V.
func StartProcess(k *kernel.Kernel, name string, opts Options, main func(l *Lib)) (*Lib, error) {
	proc := k.NewProcess(name)
	l, err := NewLib(k, proc, opts)
	if err != nil {
		return nil, err
	}
	pt := &Pthread{lib: l, doneF: k.NewFutex()}
	pt.KT = k.SpawnThread(proc, name+"/main", func(kt *kernel.Thread) {
		kt.TLS = pt
		if l.Inst != nil {
			pt.task = l.Inst.Attach(kt, proc.PID, name+"/main")
			pt.worker = pt.task.Worker()
		}
		runUser(pt, func() { main(l) })
		l.Shutdown()
		pt.doneF.Word = 1
		pt.doneF.Wake(1 << 30)
		if l.Inst != nil {
			l.Inst.Complete(pt.task)
			l.Inst.Detach(pt.task)
		}
		// exit(2): tear down any threads the application leaked
		// (runtime pools it never shut down).
		for _, th := range proc.Threads() {
			if th != kt {
				th.Kill()
			}
		}
	})
	return l, nil
}

// USF reports whether the glibcv backend is active.
func (l *Lib) USF() bool { return l.Inst != nil }

// Self returns the calling thread's pthread handle.
func (l *Lib) Self() *Pthread {
	kt := l.K.Current()
	if kt == nil {
		panic("glibc: Self called outside thread context")
	}
	pt, _ := kt.TLS.(*Pthread)
	if pt == nil {
		panic(fmt.Sprintf("glibc: %v has no pthread state", kt))
	}
	return pt
}

// Pthread is a pthread_t: the thread handle plus the paper's extensions
// (the bound nOS-V task and the stored user affinity hint).
type Pthread struct {
	lib    *Lib
	KT     *kernel.Thread
	task   *nosv.Task
	worker *nosv.Worker

	userAffinity    kernel.Mask
	hasUserAffinity bool

	doneF       *kernel.Futex // 0 = running, 1 = finished
	joinWaiters []*nosv.Task  // USF-mode joiners
	retval      any
	detached    bool

	spin SpinWait
}

// SpinWait is the state of one busy-wait in progress on a thread. Package
// spin's poll loop owns its fields; it lives by value in the thread's
// Pthread, so a wait allocates nothing, and the loop can run as a resume
// step on the engine stack with this struct as its argument.
type SpinWait struct {
	Lib *Lib
	// Cond(Arg, N) reports whether the wait is over.
	Cond func(arg any, n int) bool
	Arg  any
	N    int
	// Yield enables the sched_yield patch.
	Yield bool
	// Watched marks a wait whose condition's every change is notified
	// (package spin's watched waits); only such a wait fast-forwards
	// while nothing can observe it. Next links it into its watch's list
	// of waits.
	Watched bool
	Next    *SpinWait
	// Spins counts finished polls; YieldDue marks a poll whose
	// sched_yield is still to be made; Done marks a satisfied Cond.
	Spins    int
	YieldDue bool
	Done     bool

	// self is the waiting thread, looked up once when the wait starts.
	self *Pthread
}

// BindSpinWait starts a busy-wait on the calling thread: it looks the
// thread up (and so checks the caller) once, stores w in the thread's
// busy-wait slot with Lib set to l, and returns the slot. The slot's
// methods then reach the thread without another lookup; the kernel and
// nOS-V still check on every call that the thread itself is running.
func (l *Lib) BindSpinWait(w SpinWait) *SpinWait {
	pt := l.Self()
	w.Lib, w.self = l, pt
	pt.spin = w
	return &pt.spin
}

// SchedYield is Lib.SchedYield for the waiting thread.
func (w *SpinWait) SchedYield() { w.Lib.schedYield(w.self) }

// SchedYieldWouldPark reports, without side effects, whether SchedYield
// called now could park the waiting thread. A false answer is a promise
// that it will not, so a resume step may then call SchedYield.
func (w *SpinWait) SchedYieldWouldPark() bool {
	if w.Lib.Inst != nil {
		return w.Lib.Inst.YieldWouldPark(w.self.task)
	}
	return w.self.KT.YieldWouldPark()
}

// StartCompute begins d of CPU work on the waiting thread without waiting
// for it (see kernel.Thread.StartCompute) and reports whether the thread
// must park.
func (w *SpinWait) StartCompute(d sim.Duration) bool {
	return w.self.KT.StartCompute(d, kernel.ComputeOpts{})
}

// ParkStep parks the waiting thread with step(w) as its resume step (see
// kernel.Thread.ParkStep).
func (w *SpinWait) ParkStep(step func(any) bool) { w.self.KT.ParkStep(step, w) }

// KeepsCore reports whether nothing can observe the waiting thread's
// next bursts and polls: the kernel thread keeps its core through them
// (kernel.Thread.KeepsCore; under glibcv its sched_yields do not reach
// the kernel), and under glibcv each sched_yield, if yield is set, is a
// self-yield the policy can skip (nosv.Instance.YieldLone).
func (w *SpinWait) KeepsCore() bool {
	pt := w.self
	if w.Lib.Inst == nil {
		return pt.KT.KeepsCore(w.Yield)
	}
	return pt.KT.KeepsCore(false) && (!w.Yield || w.Lib.Inst.YieldLone(pt.task))
}

// PendingPenalty returns the overhead the waiting thread's next burst
// would burn before its work (kernel.Thread.PendingPenalty).
func (w *SpinWait) PendingPenalty() sim.Duration { return w.self.KT.PendingPenalty() }

// YieldPenalty returns the overhead one sched_yield adds to the next
// burst: the kernel entry, except under glibcv, whose yield stays in
// user space.
func (w *SpinWait) YieldPenalty() sim.Duration {
	if w.Lib.Inst != nil {
		return 0
	}
	return w.Lib.K.HW.Costs.SyscallEntry
}

// StartLull lulls the waiting thread with grid gaps a and b, calling
// fn(l, w) when the lull wakes (kernel.Thread.StartLull).
func (w *SpinWait) StartLull(a, b sim.Duration, fn func(l *sim.Lull, arg any)) {
	w.self.KT.StartLull(a, b, fn, w)
}

// WakeLull wakes the waiting thread's lull, if it has one.
func (w *SpinWait) WakeLull() { w.self.KT.WakeLull() }

// SkipYields applies the bookkeeping of n sched_yields the waiting
// thread made at first, first+step, ... while it kept its core: the
// library's and the kernel's yield counters, or under glibcv nOS-V's
// self-yields.
func (w *SpinWait) SkipYields(first sim.Time, step sim.Duration, n int) {
	l := w.Lib
	l.Stats.Yields += int64(n)
	if l.Inst != nil {
		l.Inst.SkipSelfYields(w.self.task, first, step, n)
		return
	}
	l.K.Stats.Yields += int64(n)
}

// ResumeCompute re-creates the waiting thread's burst in flight
// (kernel.Thread.ResumeCompute) and returns its end.
func (w *SpinWait) ResumeCompute(start sim.Time, d, penalty sim.Duration) sim.Time {
	return w.self.KT.ResumeCompute(start, d, penalty)
}

// Task returns the pthread's bound nOS-V task (nil under the standard
// backend).
func (pt *Pthread) Task() *nosv.Task { return pt.task }

// ptExit is the pthread_exit unwinding sentinel.
type ptExit struct{ val any }

// runUser executes a user thread function, absorbing PthreadExit unwinds.
func runUser(pt *Pthread, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(ptExit); ok {
				pt.retval = e.val
				return
			}
			panic(r)
		}
	}()
	fn()
}

// PthreadExit terminates the calling thread, unwinding to its create
// wrapper, with val as the join value.
func (l *Lib) PthreadExit(val any) {
	panic(ptExit{val})
}

// Thread lifecycle costs: a real pthread_create clones a kernel thread and
// maps a stack (~tens of µs); reusing a cached glibcv thread is a task
// rebind plus a futex wake.
const (
	threadCreateCost = 14 * sim.Microsecond
	threadStartCost  = 5 * sim.Microsecond // first-run overhead in the child
	cacheReuseCost   = 1500 * sim.Nanosecond
)

// PthreadCreate starts a new thread running fn. Under glibcv the thread is
// recruited as a nOS-V worker (it cannot run until the scheduler places
// its task), and completed threads are cached and reused (§4.3.1).
func (l *Lib) PthreadCreate(name string, fn func()) *Pthread {
	l.Stats.ThreadsCreated++
	if l.Inst == nil {
		l.Compute(threadCreateCost)
		pt := &Pthread{lib: l, doneF: l.K.NewFutex()}
		pt.KT = l.K.SpawnThread(l.Proc, name, func(kt *kernel.Thread) {
			kt.TLS = pt
			kt.Compute(threadStartCost)
			runUser(pt, fn)
			pt.finish()
		})
		return pt
	}
	// glibcv path.
	if l.CacheEnabled && len(l.cache) > 0 {
		l.Stats.CacheHits++
		old := l.cache[len(l.cache)-1] // most recently cached first
		l.cache = l.cache[:len(l.cache)-1]
		l.Compute(cacheReuseCost)
		pt := &Pthread{lib: l, KT: old.KT, worker: old.worker, doneF: l.K.NewFutex()}
		pt.task = l.Inst.NewTask(pt.worker, l.Proc.PID, name)
		pt.KT.TLS = pt
		pt.worker.PendingFn = fn
		l.Inst.Submit(pt.task)
		return pt
	}
	l.Stats.CacheMisses++
	l.Compute(threadCreateCost)
	pt := &Pthread{lib: l, doneF: l.K.NewFutex()}
	pt.KT = l.K.SpawnThread(l.Proc, name, func(kt *kernel.Thread) {
		kt.Compute(threadStartCost)
		l.workerLoop(kt)
	})
	pt.worker = l.Inst.NewWorker(pt.KT)
	pt.task = l.Inst.NewTask(pt.worker, l.Proc.PID, name)
	pt.KT.TLS = pt
	pt.worker.PendingFn = fn
	l.Inst.Submit(pt.task)
	return pt
}

// workerLoop is the glibcv thread body: park until the bound task is
// placed, run the user function, publish completion, then return to the
// cache (or exit on shutdown). The worker object is stable across cache
// reuse; the Pthread handle is re-read after every wake because each
// pthread_create binds a fresh handle (and task) to the cached worker.
func (l *Lib) workerLoop(kt *kernel.Thread) {
	w := kt.TLS.(*Pthread).worker
	for {
		l.Inst.ParkWorker(w)
		pt := kt.TLS.(*Pthread)
		if w.Shutdown {
			l.Inst.Detach(w.Task())
			return
		}
		fn := w.PendingFn
		w.PendingFn = nil
		runUser(pt, fn)
		pt.finish()
		if l.CacheEnabled && !l.shutdown {
			l.cache = append(l.cache, pt)
			l.Inst.Complete(pt.task)
			continue
		}
		l.Inst.Complete(pt.task)
		l.Inst.Detach(pt.task)
		return
	}
}

// finish publishes thread completion to joiners.
func (pt *Pthread) finish() {
	pt.doneF.Word = 1
	if pt.lib.Inst != nil {
		for _, w := range pt.joinWaiters {
			pt.lib.Inst.Submit(w)
		}
		pt.joinWaiters = nil
		return
	}
	pt.doneF.Wake(1 << 30)
}

// PthreadJoin blocks until pt finishes and returns its exit value.
func (l *Lib) PthreadJoin(pt *Pthread) any {
	l.Stats.Joins++
	self := l.Self()
	if l.Inst != nil {
		for pt.doneF.Word == 0 {
			pt.joinWaiters = append(pt.joinWaiters, self.task)
			l.Inst.Pause(self.task)
		}
		return pt.retval
	}
	for pt.doneF.Word == 0 {
		pt.doneF.Wait(self.KT, 0, -1)
	}
	return pt.retval
}

// PthreadDetach marks the thread detached (no join expected).
func (l *Lib) PthreadDetach(pt *Pthread) { pt.detached = true }

// Shutdown drains the thread cache and disconnects from nOS-V (the tail
// of the paper's process-termination path, §4.3.3).
func (l *Lib) Shutdown() {
	l.shutdown = true
	if l.Inst == nil {
		return
	}
	for _, pt := range l.cache {
		l.Inst.WakeForShutdown(pt.worker)
	}
	l.cache = nil
	l.Inst.DisconnectProcess(l.Proc.PID)
}

// SchedYield implements sched_yield: under glibcv it becomes a nOS-V yield
// (an immediate, targeted switch); otherwise the kernel's lazy yield.
func (l *Lib) SchedYield() { l.schedYield(l.Self()) }

func (l *Lib) schedYield(self *Pthread) {
	l.Stats.Yields++
	if l.Inst != nil {
		l.Inst.Yield(self.task)
		return
	}
	self.KT.Yield()
}

// Sleep blocks the calling thread for d. Under glibcv the core is handed
// over via nosv_waitfor.
func (l *Lib) Sleep(d sim.Duration) {
	self := l.Self()
	if l.Inst != nil {
		l.Inst.Waitfor(self.task, d)
		return
	}
	self.KT.Nanosleep(d)
}

// SetAffinity implements pthread_setaffinity_np. Under USF the mask is
// stored as a hint and not applied (§4.3.2), preserving nOS-V's placement;
// otherwise it is applied to the kernel thread.
func (l *Lib) SetAffinity(pt *Pthread, m kernel.Mask) {
	pt.userAffinity = m.Clone()
	pt.hasUserAffinity = true
	if l.Inst != nil {
		return
	}
	pt.KT.SetAffinity(m)
}

// GetAffinity implements pthread_getaffinity_np: under USF it returns the
// stored hint so applications see what they asked for.
func (l *Lib) GetAffinity(pt *Pthread) kernel.Mask {
	if l.Inst != nil && pt.hasUserAffinity {
		return pt.userAffinity.Clone()
	}
	if l.Inst != nil {
		return kernel.Mask{}
	}
	return pt.KT.Affinity()
}

// Compute is a convenience passthrough so workloads hold one handle.
func (l *Lib) Compute(d sim.Duration) { l.Self().KT.Compute(d) }

// ComputeOpts is Compute with bandwidth/footprint qualifiers.
func (l *Lib) ComputeOpts(d sim.Duration, o kernel.ComputeOpts) {
	l.Self().KT.ComputeOpts(d, o)
}

// CachedThreads reports the current thread-cache depth.
func (l *Lib) CachedThreads() int { return len(l.cache) }
