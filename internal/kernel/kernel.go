// Package kernel simulates the Linux process scheduler and the kernel
// facilities user-space scheduling builds on: pluggable scheduling
// classes (an EEVDF-style weighted fair class with slice-based
// preemption, SCHED_RR, SCHED_FIFO, and SCHED_BATCH — see Class),
// wake-up placement, idle stealing and periodic load balancing, futexes,
// timers, per-thread affinity, and nice priorities.
//
// Simulated threads are sim procs: their Go code runs in zero virtual time
// and advances the clock only through Thread.Compute and blocking
// syscalls, which is where all scheduling decisions are modelled.
package kernel

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Pid identifies a simulated process.
type Pid int

// Tid identifies a simulated thread.
type Tid int

// SchedParams are the tunables of the fair class, modelled on the Linux
// EEVDF/CFS sysctls.
type SchedParams struct {
	// TargetLatency is the period over which every runnable thread on a
	// core should run once (sched_latency).
	TargetLatency sim.Duration
	// MinGranularity is the smallest slice handed to a thread when a
	// core is crowded (sched_min_granularity).
	MinGranularity sim.Duration
	// WakeupGranularity limits wake-up preemption of the current thread
	// (sched_wakeup_granularity).
	WakeupGranularity sim.Duration
	// SleeperBonus caps how far behind min_vruntime a waking thread is
	// placed, giving sleepers a mild latency advantage.
	SleeperBonus sim.Duration
	// RRQuantum is the SCHED_RR round-robin quantum.
	RRQuantum sim.Duration
	// BalanceInterval is the period of the load balancer. Zero disables
	// periodic balancing (idle stealing still runs).
	BalanceInterval sim.Duration
	// YieldImmediate selects whether sched_yield reschedules right away
	// when competitors exist. Linux versions differ here (§5.3 of the
	// paper): false (the default) models the laziness of the paper's
	// Linux 5.14 testbed, where a yield takes effect only at the next
	// scheduler tick; true models a prompt EEVDF-style yield (used as
	// an ablation).
	YieldImmediate bool
	// TickInterval is the scheduler tick: the granularity at which a
	// lazy yield actually switches (Linux: 1 ms at CONFIG_HZ=1000).
	TickInterval sim.Duration
	// DefaultClass names the scheduling class new threads start in
	// ("fair", "rr", "fifo", "batch", or any registered class); empty
	// selects "fair". This is the knob the schedcmp kernel-scheduler
	// ablation sweeps.
	DefaultClass string
}

// DefaultSchedParams returns parameters approximating a stock 112-core
// Linux configuration.
func DefaultSchedParams() SchedParams {
	return SchedParams{
		TargetLatency:     24 * sim.Millisecond,
		MinGranularity:    3 * sim.Millisecond,
		WakeupGranularity: 1 * sim.Millisecond,
		SleeperBonus:      12 * sim.Millisecond,
		RRQuantum:         100 * sim.Millisecond,
		BalanceInterval:   4 * sim.Millisecond,
		YieldImmediate:    false,
		TickInterval:      1 * sim.Millisecond,
		DefaultClass:      "fair",
	}
}

// Counters aggregates kernel-wide scheduling statistics.
type Counters struct {
	ContextSwitches int64 // thread dispatched on a core it wasn't current on
	Preemptions     int64 // involuntary slice-expiry or wake-up preemptions
	Migrations      int64 // dispatches on a different core than last time
	CrossSocket     int64 // migrations that crossed a socket boundary
	Wakeups         int64
	FutexWaits      int64
	FutexWakes      int64
	Yields          int64
	Sleeps          int64
	Steals          int64 // idle-balance pulls
	BalanceMoves    int64 // periodic-balance moves
	ThreadsCreated  int64
	ThreadsExited   int64
}

// Kernel is one simulated machine instance.
type Kernel struct {
	Eng    *sim.Engine
	HW     hw.Config
	Params SchedParams

	cores []*Core
	// classes holds one instance of every registered scheduling class,
	// in ascending rank order (the core pick order); defaultClass is the
	// class new threads start in (SchedParams.DefaultClass).
	classes      []Class
	classByName  map[string]Class
	defaultClass Class
	// stealableSlot and classRank cache Stealable()/Rank() by queue
	// slot so per-pick decisions avoid interface calls.
	stealableSlot []bool
	classRank     []int

	procs   map[Pid]*Process
	threads map[Tid]*Thread
	nextPid Pid
	nextTid Tid

	bw *bwManager

	Stats Counters

	// BWSample, when non-nil, is invoked whenever a socket's consumed
	// bandwidth changes: (time, socket, bytes/ns actually flowing).
	BWSample func(at sim.Time, socket int, used float64)

	// Segments is the machine's registry of nOS-V shared-memory
	// segments, owned by package nosv (which the kernel cannot name).
	Segments any

	// Tracer, when non-nil, records scheduling events (dispatches,
	// blocks, wakes) for offline inspection.
	Tracer *trace.Buffer

	balanceEv sim.Event
	rrSeq     uint64 // dispatch sequence for FIFO tie-breaking
}

// New creates a kernel over the given engine and machine.
func New(eng *sim.Engine, cfg hw.Config, params SchedParams) *Kernel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	k := &Kernel{
		Eng:     eng,
		HW:      cfg,
		Params:  params,
		procs:   make(map[Pid]*Process),
		threads: make(map[Tid]*Thread),
	}
	k.classes = newClasses(k)
	k.classByName = make(map[string]Class, len(k.classes))
	k.stealableSlot = make([]bool, len(k.classes))
	k.classRank = make([]int, len(k.classes))
	for i, cl := range k.classes {
		k.classByName[cl.Name()] = cl
		k.stealableSlot[i] = cl.Stealable()
		k.classRank[i] = cl.Rank()
	}
	def := params.DefaultClass
	if def == "" {
		def = "fair"
	}
	cl, ok := k.classByName[def]
	if !ok {
		panic(fmt.Sprintf("kernel: unknown scheduling class %q (have %v)", def, ClassNames()))
	}
	k.defaultClass = cl
	n := cfg.Topo.Cores()
	k.cores = make([]*Core, n)
	for i := 0; i < n; i++ {
		k.cores[i] = newCore(k, i)
	}
	k.bw = newBWManager(k)
	return k
}

// Classes returns the kernel's scheduling-class instances in ascending
// rank (pick) order.
func (k *Kernel) Classes() []Class { return append([]Class(nil), k.classes...) }

// Class returns the kernel's instance of the named scheduling class.
func (k *Kernel) Class(name string) (Class, bool) {
	cl, ok := k.classByName[name]
	return cl, ok
}

// DefaultClass returns the class new threads start in.
func (k *Kernel) DefaultClass() Class { return k.defaultClass }

// NumCores returns the number of simulated cores.
func (k *Kernel) NumCores() int { return len(k.cores) }

// Process is a simulated process: a container for threads sharing a pid,
// an environment, and a default affinity inherited by new threads.
type Process struct {
	PID  Pid
	Name string

	kern *Kernel
	// UID and GID model process credentials; nOS-V only lets processes
	// of the same user and group share a memory segment (§4.4).
	UID, GID int
	// Env mimics the process environment (USF_ENABLE et al.).
	Env map[string]string
	// DefaultAffinity is inherited by threads created in this process
	// (the cpuset-style partitioning used by the microservices baselines).
	DefaultAffinity Mask
	// DefaultNice is applied to new threads.
	DefaultNice int

	threads []*Thread
	exited  bool

	// Libc is the process's C library instance (a *glibc.Lib), typed
	// any because the kernel cannot import its upper layers.
	Libc any
}

// NewProcess creates a process.
func (k *Kernel) NewProcess(name string) *Process {
	k.nextPid++
	p := &Process{
		PID:  k.nextPid,
		Name: name,
		kern: k,
		Env:  make(map[string]string),
	}
	k.procs[p.PID] = p
	return p
}

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.kern }

// Threads returns a snapshot of the process's live threads.
func (p *Process) Threads() []*Thread {
	out := make([]*Thread, 0, len(p.threads))
	for _, t := range p.threads {
		if t.state != ThreadExited {
			out = append(out, t)
		}
	}
	return out
}

// LookupThread finds a thread by tid, or nil.
func (k *Kernel) LookupThread(tid Tid) *Thread { return k.threads[tid] }

// Processes returns all processes, in creation order of pid.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for pid := Pid(1); pid <= k.nextPid; pid++ {
		if p, ok := k.procs[pid]; ok {
			out = append(out, p)
		}
	}
	return out
}

// Current returns the thread whose code is currently executing, or nil when
// called from event context. The thread rides on the proc's Data slot
// (set by SpawnThread, cleared on exit), so the lookup is pointer-chasing
// only — no map access on this per-syscall path. It stays correct with
// independent engines running concurrently: the binding is per-proc.
func (k *Kernel) Current() *Thread {
	p := k.Eng.Current()
	if p == nil {
		return nil
	}
	if t, ok := p.Data.(*Thread); ok && t.kern == k {
		return t
	}
	return nil
}

// CoreBusy reports whether core c currently runs a thread.
func (k *Kernel) CoreBusy(c int) bool { return k.cores[c].curr != nil }

// CoreRunnable returns the number of runnable-or-running threads associated
// with core c.
func (k *Kernel) CoreRunnable(c int) int {
	n := k.cores[c].queued()
	if k.cores[c].curr != nil {
		n++
	}
	return n
}

// CoreQueued returns the number of threads waiting in core c's runqueue
// (the running thread excluded) — the per-core backlog depth telemetry
// scrapers sample.
func (k *Kernel) CoreQueued(c int) int { return k.cores[c].queued() }

// TotalRunnable returns system-wide runnable thread count (including
// running ones) — the oversubscription level.
func (k *Kernel) TotalRunnable() int {
	n := 0
	for _, c := range k.cores {
		n += c.queued()
		if c.curr != nil {
			n++
		}
	}
	return n
}

// TotalBusyTime returns the sum of busy time across all cores.
func (k *Kernel) TotalBusyTime() sim.Duration {
	var b sim.Duration
	for _, c := range k.cores {
		b += c.busyAccum
		if !c.isIdle && c.curr != nil {
			b += k.Eng.Now().Sub(c.curr.dispatchedAt)
		}
	}
	return b
}

// CoreIdleTime returns the accumulated idle time of core c.
func (k *Kernel) CoreIdleTime(c int) sim.Duration {
	co := k.cores[c]
	idle := co.idleAccum
	if co.isIdle {
		idle += k.Eng.Now().Sub(co.idleSince)
	}
	return idle
}

func (k *Kernel) String() string {
	return fmt.Sprintf("kernel(%s, %d cores, %d threads)", k.HW.Name, len(k.cores), len(k.threads))
}
