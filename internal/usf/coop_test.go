package usf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/nosv"
	"repro/internal/sim"
)

func coopStack(t *testing.T, cfg hw.Config, ccfg CoopConfig) (*sim.Engine, *kernel.Kernel, *nosv.Instance, *SchedCoop) {
	t.Helper()
	cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	boot := k.NewProcess("boot")
	var pol *SchedCoop
	in, err := nosv.OpenSegment(k, "usf", boot, func() nosv.Policy {
		pol = NewSchedCoop(ccfg)
		return pol
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, k, in, pol
}

func openProc(t *testing.T, k *kernel.Kernel, name string) *kernel.Process {
	t.Helper()
	p := k.NewProcess(name)
	if _, err := nosv.OpenSegment(k, "usf", p, func() nosv.Policy { return nil }); err != nil {
		t.Fatal(err)
	}
	return p
}

func attachRun(k *kernel.Kernel, in *nosv.Instance, p *kernel.Process, label string, body func(kt *kernel.Thread, task *nosv.Task)) {
	k.SpawnThread(p, label, func(kt *kernel.Thread) {
		task := in.Attach(kt, p.PID, label)
		body(kt, task)
		in.Complete(task)
	})
}

func TestCoopPrefersLastCore(t *testing.T) {
	eng, k, in, _ := coopStack(t, hw.SmallNode(), DefaultCoopConfig())
	p := openProc(t, k, "app")
	var cores []int
	var pauser *nosv.Task
	attachRun(k, in, p, "t", func(kt *kernel.Thread, task *nosv.Task) {
		pauser = task
		for i := 0; i < 4; i++ {
			kt.Compute(1 * sim.Millisecond)
			cores = append(cores, task.PrefCore())
			in.Pause(task)
		}
	})
	// An event-driven waker resubmits the pauser periodically.
	var tick func()
	rounds := 0
	tick = func() {
		rounds++
		if pauser != nil {
			in.Submit(pauser)
		}
		if rounds < 10 {
			eng.After(5*sim.Millisecond, tick)
		}
	}
	eng.After(5*sim.Millisecond, tick)
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(cores) != 4 {
		t.Fatalf("rounds recorded = %d, want 4", len(cores))
	}
	for i := 1; i < len(cores); i++ {
		if cores[i] != cores[0] {
			t.Fatalf("task moved cores: %v (SCHED_COOP must keep last-core affinity)", cores)
		}
	}
}

func TestCoopNoPreemptionAmongTasks(t *testing.T) {
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = 2
	eng, k, in, _ := coopStack(t, cfg, DefaultCoopConfig())
	p := openProc(t, k, "app")
	for i := 0; i < 6; i++ {
		attachRun(k, in, p, "hog", func(kt *kernel.Thread, task *nosv.Task) {
			kt.Compute(100 * sim.Millisecond)
		})
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if k.Stats.Preemptions > 6 {
		t.Fatalf("preemptions = %d; SCHED_COOP tasks must not preempt each other", k.Stats.Preemptions)
	}
}

func TestCoopProcessQuantumRotation(t *testing.T) {
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = 1
	eng, k, in, pol := coopStack(t, cfg, CoopConfig{ProcessQuantum: 5 * sim.Millisecond})
	pa := openProc(t, k, "A")
	pb := openProc(t, k, "B")
	var order []string
	work := func(p *kernel.Process, name string, n int) {
		for i := 0; i < n; i++ {
			attachRun(k, in, p, name, func(kt *kernel.Thread, task *nosv.Task) {
				kt.Compute(3 * sim.Millisecond)
				order = append(order, name)
			})
		}
	}
	work(pa, "A", 6)
	work(pb, "B", 6)
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 12 {
		t.Fatalf("completions = %d", len(order))
	}
	if pol.Stats.QuantumRotations == 0 {
		t.Fatal("expected process rotations with a 5ms quantum and 3ms tasks")
	}
	// Both processes must make progress before either finishes all 6:
	// find position of first B and last A.
	firstB, lastA := -1, -1
	for i, s := range order {
		if s == "B" && firstB < 0 {
			firstB = i
		}
		if s == "A" {
			lastA = i
		}
	}
	if firstB > lastA {
		// all A then all B would mean no interleaving at all
		t.Fatalf("no inter-process rotation: %v", order)
	}
}

func TestCoopAffinitySpreadsAcrossNUMA(t *testing.T) {
	cfg := hw.DualSocket16()
	eng, k, in, pol := coopStack(t, cfg, DefaultCoopConfig())
	p := openProc(t, k, "app")
	// 32 tasks on 16 cores: placements beyond the idle set go through
	// queues; all must complete.
	done := 0
	for i := 0; i < 32; i++ {
		attachRun(k, in, p, "w", func(kt *kernel.Thread, task *nosv.Task) {
			kt.Compute(2 * sim.Millisecond)
			done++
		})
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if done != 32 {
		t.Fatalf("done = %d", done)
	}
	if pol.Stats.IdlePlacements == 0 {
		t.Fatal("expected some direct idle placements")
	}
}

func TestCoopDisableAffinityAblation(t *testing.T) {
	cfg := hw.DualSocket16()
	eng, k, in, pol := coopStack(t, cfg, CoopConfig{ProcessQuantum: 20 * sim.Millisecond, DisableAffinity: true})
	p := openProc(t, k, "app")
	done := 0
	for i := 0; i < 24; i++ {
		attachRun(k, in, p, "w", func(kt *kernel.Thread, task *nosv.Task) {
			kt.Compute(1 * sim.Millisecond)
			in.Yield(task)
			kt.Compute(1 * sim.Millisecond)
			done++
		})
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if done != 24 {
		t.Fatalf("done = %d", done)
	}
	if pol.Stats.LocalPicks != 0 || pol.Stats.NUMAPicks != 0 {
		t.Fatal("affinity-disabled policy must not take affinity-ordered picks")
	}
}

func TestLIFOPolicyOrder(t *testing.T) {
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = 1
	cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	boot := k.NewProcess("boot")
	in, err := nosv.OpenSegment(k, "lifo", boot, func() nosv.Policy { return NewLIFO() })
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	// Occupy the core with a long task while three more queue up; LIFO
	// must then run them newest-first.
	attachRun(k, in, boot, "hog", func(kt *kernel.Thread, task *nosv.Task) {
		kt.Compute(60 * sim.Millisecond)
	})
	for i := 0; i < 3; i++ {
		i := i
		k.SpawnThread(boot, "w", func(kt *kernel.Thread) {
			kt.Nanosleep(sim.Duration(i+1) * sim.Millisecond) // deterministic queue order
			task := in.Attach(kt, boot.PID, "w")
			order = append(order, i)
			in.Complete(task)
		})
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 0}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (LIFO)", order, want)
		}
	}
}

func TestPriorityPolicyOrder(t *testing.T) {
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = 1
	cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	boot := k.NewProcess("boot")
	lo := k.NewProcess("lo")
	hi := k.NewProcess("hi")
	prio := map[int]int{int(lo.PID): 1, int(hi.PID): 9}
	in, err := nosv.OpenSegment(k, "prio", boot, func() nosv.Policy { return NewPriority(prio) })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*kernel.Process{lo, hi} {
		if _, err := nosv.OpenSegment(k, "prio", p, nil); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	attachRun(k, in, boot, "hog", func(kt *kernel.Thread, task *nosv.Task) {
		kt.Compute(60 * sim.Millisecond)
	})
	mk := func(p *kernel.Process, name string, delay sim.Duration) {
		k.SpawnThread(p, name, func(kt *kernel.Thread) {
			kt.Nanosleep(delay)
			task := in.Attach(kt, p.PID, name)
			order = append(order, name)
			in.Complete(task)
		})
	}
	mk(lo, "lo", 1*sim.Millisecond) // queues first
	mk(hi, "hi", 2*sim.Millisecond) // queues second but outranks lo
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "hi" || order[1] != "lo" {
		t.Fatalf("order = %v, want [hi lo]", order)
	}
}

// TestCoopYieldRepicksIsExact: before every yield, the instance's
// side-effect-free "would this yield park" answer must match what the
// yield then does — a self-yield exactly when SCHED_COOP reported that
// it re-picks the yielder — and the O(1) queued counter must stay the
// sum of the per-process counts.
func TestCoopYieldRepicksIsExact(t *testing.T) {
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = 2
	eng, k, in, pol := coopStack(t, cfg, DefaultCoopConfig())
	a, b := openProc(t, k, "a"), openProc(t, k, "b")
	checks := 0
	spin := func(p *kernel.Process, label string, work sim.Duration, yields int) {
		attachRun(k, in, p, label, func(kt *kernel.Thread, task *nosv.Task) {
			for i := 0; i < yields; i++ {
				kt.Compute(work)
				parks := in.YieldWouldPark(task)
				self := in.Stats.SelfYields
				in.Yield(task)
				if repicked := in.Stats.SelfYields > self; repicked == parks {
					t.Errorf("%s yield %d: YieldWouldPark %v but re-picked %v", label, i, parks, repicked)
				}
				sum := 0
				for _, cp := range pol.procs {
					sum += cp.pending
				}
				if pol.queued != sum {
					t.Errorf("queued %d, pending sum %d", pol.queued, sum)
				}
				checks++
			}
		})
	}
	// Three times as many tasks as cores, finishing at different times,
	// so yields run both with and without queued competitors. Bursts
	// outlast the kernel slice, so every worker gets to attach.
	for i := 0; i < 3; i++ {
		spin(a, "a", sim.Duration(i+1)*700*sim.Microsecond, 8+i)
		spin(b, "b", sim.Duration(i+2)*500*sim.Microsecond, 10-i)
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if checks != 3*8+3+3*10-3 {
		t.Fatalf("%d yields checked", checks)
	}
	if in.Stats.SelfYields == 0 || in.Stats.SelfYields == in.Stats.Yields {
		t.Fatalf("want both kinds of yield: %d of %d were self-yields", in.Stats.SelfYields, in.Stats.Yields)
	}
}

// refCoop is SCHED_COOP as it was before its per-process state moved
// into Pid-indexed slots: Pid-keyed maps, a linear search of the ring
// for the current process, no empty-queue answer in Next, and per-core
// SameNUMA filters. TestCoopMatchesMapReference holds SchedCoop to it.
type refCoop struct {
	cfg  CoopConfig
	in   *nosv.Instance
	topo hw.Topology

	queues  map[kernel.Pid][][]*nosv.Task
	pending map[kernel.Pid]int
	queued  int
	pids    []kernel.Pid

	curPid     []kernel.Pid
	sliceStart []sim.Time
	nextHome   int

	Stats CoopStats
}

func newRefCoop(cfg CoopConfig) *refCoop {
	if cfg.ProcessQuantum <= 0 {
		cfg.ProcessQuantum = 20 * sim.Millisecond
	}
	return &refCoop{
		cfg:     cfg,
		queues:  make(map[kernel.Pid][][]*nosv.Task),
		pending: make(map[kernel.Pid]int),
	}
}

func (p *refCoop) Name() string { return "sched_coop" }

func (p *refCoop) Bind(in *nosv.Instance) {
	p.in = in
	p.topo = in.Topo()
	n := in.NumCores()
	p.curPid = make([]kernel.Pid, n)
	p.sliceStart = make([]sim.Time, n)
}

func (p *refCoop) queuesFor(pid kernel.Pid) [][]*nosv.Task {
	q, ok := p.queues[pid]
	if !ok {
		q = make([][]*nosv.Task, p.in.NumCores())
		p.queues[pid] = q
		p.pids = append(p.pids, pid)
	}
	return q
}

func (p *refCoop) Ready(t *nosv.Task, yield bool) int {
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
		home = p.nextHome
		p.nextHome = (p.nextHome + 1) % p.in.NumCores()
	}
	t.SetQueuedAt(home)
	q[home] = append(q[home], t)
	p.pending[t.Pid]++
	p.queued++
	return -1
}

func (p *refCoop) findIdle(pref int) int {
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

func (p *refCoop) Next(core int) *nosv.Task {
	now := p.in.Now()
	cur := p.curPid[core]
	if cur != 0 && p.pending[cur] > 0 && now.Sub(p.sliceStart[core]) < p.cfg.ProcessQuantum {
		if t := p.pickFor(cur, core); t != nil {
			return t
		}
	}
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

func (p *refCoop) pickFor(pid kernel.Pid, core int) *nosv.Task {
	q := p.queues[pid]
	if q == nil {
		return nil
	}
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

func (p *refCoop) NextAfterYield(core int, y *nosv.Task) *nosv.Task {
	t := p.Next(core)
	if t != y || t == nil {
		return t
	}
	if alt := p.Next(core); alt != nil {
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

func (p *refCoop) YieldRepicks(core int, y *nosv.Task) bool { return p.queued == 0 }

func (p *refCoop) notePick(core int, pid kernel.Pid) {
	if p.curPid[core] != pid {
		p.curPid[core] = pid
		p.sliceStart[core] = p.in.Now()
	}
}

func (p *refCoop) Remove(t *nosv.Task) {
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

// coopPolicy is what the differential test drives: either SCHED_COOP
// implementation, plus its counters and rotation ring.
type coopPolicy interface {
	nosv.Policy
	nosv.YieldAware
	snapshot() (CoopStats, []kernel.Pid)
}

func (p *SchedCoop) snapshot() (CoopStats, []kernel.Pid) { return p.Stats, p.pids }
func (p *refCoop) snapshot() (CoopStats, []kernel.Pid)   { return p.Stats, p.pids }

// policyCall is one recorded policy decision.
type policyCall struct {
	op       string // Ready, Next, NextAfterYield or Remove
	at       sim.Time
	core     int // the core argument, or the core Ready returned
	arg      int // the task argument's ID (Ready, Remove, the yielder)
	got      int // the returned task's ID, 0 for none
	queuedAt int // the argument's (R, X) or returned task's QueuedAt
}

// recorder logs every decision of the policy it wraps.
type recorder struct {
	coopPolicy
	in  *nosv.Instance
	log []policyCall
}

func (r *recorder) Bind(in *nosv.Instance) {
	r.in = in
	r.coopPolicy.Bind(in)
}

func (r *recorder) note(op string, core int, arg, got *nosv.Task) {
	c := policyCall{op: op, at: r.in.Now(), core: core}
	if arg != nil {
		c.arg, c.queuedAt = arg.ID, arg.QueuedAt()
	}
	if got != nil {
		c.got, c.queuedAt = got.ID, got.QueuedAt()
	}
	r.log = append(r.log, c)
}

func (r *recorder) Ready(t *nosv.Task, yield bool) int {
	c := r.coopPolicy.Ready(t, yield)
	r.note("Ready", c, t, nil)
	return c
}

func (r *recorder) Next(core int) *nosv.Task {
	t := r.coopPolicy.Next(core)
	r.note("Next", core, nil, t)
	return t
}

func (r *recorder) NextAfterYield(core int, y *nosv.Task) *nosv.Task {
	t := r.coopPolicy.NextAfterYield(core, y)
	r.note("NextAfterYield", core, y, t)
	return t
}

func (r *recorder) Remove(t *nosv.Task) {
	r.coopPolicy.Remove(t)
	r.note("Remove", -1, t, nil)
}

// coopOpKind is one step of a scripted task.
type coopOpKind int

const (
	opCompute coopOpKind = iota // burn d of CPU
	opYield                     // one nosv yield
	opSpin                      // n rounds of (compute d, yield): a busy-wait
	opPause                     // pause; an event resubmits the task after d
	opWaitfor                   // timed pause of d
	opSubmit                    // submit task (proc, thread) of the plan
)

type coopOp struct {
	kind         coopOpKind
	d            sim.Duration
	n            int
	proc, thread int
}

// coopProcPlan is one process: a delay before its threads attach (which
// orders the processes' ring registration) and each thread's script.
type coopProcPlan struct {
	delay   sim.Duration
	threads [][]coopOp
}

// coopPlan is one seeded random workload on one policy configuration.
type coopPlan struct {
	topo  hw.Topology
	cfg   CoopConfig
	procs []coopProcPlan
	// disconnect[i] > 0 disconnects process i at that time, withdrawing
	// its queued tasks through Remove.
	disconnect []sim.Duration
}

func newCoopPlan(rng *rand.Rand, topo hw.Topology, cfg CoopConfig) coopPlan {
	plan := coopPlan{topo: topo, cfg: cfg}
	nproc := 2 + rng.Intn(4)
	threads := make([]int, nproc)
	for i := range threads {
		threads[i] = 1 + rng.Intn(topo.Cores()/2+2)
	}
	dur := func(lo, hi sim.Duration) sim.Duration { return lo + sim.Duration(rng.Int63n(int64(hi-lo))) }
	for i := 0; i < nproc; i++ {
		pp := coopProcPlan{delay: dur(sim.Microsecond, 3*sim.Millisecond)}
		for th := 0; th < threads[i]; th++ {
			var ops []coopOp
			for n := 20 + rng.Intn(40); n > 0; n-- {
				var op coopOp
				switch r := rng.Intn(20); {
				case r < 7:
					op = coopOp{kind: opCompute, d: dur(20*sim.Microsecond, 3*sim.Millisecond)}
				case r < 9:
					op = coopOp{kind: opYield}
				case r < 13:
					op = coopOp{kind: opSpin, d: dur(2*sim.Microsecond, 40*sim.Microsecond), n: 1 + rng.Intn(30)}
				case r < 15:
					op = coopOp{kind: opPause, d: dur(50*sim.Microsecond, 4*sim.Millisecond)}
				case r < 17:
					op = coopOp{kind: opWaitfor, d: dur(50*sim.Microsecond, 4*sim.Millisecond)}
				default:
					p := rng.Intn(nproc)
					op = coopOp{kind: opSubmit, proc: p, thread: rng.Intn(threads[p])}
				}
				ops = append(ops, op)
			}
			pp.threads = append(pp.threads, ops)
		}
		plan.procs = append(plan.procs, pp)
	}
	plan.disconnect = make([]sim.Duration, nproc)
	if rng.Intn(2) == 0 {
		plan.disconnect[rng.Intn(nproc)] = dur(5*sim.Millisecond, 60*sim.Millisecond)
	}
	return plan
}

// coopOutcome is everything the differential test compares.
type coopOutcome struct {
	Calls    []policyCall
	Coop     CoopStats
	Ring     []kernel.Pid
	Nosv     nosv.Stats
	Kernel   kernel.Counters
	QueuedAt []int // every task's final QueuedAt, in task-ID order
	End      sim.Time
	Err      string
}

// runCoopPlan runs plan on a real kernel and nOS-V stack under the
// policy mk builds.
func runCoopPlan(t *testing.T, plan coopPlan, mk func(CoopConfig) coopPolicy) coopOutcome {
	t.Helper()
	cfg := hw.DualSocket16()
	cfg.Topo = plan.topo
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	rec := &recorder{}
	in, err := nosv.OpenSegment(k, "usf", k.NewProcess("boot"), func() nosv.Policy {
		rec.coopPolicy = mk(plan.cfg)
		return rec
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([][]*nosv.Task, len(plan.procs))
	var all []*nosv.Task
	for pi, pp := range plan.procs {
		pi, pp := pi, pp
		p := openProc(t, k, fmt.Sprintf("p%d", pi))
		tasks[pi] = make([]*nosv.Task, len(pp.threads))
		for ti, ops := range pp.threads {
			ti, ops := ti, ops
			k.SpawnThread(p, "w", func(kt *kernel.Thread) {
				kt.Nanosleep(pp.delay)
				task := in.Attach(kt, p.PID, "w")
				tasks[pi][ti] = task
				all = append(all, task)
				for _, op := range ops {
					switch op.kind {
					case opCompute:
						kt.Compute(op.d)
					case opYield:
						in.Yield(task)
					case opSpin:
						for i := 0; i < op.n; i++ {
							kt.Compute(op.d)
							in.Yield(task)
						}
					case opPause:
						eng.After(op.d, func() { in.Submit(task) })
						in.Pause(task)
					case opWaitfor:
						in.Waitfor(task, op.d)
					case opSubmit:
						if o := tasks[op.proc][op.thread]; o != nil {
							in.Submit(o)
						}
					}
				}
				in.Complete(task)
			})
		}
		if d := plan.disconnect[pi]; d > 0 {
			eng.After(d, func() { in.DisconnectProcess(p.PID) })
		}
	}
	_, runErr := eng.RunAll()
	out := coopOutcome{Calls: rec.log, Nosv: in.Stats, Kernel: k.Stats, End: eng.Now()}
	out.Coop, out.Ring = rec.snapshot()
	out.Ring = append([]kernel.Pid(nil), out.Ring...)
	if runErr != nil {
		// A process disconnected with tasks queued strands their
		// threads; both policies must strand the same ones.
		out.Err = runErr.Error()
	}
	out.QueuedAt = make([]int, len(all)+1)
	for _, task := range all {
		out.QueuedAt[task.ID] = task.QueuedAt()
	}
	eng.KillAll()
	return out
}

// TestCoopMatchesMapReference drives SchedCoop and refCoop through the
// same seeded random multi-process workloads on real stacks (compute,
// yields, busy-wait yield loops, pauses, timed pauses, cross-task
// submits, and process disconnects that withdraw queued tasks) and
// requires every policy decision, every counter, every task's final
// queue and the final clock to match, with affinity on and off, at
// quanta of 5, 20 and 80 ms, on flat, dual-socket and sub-NUMA
// topologies.
func TestCoopMatchesMapReference(t *testing.T) {
	topos := []hw.Topology{
		{Sockets: 1, CoresPerSocket: 4, NUMAPerSocket: 1},
		{Sockets: 2, CoresPerSocket: 4, NUMAPerSocket: 1},
		{Sockets: 2, CoresPerSocket: 4, NUMAPerSocket: 2},
	}
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	var cover CoopStats
	var calls, removes, selfYields int64
	outOfOrder := false
	for _, topo := range topos {
		for _, noAff := range []bool{false, true} {
			for _, q := range []sim.Duration{5, 20, 80} {
				for seed := 0; seed < seeds; seed++ {
					cfg := CoopConfig{ProcessQuantum: q * sim.Millisecond, DisableAffinity: noAff}
					name := fmt.Sprintf("%dx%dx%d/noaff=%v/q=%dms/seed%d",
						topo.Sockets, topo.CoresPerSocket, topo.NUMAPerSocket, noAff, q, seed)
					plan := newCoopPlan(rand.New(rand.NewSource(int64(seed)*7919+int64(q))), topo, cfg)
					got := runCoopPlan(t, plan, func(c CoopConfig) coopPolicy { return NewSchedCoop(c) })
					want := runCoopPlan(t, plan, func(c CoopConfig) coopPolicy { return newRefCoop(c) })
					compareCoop(t, name, got, want)
					s := got.Coop
					cover.LocalPicks += s.LocalPicks
					cover.NUMAPicks += s.NUMAPicks
					cover.RemotePicks += s.RemotePicks
					cover.QuantumRotations += s.QuantumRotations
					cover.IdlePlacements += s.IdlePlacements
					calls += int64(len(got.Calls))
					selfYields += got.Nosv.SelfYields
					for _, c := range got.Calls {
						if c.op == "Remove" {
							removes++
						}
					}
					for i := 1; i < len(got.Ring); i++ {
						outOfOrder = outOfOrder || got.Ring[i] < got.Ring[i-1]
					}
				}
			}
		}
	}
	// The workloads must reach every decision the policy makes.
	if cover.LocalPicks == 0 || cover.NUMAPicks == 0 || cover.RemotePicks == 0 ||
		cover.QuantumRotations == 0 || cover.IdlePlacements == 0 || selfYields == 0 || removes == 0 {
		t.Errorf("workloads miss a decision: %+v, %d self-yields, %d removes", cover, selfYields, removes)
	}
	if !outOfOrder {
		t.Error("no workload registered its processes in the ring out of pid order")
	}
	t.Logf("%d policy calls compared; %+v, %d self-yields, %d removes", calls, cover, selfYields, removes)
}

// compareCoop reports the first difference between two outcomes.
func compareCoop(t *testing.T, name string, got, want coopOutcome) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := 0; i < len(got.Calls) && i < len(want.Calls); i++ {
		if got.Calls[i] != want.Calls[i] {
			t.Fatalf("%s: policy call %d differs:\n got %+v\nwant %+v", name, i, got.Calls[i], want.Calls[i])
		}
	}
	if len(got.Calls) != len(want.Calls) {
		t.Fatalf("%s: %d policy calls, reference made %d", name, len(got.Calls), len(want.Calls))
	}
	got.Calls, want.Calls = nil, nil
	t.Fatalf("%s: outcomes differ:\n got %+v\nwant %+v", name, got, want)
}
