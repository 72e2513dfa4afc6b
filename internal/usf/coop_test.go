package usf

import (
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
				for _, n := range pol.pending {
					sum += n
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
