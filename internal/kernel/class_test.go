package kernel

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

// testKernelClass builds a 1-core zero-cost kernel whose default class is
// the named one.
func testKernelClass(t *testing.T, class string) (*sim.Engine, *Kernel) {
	t.Helper()
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = 1
	cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
	eng := sim.NewEngine(1)
	params := DefaultSchedParams()
	params.DefaultClass = class
	return eng, New(eng, cfg, params)
}

func TestRegisteredClasses(t *testing.T) {
	eng := sim.NewEngine(1)
	k := New(eng, hw.SmallNode(), DefaultSchedParams())
	want := map[string]bool{"fair": true, "rr": true, "fifo": true, "batch": true}
	for _, cl := range k.Classes() {
		delete(want, cl.Name())
	}
	if len(want) != 0 {
		t.Fatalf("classes missing from kernel: %v (have %v)", want, ClassNames())
	}
	// The schedcmp rows and job order follow ClassNames.
	if got := fmt.Sprint(ClassNames()); got != "[fair rr fifo batch]" {
		t.Fatalf("ClassNames() = %s, want [fair rr fifo batch]", got)
	}
	// Pick order is ascending rank: rt classes before fair before batch.
	cs := k.Classes()
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Rank() >= cs[i].Rank() {
			t.Fatalf("classes not rank-ordered: %s(%d) before %s(%d)",
				cs[i-1].Name(), cs[i-1].Rank(), cs[i].Name(), cs[i].Rank())
		}
	}
	if k.DefaultClass().Name() != "fair" {
		t.Fatalf("default class = %s, want fair", k.DefaultClass().Name())
	}
}

func TestUnknownDefaultClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with unknown DefaultClass did not panic")
		}
	}()
	params := DefaultSchedParams()
	params.DefaultClass = "bogus"
	New(sim.NewEngine(1), hw.SmallNode(), params)
}

func TestFIFORunsToBlock(t *testing.T) {
	// Two CPU hogs under SCHED_FIFO on one core: no slice expiry, so the
	// first to dispatch runs its full compute before the second starts.
	eng, k := testKernelClass(t, "fifo")
	p := k.NewProcess("app")
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		k.SpawnThread(p, "w", func(th *Thread) {
			th.Compute(100 * sim.Millisecond)
			ends = append(ends, eng.Now())
		})
	}
	run(t, eng)
	if len(ends) != 2 {
		t.Fatalf("completions = %d", len(ends))
	}
	if ends[0] != sim.Time(100*sim.Millisecond) || ends[1] != sim.Time(200*sim.Millisecond) {
		t.Fatalf("ends = %v, want strictly serial 100ms/200ms (run-to-block)", ends)
	}
	if k.Stats.Preemptions != 0 {
		t.Fatalf("Preemptions = %d, want 0 under FIFO", k.Stats.Preemptions)
	}
}

func TestFIFOQueuedWorkIsStolen(t *testing.T) {
	// Run-to-block must still be work-conserving across cores: queued
	// FIFO threads are pulled by idle cores (rt pull balancing).
	cfg := hw.SmallNode()
	cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
	eng := sim.NewEngine(1)
	params := DefaultSchedParams()
	params.DefaultClass = "fifo"
	k := New(eng, cfg, params) // 8 cores
	p := k.NewProcess("app")
	var latest sim.Time
	for i := 0; i < 8; i++ {
		k.SpawnThread(p, "w", func(th *Thread) {
			th.Compute(10 * sim.Millisecond)
			if eng.Now() > latest {
				latest = eng.Now()
			}
		})
	}
	run(t, eng)
	if latest != sim.Time(10*sim.Millisecond) {
		t.Fatalf("makespan %v, want 10ms (FIFO must spread over idle cores)", latest)
	}
}

func TestBatchSharesFairlyWithLongerSlices(t *testing.T) {
	// Two batch hogs on one core still time-share (vruntime fairness)
	// but with far fewer preemptions than the fair class would incur.
	fairRun := func(class string) (int64, []sim.Time) {
		eng, k := testKernelClass(t, class)
		p := k.NewProcess("app")
		var ends []sim.Time
		for i := 0; i < 2; i++ {
			k.SpawnThread(p, "w", func(th *Thread) {
				th.Compute(200 * sim.Millisecond)
				ends = append(ends, eng.Now())
			})
		}
		run(t, eng)
		return k.Stats.Preemptions, ends
	}
	fairPre, fairEnds := fairRun("fair")
	batchPre, batchEnds := fairRun("batch")
	for _, ends := range [][]sim.Time{fairEnds, batchEnds} {
		if len(ends) != 2 || ends[1] != sim.Time(400*sim.Millisecond) {
			t.Fatalf("ends = %v, want second finisher at 400ms", ends)
		}
		if ends[0] >= sim.Time(400*sim.Millisecond) || ends[0] <= sim.Time(200*sim.Millisecond) {
			t.Fatalf("ends = %v: hogs did not time-share", ends)
		}
	}
	if batchPre == 0 {
		t.Fatal("batch hogs never preempted: slices should still expire")
	}
	if batchPre*2 > fairPre {
		t.Fatalf("batch preemptions %d not well below fair %d (longer slices)", batchPre, fairPre)
	}
}

func TestBatchWakeupDoesNotPreempt(t *testing.T) {
	// A waking batch thread never kicks the current batch thread; a
	// waking fair thread with a sleeper-bonus vruntime deficit does. The
	// wake lands 5ms into the hog's slice (inside both classes' slices),
	// so only fair's wake-up preemption lets the waker finish early;
	// under batch it waits out the hog's long slice.
	probe := func(class string) sim.Time {
		eng, k := testKernelClass(t, class)
		p := k.NewProcess("app")
		var wakerDone sim.Time
		k.SpawnThread(p, "sleeper", func(th *Thread) {
			th.Nanosleep(5 * sim.Millisecond)
			th.Compute(1 * sim.Millisecond)
			wakerDone = eng.Now()
		})
		k.SpawnThread(p, "hog", func(th *Thread) {
			th.Compute(300 * sim.Millisecond)
		})
		run(t, eng)
		return wakerDone
	}
	fairDone := probe("fair")
	batchDone := probe("batch")
	if batchDone <= fairDone {
		t.Fatalf("batch waker finished at %v, fair at %v: batch wake-up should not preempt promptly",
			batchDone, fairDone)
	}
}

func TestSetClassRequeuesAndRejectsUnknown(t *testing.T) {
	eng, k := testKernelClass(t, "fair")
	p := k.NewProcess("app")
	k.SpawnThread(p, "w", func(th *Thread) {
		if err := th.SetClass("bogus"); err == nil {
			t.Error("SetClass(bogus) did not error")
		}
		if th.ClassName() != "fair" {
			t.Errorf("class = %s after failed SetClass, want fair", th.ClassName())
		}
		if err := th.SetClass("batch"); err != nil {
			t.Errorf("SetClass(batch): %v", err)
		}
		if th.ClassName() != "batch" {
			t.Errorf("class = %s, want batch", th.ClassName())
		}
		th.Compute(1 * sim.Millisecond)
	})
	run(t, eng)
}

func TestSetClassMovesQueuedThread(t *testing.T) {
	// A runnable (queued) thread changing class must move between the
	// class runqueues, or later dequeue/pick operations corrupt state.
	eng, k := testKernelClass(t, "fair")
	p := k.NewProcess("app")
	var victim *Thread
	victim = k.SpawnThread(p, "victim", func(th *Thread) {
		th.Compute(30 * sim.Millisecond)
	})
	k.SpawnThread(p, "hog", func(th *Thread) {
		th.Compute(30 * sim.Millisecond)
	})
	// While the victim sits queued behind the hog on the single core,
	// flip its class from event context.
	eng.After(1*sim.Millisecond, func() {
		if victim.State() == ThreadRunnable && victim.CurrentCore() < 0 {
			if err := victim.SetClass("fifo"); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, eng)
	if victim.State() != ThreadExited {
		t.Fatalf("victim state = %v, want exited", victim.State())
	}
}

func TestRRQuantumRenewedWithoutEqualPriorityWaiter(t *testing.T) {
	// An RR thread whose only rt competitor has lower priority keeps
	// renewing its quantum at each expiry and runs to completion first.
	// Regression: this path used to re-arm a timer in the past and
	// live-lock the event loop.
	eng, k := testKernelClass(t, "fair")
	p := k.NewProcess("app")
	var loDone, hiDone sim.Time
	k.SpawnThread(p, "rt-lo", func(th *Thread) {
		th.SetRR(1)
		th.Nanosleep(10 * sim.Millisecond) // wake into hi's first quantum
		th.Compute(30 * sim.Millisecond)
		loDone = eng.Now()
	})
	k.SpawnThread(p, "rt-hi", func(th *Thread) {
		th.SetRR(5)
		th.Compute(250 * sim.Millisecond) // several RR quanta (100ms each)
		hiDone = eng.Now()
	})
	run(t, eng)
	if hiDone != sim.Time(250*sim.Millisecond) {
		t.Fatalf("high-prio RR finished at %v, want 250ms (quantum renewals, no round-robin with lower prio)", hiDone)
	}
	if loDone != sim.Time(280*sim.Millisecond) {
		t.Fatalf("low-prio RR finished at %v, want 280ms", loDone)
	}
	if k.Stats.Preemptions != 0 {
		t.Fatalf("Preemptions = %d, want 0 (renewals, not requeues)", k.Stats.Preemptions)
	}
}

func TestFairWithOnlyBatchQueuedDoesNotChurn(t *testing.T) {
	// A fair thread whose only queued competitor is a batch thread must
	// not self-preempt every slice: batch ranks below fair, so the pick
	// would return the same fair thread. Regression: slice timers used
	// to arm against any non-empty queue, inflating Preemptions.
	eng, k := testKernelClass(t, "fair")
	p := k.NewProcess("app")
	var fairDone, batchDone sim.Time
	k.SpawnThread(p, "bg", func(th *Thread) {
		th.SetBatch()
		th.Nanosleep(1 * sim.Millisecond) // requeue as batch behind the hog
		th.Compute(50 * sim.Millisecond)
		batchDone = eng.Now()
	})
	k.SpawnThread(p, "fair-hog", func(th *Thread) {
		th.Compute(200 * sim.Millisecond)
		fairDone = eng.Now()
	})
	run(t, eng)
	if fairDone != sim.Time(200*sim.Millisecond) {
		t.Fatalf("fair hog finished at %v, want 200ms uninterrupted", fairDone)
	}
	if batchDone != sim.Time(250*sim.Millisecond) {
		t.Fatalf("batch finished at %v, want 250ms (after the fair hog)", batchDone)
	}
	if k.Stats.Preemptions != 0 {
		t.Fatalf("Preemptions = %d, want 0 (no fair self-preempt churn)", k.Stats.Preemptions)
	}
}
