package ompss

import (
	"testing"

	"repro/internal/glibc"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func runApp(t *testing.T, cores int, usf bool, app func(l *glibc.Lib)) *kernel.Kernel {
	t.Helper()
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = cores
	cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	if _, err := glibc.StartProcess(k, "app", glibc.Options{USF: usf}, app); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	for _, usf := range []bool{false, true} {
		var makespan sim.Time
		k := runApp(t, 4, usf, func(l *glibc.Lib) {
			r := New(l, Config{Workers: 4})
			for i := 0; i < 4; i++ {
				r.Task(Deps{}, func() { l.Compute(10 * sim.Millisecond) })
			}
			r.Taskwait()
			makespan = l.K.Eng.Now()
			r.Shutdown()
		})
		_ = k
		// 4 independent 10ms tasks on 4 cores: makespan near 10ms (some
		// creation overhead allowed).
		if makespan > sim.Time(14*sim.Millisecond) {
			t.Fatalf("usf=%v makespan = %v, want ~10ms (parallel)", usf, makespan)
		}
	}
}

func TestInOutDependencyOrdering(t *testing.T) {
	var order []string
	runApp(t, 4, false, func(l *glibc.Lib) {
		r := New(l, Config{Workers: 4})
		key := "C[0][0]"
		for i := 0; i < 4; i++ {
			name := string(rune('a' + i))
			r.Task(Deps{InOut: []any{key}}, func() {
				l.Compute(1 * sim.Millisecond)
				order = append(order, name)
			})
		}
		r.Taskwait()
		r.Shutdown()
	})
	want := []string{"a", "b", "c", "d"}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("inout chain order = %v, want %v", order, want)
		}
	}
}

func TestReadersRunConcurrentlyWriterWaits(t *testing.T) {
	var events []string
	runApp(t, 4, false, func(l *glibc.Lib) {
		r := New(l, Config{Workers: 4})
		key := "A"
		r.Task(Deps{Out: []any{key}}, func() {
			l.Compute(2 * sim.Millisecond)
			events = append(events, "write1")
		})
		for i := 0; i < 2; i++ {
			r.Task(Deps{In: []any{key}}, func() {
				l.Compute(2 * sim.Millisecond)
				events = append(events, "read")
			})
		}
		r.Task(Deps{InOut: []any{key}}, func() {
			l.Compute(1 * sim.Millisecond)
			events = append(events, "write2")
		})
		r.Taskwait()
		r.Shutdown()
	})
	if len(events) != 4 {
		t.Fatalf("events = %v", events)
	}
	if events[0] != "write1" {
		t.Fatalf("first = %q, want write1", events[0])
	}
	if events[3] != "write2" {
		t.Fatalf("last = %q, want write2 (WAR on both readers)", events[3])
	}
}

func TestTaskwaitBlocksUntilAllDone(t *testing.T) {
	var doneAt, waitedAt sim.Time
	runApp(t, 2, false, func(l *glibc.Lib) {
		r := New(l, Config{Workers: 2})
		r.Task(Deps{}, func() {
			l.Compute(8 * sim.Millisecond)
			doneAt = l.K.Eng.Now()
		})
		r.Taskwait()
		waitedAt = l.K.Eng.Now()
		r.Shutdown()
	})
	if waitedAt < doneAt {
		t.Fatalf("taskwait returned at %v before task done at %v", waitedAt, doneAt)
	}
}

func TestTaskwaitOnEmptyRuntimeReturns(t *testing.T) {
	runApp(t, 2, false, func(l *glibc.Lib) {
		r := New(l, Config{Workers: 2})
		r.Taskwait() // must not block
		r.Shutdown()
	})
}

func TestTasksSubmittingTasks(t *testing.T) {
	// Nested creation: a task spawns more tasks (the matmul pattern has
	// the main thread do this, but workers may too).
	total := 0
	runApp(t, 4, false, func(l *glibc.Lib) {
		r := New(l, Config{Workers: 4})
		r.Task(Deps{}, func() {
			l.Compute(1 * sim.Millisecond)
			for i := 0; i < 3; i++ {
				r.Task(Deps{}, func() {
					l.Compute(1 * sim.Millisecond)
					total++
				})
			}
			total++
		})
		r.Taskwait()
		r.Shutdown()
	})
	if total != 4 {
		t.Fatalf("total = %d, want 4", total)
	}
}

func TestManyTasksDependencyDiamond(t *testing.T) {
	// a -> (b, c) -> d over two regions.
	var order []string
	runApp(t, 4, false, func(l *glibc.Lib) {
		r := New(l, Config{Workers: 4})
		r.Task(Deps{Out: []any{"x", "y"}}, func() {
			l.Compute(1 * sim.Millisecond)
			order = append(order, "a")
		})
		r.Task(Deps{In: []any{"x"}, Out: []any{"bx"}}, func() {
			l.Compute(1 * sim.Millisecond)
			order = append(order, "b")
		})
		r.Task(Deps{In: []any{"y"}, Out: []any{"cy"}}, func() {
			l.Compute(2 * sim.Millisecond)
			order = append(order, "c")
		})
		r.Task(Deps{In: []any{"bx", "cy"}}, func() {
			l.Compute(1 * sim.Millisecond)
			order = append(order, "d")
		})
		r.Taskwait()
		r.Shutdown()
	})
	if len(order) != 4 || order[0] != "a" || order[3] != "d" {
		t.Fatalf("diamond order = %v", order)
	}
}

func TestStarvedWorkersBlockAndWake(t *testing.T) {
	for _, usf := range []bool{false, true} {
		runApp(t, 4, usf, func(l *glibc.Lib) {
			r := New(l, Config{Workers: 2})
			done := 0
			r.Task(Deps{}, func() { l.Compute(500 * sim.Microsecond); done++ })
			r.Taskwait()
			// Workers block as soon as they starve: beyond the task,
			// each pays only its startup and block, never a spin.
			l.Compute(10 * sim.Microsecond)
			cpu := make([]sim.Duration, len(r.workers))
			var total sim.Duration
			for i, w := range r.workers {
				if !w.blocked || w.pt.KT.State() != kernel.ThreadBlocked {
					t.Errorf("usf=%v: worker %d not blocked after its queue drained", usf, i)
				}
				cpu[i] = w.pt.KT.CPUTime
				total += cpu[i]
			}
			if over := total - 500*sim.Microsecond; over > 20*sim.Microsecond*sim.Duration(len(cpu)) {
				t.Errorf("usf=%v: workers charged %v beyond their 500µs task", usf, over)
			}
			// An idle gap charges them nothing.
			l.Compute(10 * sim.Millisecond)
			for i, w := range r.workers {
				if got := w.pt.KT.CPUTime; got != cpu[i] {
					t.Errorf("usf=%v: worker %d charged %v while idle", usf, i, got-cpu[i])
				}
			}
			// The next task still wakes a worker.
			start := l.K.Eng.Now()
			r.Task(Deps{}, func() { l.Compute(500 * sim.Microsecond); done++ })
			r.Taskwait()
			if done != 2 {
				t.Errorf("usf=%v: done = %d, want 2", usf, done)
			}
			if d := l.K.Eng.Now().Sub(start); d > sim.Millisecond {
				t.Errorf("usf=%v: woken task took %v", usf, d)
			}
			r.Shutdown()
		})
	}
}
