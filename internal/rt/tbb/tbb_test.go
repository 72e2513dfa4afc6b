package tbb

import (
	"testing"

	"repro/internal/glibc"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func runApp(t *testing.T, cores int, app func(l *glibc.Lib)) {
	t.Helper()
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = cores
	cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	if _, err := glibc.StartProcess(k, "app", glibc.Options{}, app); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupRunWait(t *testing.T) {
	done := 0
	runApp(t, 4, func(l *glibc.Lib) {
		a := New(l, Config{Workers: 4})
		g := a.NewGroup()
		for i := 0; i < 8; i++ {
			g.Run(func() {
				l.Compute(1 * sim.Millisecond)
				done++
			})
		}
		g.Wait()
		if done != 8 {
			t.Errorf("done = %d at Wait return", done)
		}
		a.Shutdown()
	})
}

func TestParallelForCoversAll(t *testing.T) {
	covered := make([]bool, 64)
	runApp(t, 4, func(l *glibc.Lib) {
		a := New(l, Config{Workers: 4})
		a.ParallelFor(64, func(lo, hi int) {
			l.Compute(sim.Duration(hi-lo) * 10 * sim.Microsecond)
			for i := lo; i < hi; i++ {
				covered[i] = true
			}
		})
		a.Shutdown()
	})
	for i, c := range covered {
		if !c {
			t.Fatalf("iteration %d missed", i)
		}
	}
}

func TestLIFOOrderWhenSaturated(t *testing.T) {
	// With 1 worker, queued tasks run newest-first once the queue
	// builds up.
	var order []int
	runApp(t, 2, func(l *glibc.Lib) {
		a := New(l, Config{Workers: 1})
		g := a.NewGroup()
		// Block the single worker with a long task, then queue 3 more.
		g.Run(func() { l.Compute(5 * sim.Millisecond) })
		l.Compute(1 * sim.Millisecond) // let the worker pick it up
		for i := 0; i < 3; i++ {
			i := i
			g.Run(func() { order = append(order, i) })
		}
		g.Wait()
		a.Shutdown()
	})
	if len(order) != 3 || order[0] != 2 || order[2] != 0 {
		t.Fatalf("order = %v, want [2 1 0] (LIFO)", order)
	}
}

func TestGroupsIndependent(t *testing.T) {
	runApp(t, 4, func(l *glibc.Lib) {
		a := New(l, Config{Workers: 4})
		g1, g2 := a.NewGroup(), a.NewGroup()
		slow := false
		g1.Run(func() { l.Compute(100 * sim.Microsecond) })
		g2.Run(func() { l.Compute(20 * sim.Millisecond); slow = true })
		g1.Wait()
		if slow {
			t.Error("g1.Wait also waited for g2's task")
		}
		g2.Wait()
		if !slow {
			t.Error("g2.Wait returned early")
		}
		a.Shutdown()
	})
}

func TestStarvedWorkersBlockAndWake(t *testing.T) {
	runApp(t, 4, func(l *glibc.Lib) {
		a := New(l, Config{Workers: 2})
		g := a.NewGroup()
		done := 0
		g.Run(func() { l.Compute(500 * sim.Microsecond); done++ })
		g.Wait()
		// Workers block as soon as they starve: beyond the task, each
		// pays only its startup and block, never a spin.
		l.Compute(10 * sim.Microsecond)
		cpu := make([]sim.Duration, len(a.workers))
		var total sim.Duration
		for i, w := range a.workers {
			if !w.blocked || w.pt.KT.State() != kernel.ThreadBlocked {
				t.Errorf("worker %d not blocked after the stack drained", i)
			}
			cpu[i] = w.pt.KT.CPUTime
			total += cpu[i]
		}
		if over := total - 500*sim.Microsecond; over > 20*sim.Microsecond*sim.Duration(len(cpu)) {
			t.Errorf("workers charged %v beyond their 500µs task", over)
		}
		// An idle gap charges them nothing.
		l.Compute(10 * sim.Millisecond)
		for i, w := range a.workers {
			if got := w.pt.KT.CPUTime; got != cpu[i] {
				t.Errorf("worker %d charged %v while idle", i, got-cpu[i])
			}
		}
		// The next task still wakes a worker.
		start := l.K.Eng.Now()
		g.Run(func() { l.Compute(500 * sim.Microsecond); done++ })
		g.Wait()
		if done != 2 {
			t.Errorf("done = %d, want 2", done)
		}
		if d := l.K.Eng.Now().Sub(start); d > sim.Millisecond {
			t.Errorf("woken task took %v", d)
		}
		a.Shutdown()
	})
}
