package matmul

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stack"
)

// smallCfg returns a fast configuration for the 16-core machine.
func smallCfg(mode stack.Mode, ts, ompThreads int) Config {
	return Config{
		Mode:       mode,
		N:          2048,
		TaskSize:   ts,
		OMPThreads: ompThreads,
		Reps:       1,
		Horizon:    2 * sim.Second,
	}
}

// run executes cfg on a fresh 16-core system seeded 1.
func run(cfg Config) Result { return Run(stack.New(hw.DualSocket16(), 1), cfg) }

func TestBaselineCompletes(t *testing.T) {
	res := run(smallCfg(stack.ModeBaseline, 512, 2))
	if res.TimedOut {
		t.Fatal("baseline run timed out")
	}
	if res.GFLOPS <= 0 {
		t.Fatal("no throughput recorded")
	}
}

func TestCoopCompletes(t *testing.T) {
	res := run(smallCfg(stack.ModeCoop, 512, 2))
	if res.TimedOut {
		t.Fatal("coop run timed out")
	}
	if res.GFLOPS <= 0 {
		t.Fatal("no throughput recorded")
	}
}

func TestManualCompletes(t *testing.T) {
	res := run(smallCfg(stack.ModeManual, 512, 2))
	if res.TimedOut || res.GFLOPS <= 0 {
		t.Fatalf("manual run failed: %+v", res)
	}
}

func TestCoopReducesPreemptionsUnderOversubscription(t *testing.T) {
	// 16 cores, 4x4 blocks * 8 OMP threads => up to 128 busy threads.
	base := run(smallCfg(stack.ModeBaseline, 512, 8))
	coop := run(smallCfg(stack.ModeCoop, 512, 8))
	if base.TimedOut || coop.TimedOut {
		t.Fatalf("timeouts: base=%v coop=%v", base.TimedOut, coop.TimedOut)
	}
	if coop.Preemptions*2 >= base.Preemptions+2 {
		t.Fatalf("preemptions coop=%d baseline=%d; SCHED_COOP must slash them",
			coop.Preemptions, base.Preemptions)
	}
}

func TestOriginalWorstUnderHeavyOversubscription(t *testing.T) {
	// The Original stack (no yield in busy-wait barriers) must be
	// clearly slower than Baseline when oversubscribed (Fig. 3d).
	orig := run(smallCfg(stack.ModeOriginal, 256, 8))
	base := run(smallCfg(stack.ModeBaseline, 256, 8))
	if base.TimedOut {
		t.Fatal("baseline timed out")
	}
	if !orig.TimedOut && orig.GFLOPS >= base.GFLOPS {
		t.Fatalf("original %.1f >= baseline %.1f GFLOPS; busy-wait collapse missing",
			orig.GFLOPS, base.GFLOPS)
	}
}

func TestUnderusedRegionInsensitive(t *testing.T) {
	// Lower-left of Fig. 3: fewer threads than cores => all modes are
	// roughly equal (speedup ~1.0).
	base := run(smallCfg(stack.ModeBaseline, 1024, 2))
	coop := run(smallCfg(stack.ModeCoop, 1024, 2))
	if base.TimedOut || coop.TimedOut {
		t.Fatal("timeout in underused config")
	}
	ratio := coop.GFLOPS / base.GFLOPS
	if ratio < 0.85 || ratio > 1.2 {
		t.Fatalf("underused speedup = %.2f, want ~1.0", ratio)
	}
}

func TestMaxParallelTasksLabel(t *testing.T) {
	c := Config{N: 32768, TaskSize: 16384}
	if c.MaxParallelTasks() != 4 {
		t.Fatalf("MaxParallelTasks = %d, want 4", c.MaxParallelTasks())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := run(smallCfg(stack.ModeCoop, 512, 4))
	b := run(smallCfg(stack.ModeCoop, 512, 4))
	if a.GFLOPS != b.GFLOPS || a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}
