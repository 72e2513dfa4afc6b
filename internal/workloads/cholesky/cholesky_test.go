package cholesky

import (
	"testing"

	"repro/internal/blas"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stack"
)

func smallCfg(mode stack.Mode, outer OuterKind, inner InnerKind, impl blas.Impl, ot, it int) Config {
	return Config{
		Mode:         mode,
		N:            4096,
		TileSize:     512,
		Outer:        outer,
		Inner:        inner,
		Impl:         impl,
		OuterThreads: ot,
		InnerThreads: it,
		Horizon:      5 * sim.Second,
	}
}

// run executes cfg on a fresh 16-core system seeded 1.
func run(cfg Config) Result { return Run(stack.New(hw.DualSocket16(), 1), cfg) }

func TestAllCompositionsComplete(t *testing.T) {
	combos := []struct {
		outer OuterKind
		inner InnerKind
		impl  blas.Impl
	}{
		{OuterGnu, InnerLlvm, blas.OpenBLAS},
		{OuterTbb, InnerLlvm, blas.OpenBLAS},
		{OuterTbb, InnerGnu, blas.BLIS},
		{OuterTbb, InnerPth, blas.BLIS},
		{OuterGnu, InnerPth, blas.BLIS},
	}
	for _, c := range combos {
		for _, mode := range []stack.Mode{stack.ModeBaseline, stack.ModeCoop} {
			cfg := smallCfg(mode, c.outer, c.inner, c.impl, 4, 4)
			res := run(cfg)
			if res.TimedOut || res.GFLOPS <= 0 {
				t.Fatalf("%s mode=%v: %+v", cfg.Label(), mode, res)
			}
		}
	}
}

func TestCoopBeatsBaselineOnPthreadBackendOversubscribed(t *testing.T) {
	// Table 2's key row: tbb/pth/blis at high oversubscription, where
	// thread churn plus preemption hurts the baseline most and glibcv's
	// thread cache shines.
	base := run(smallCfg(stack.ModeBaseline, OuterTbb, InnerPth, blas.BLIS, 8, 8))
	coop := run(smallCfg(stack.ModeCoop, OuterTbb, InnerPth, blas.BLIS, 8, 8))
	if base.TimedOut || coop.TimedOut {
		t.Fatalf("timeouts: base=%v coop=%v", base.TimedOut, coop.TimedOut)
	}
	if coop.GFLOPS <= base.GFLOPS {
		t.Fatalf("coop %.1f <= baseline %.1f GFLOPS on churny pth backend", coop.GFLOPS, base.GFLOPS)
	}
	if coop.CacheHits == 0 {
		t.Fatal("no thread-cache hits; pth backend must exercise the cache")
	}
}

func TestLabel(t *testing.T) {
	cfg := smallCfg(stack.ModeBaseline, OuterTbb, InnerPth, blas.BLIS, 4, 4)
	if cfg.Label() != "tbb/pth/blis" {
		t.Fatalf("Label = %q", cfg.Label())
	}
	cfg2 := smallCfg(stack.ModeBaseline, OuterGnu, InnerLlvm, blas.OpenBLAS, 4, 4)
	if cfg2.Label() != "gnu/llvm/opb" {
		t.Fatalf("Label = %q", cfg2.Label())
	}
}

func TestMildDegreeNearParity(t *testing.T) {
	// Mild oversubscription (paper: 1.14 threads/core -> ~1.1x):
	// speedup should be modest.
	base := run(smallCfg(stack.ModeBaseline, OuterTbb, InnerLlvm, blas.OpenBLAS, 4, 4))
	coop := run(smallCfg(stack.ModeCoop, OuterTbb, InnerLlvm, blas.OpenBLAS, 4, 4))
	if base.TimedOut || coop.TimedOut {
		t.Fatal("timeout")
	}
	ratio := coop.GFLOPS / base.GFLOPS
	if ratio < 0.8 || ratio > 2.5 {
		t.Fatalf("mild-degree speedup = %.2f, want modest (~1.x)", ratio)
	}
}
