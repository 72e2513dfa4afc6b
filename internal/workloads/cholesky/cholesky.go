// Package cholesky reproduces §5.4: a tiled Cholesky factorisation run
// under multiple runtime compositions — outer task runtime (GNU OpenMP
// tasks or oneTBB) × inner BLAS parallelism (LLVM OpenMP, GNU OpenMP, or a
// raw pthread backend) × BLAS implementation (OpenBLAS or BLIS) — at three
// oversubscription degrees (Table 2).
package cholesky

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/glibc"
	"repro/internal/rt/omp"
	"repro/internal/rt/ompss"
	"repro/internal/rt/tbb"
	"repro/internal/sim"
	"repro/internal/stack"
)

// OuterKind selects the outer task runtime.
type OuterKind int

// Outer runtimes (Table 2's "Out" column).
const (
	// OuterGnu models GNU OpenMP task+depend: a dependency-aware task
	// pool (shared engine with the OmpSs model; gomp-flavoured
	// overheads).
	OuterGnu OuterKind = iota
	// OuterTbb models a oneTBB arena driving wave-synchronised tiles.
	OuterTbb
)

func (o OuterKind) String() string {
	if o == OuterGnu {
		return "gnu"
	}
	return "tbb"
}

// InnerKind selects the BLAS library's internal parallelism.
type InnerKind int

// Inner backends (Table 2's "Inn" column).
const (
	InnerLlvm InnerKind = iota // LLVM OpenMP
	InnerGnu                   // GNU OpenMP
	InnerPth                   // raw pthread backend (BLIS)
)

func (i InnerKind) String() string {
	switch i {
	case InnerLlvm:
		return "llvm"
	case InnerGnu:
		return "gnu"
	}
	return "pth"
}

// Config parameterises one Cholesky run on the System it is given.
type Config struct {
	Mode stack.Mode
	// N is the matrix size, TileSize the block (paper: 32768 / 1024).
	N, TileSize int
	Outer       OuterKind
	Inner       InnerKind
	Impl        blas.Impl
	// OuterThreads x InnerThreads sets the oversubscription degree
	// (Mild 8x8, Medium 14x14, High 28x28 on the 112-core node).
	OuterThreads, InnerThreads int
	Horizon                    sim.Duration
}

// Label renders the composition like the paper's row labels.
func (c Config) Label() string {
	impl := "opb"
	if c.Impl == blas.BLIS {
		impl = "blis"
	}
	return fmt.Sprintf("%s/%s/%s", c.Outer, c.Inner, impl)
}

// Result reports one run.
type Result struct {
	GFLOPS   float64
	Elapsed  sim.Duration
	TimedOut bool
	// CacheHits counts glibcv pthread-cache reuse (the 4x effect on pth
	// backends).
	CacheHits int64
}

// tile identifies a matrix tile for the dependency tracker.
type tile struct{ i, j int }

// Run executes one Cholesky configuration on sys, a fresh system the
// run drives to completion.
func Run(sys *stack.System, cfg Config) Result {
	var elapsed sim.Duration
	var cacheHits int64
	finished := false

	_, err := sys.Start("cholesky", cfg.Mode, glibc.Options{}, func(l *glibc.Lib) {
		nb := cfg.N / cfg.TileSize
		ts := cfg.TileSize
		b := newBLAS(l, cfg)
		start := l.K.Eng.Now()
		switch cfg.Outer {
		case OuterGnu:
			runTaskBased(l, cfg, b, nb, ts)
		case OuterTbb:
			runWaveBased(l, cfg, b, nb, ts)
		}
		elapsed = l.K.Eng.Now().Sub(start)
		cacheHits = l.Stats.CacheHits
		if r := b.Config().OMP; r != nil {
			r.Shutdown()
		}
		finished = true
	})
	if err != nil {
		panic(err)
	}
	timedOut, err := sys.Run(cfg.Horizon)
	if err != nil {
		panic(err)
	}
	res := Result{TimedOut: timedOut || !finished, Elapsed: elapsed, CacheHits: cacheHits}
	if finished && elapsed > 0 {
		n := float64(cfg.N)
		res.GFLOPS = n * n * n / 3 / float64(elapsed)
	}
	return res
}

// newBLAS builds the inner BLAS per the composition.
func newBLAS(l *glibc.Lib, cfg Config) *blas.Lib {
	bc := blas.Config{
		Impl:            cfg.Impl,
		Threads:         cfg.InnerThreads,
		YieldInBarrier:  cfg.Mode.YieldInBarrier(),
		BlockingBarrier: cfg.Mode.BlockingBarrier(),
	}
	switch cfg.Inner {
	case InnerPth:
		bc.Backend = blas.BackendPthread
	case InnerLlvm:
		bc.Backend = blas.BackendOpenMP
		bc.OMP = omp.New(l, omp.Config{Flavor: omp.Libomp, NumThreads: cfg.InnerThreads, WaitPolicy: omp.WaitPassive})
	case InnerGnu:
		bc.Backend = blas.BackendOpenMP
		bc.OMP = omp.New(l, omp.Config{Flavor: omp.Gomp, NumThreads: cfg.InnerThreads, WaitPolicy: omp.WaitPassive})
	}
	if cfg.Impl == blas.BLIS {
		bc.Efficiency = 0.82 // BLIS sustains slightly less than OpenBLAS here
	}
	return blas.New(l, bc)
}

// runTaskBased is the dependency-driven variant (GNU OpenMP task depend,
// modelled on the shared task-dependency engine).
func runTaskBased(l *glibc.Lib, cfg Config, b *blas.Lib, nb, ts int) {
	outer := ompss.New(l, ompss.Config{Workers: cfg.OuterThreads})
	for k := 0; k < nb; k++ {
		k := k
		outer.Task(ompss.Deps{InOut: []any{tile{k, k}}}, func() { b.Dpotrf(ts) })
		for i := k + 1; i < nb; i++ {
			i := i
			outer.Task(ompss.Deps{
				In:    []any{tile{k, k}},
				InOut: []any{tile{i, k}},
			}, func() { b.Dtrsm(ts, ts) })
		}
		for i := k + 1; i < nb; i++ {
			i := i
			outer.Task(ompss.Deps{
				In:    []any{tile{i, k}},
				InOut: []any{tile{i, i}},
			}, func() { b.Dsyrk(ts, ts) })
			for j := k + 1; j < i; j++ {
				j := j
				outer.Task(ompss.Deps{
					In:    []any{tile{i, k}, tile{j, k}},
					InOut: []any{tile{i, j}},
				}, func() { b.Dgemm(ts, ts, ts) })
			}
		}
	}
	outer.Taskwait()
	outer.Shutdown()
}

// runWaveBased is the TBB variant: per factorisation step, the trailing
// update runs as a synchronised wave in the arena (coarse, barrier-style
// parallelism typical of TBB ports).
func runWaveBased(l *glibc.Lib, cfg Config, b *blas.Lib, nb, ts int) {
	arena := tbb.New(l, tbb.Config{Workers: cfg.OuterThreads})
	for k := 0; k < nb; k++ {
		b.Dpotrf(ts)
		g := arena.NewGroup()
		for i := k + 1; i < nb; i++ {
			g.Run(func() { b.Dtrsm(ts, ts) })
		}
		g.Wait()
		g2 := arena.NewGroup()
		for i := k + 1; i < nb; i++ {
			i := i
			g2.Run(func() { b.Dsyrk(ts, ts) })
			for j := k + 1; j < i; j++ {
				g2.Run(func() { b.Dgemm(ts, ts, ts) })
			}
		}
		g2.Wait()
	}
	arena.Shutdown()
}
