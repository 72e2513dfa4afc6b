// Package matmul reproduces the paper's §5.3 nested-runtime matrix
// multiplication (Listing 2): an OmpSs-2 outer runtime creates one task
// per block triple, each task calling a BLIS dgemm parallelised with
// LLVM's OpenMP — the composition whose oversubscription behaviour Fig. 3
// maps out.
package matmul

import (
	"repro/internal/blas"
	"repro/internal/glibc"
	"repro/internal/rt/omp"
	"repro/internal/rt/ompss"
	"repro/internal/sim"
	"repro/internal/stack"
)

// Config parameterises one matmul run. The machine, seed, kernel
// class, SCHED_COOP tuning and tracer belong to the System it runs on.
type Config struct {
	Mode stack.Mode
	// N is the matrix dimension; TaskSize the block size (paper: N =
	// 32768; the scaled default is 8192).
	N, TaskSize int
	// OMPThreads is the inner (BLIS/OpenMP) team width.
	OMPThreads int
	// Reps repeats the whole multiplication (the paper loops >= 60 s).
	Reps int
	// Horizon aborts the run (the paper's 15-minute timeout; white
	// squares in Fig. 3).
	Horizon sim.Duration
}

// Result reports one run.
type Result struct {
	// GFLOPS is the achieved rate (the paper's MOPS/s metric up to a
	// constant; see the scaling note in README.md).
	GFLOPS   float64
	Elapsed  sim.Duration
	TimedOut bool
	// Kernel counters for interference analysis.
	Preemptions     int64
	ContextSwitches int64
	Migrations      int64
}

// regionKey names a matrix block for the dependency tracker.
type regionKey struct {
	m    byte
	i, j int
}

// MaxParallelTasks returns the paper's "max parallel tasks" label value
// for a configuration: (N/TS)².
func (c Config) MaxParallelTasks() int {
	nb := c.N / c.TaskSize
	return nb * nb
}

// Run executes one matmul configuration on sys, a fresh system the run
// drives to completion (the Nanos6 pool spans all of its cores).
func Run(sys *stack.System, cfg Config) Result {
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	var elapsed sim.Duration
	finished := false

	_, err := sys.Start("matmul", cfg.Mode, glibc.Options{}, func(l *glibc.Lib) {
		nb := cfg.N / cfg.TaskSize
		outer := ompss.New(l, ompss.Config{Workers: l.K.NumCores()})
		inner := omp.New(l, omp.Config{
			Flavor:     omp.Libomp,
			NumThreads: cfg.OMPThreads,
			WaitPolicy: omp.WaitPassive,
		})
		b := blas.New(l, blas.Config{
			Impl:            blas.BLIS,
			Backend:         blas.BackendOpenMP,
			OMP:             inner,
			Threads:         cfg.OMPThreads,
			YieldInBarrier:  cfg.Mode.YieldInBarrier(),
			BlockingBarrier: cfg.Mode.BlockingBarrier(),
		})
		start := l.K.Eng.Now()
		ts := cfg.TaskSize
		for rep := 0; rep < cfg.Reps; rep++ {
			for k := 0; k < nb; k++ {
				for i := 0; i < nb; i++ {
					for j := 0; j < nb; j++ {
						outer.Task(ompss.Deps{
							InOut: []any{regionKey{'C', i, j}},
							In:    []any{regionKey{'A', i, k}, regionKey{'B', k, j}},
						}, func() { b.Dgemm(ts, ts, ts) })
					}
				}
			}
			outer.Taskwait()
		}
		elapsed = l.K.Eng.Now().Sub(start)
		outer.Shutdown()
		inner.Shutdown()
		finished = true
	})
	if err != nil {
		panic(err)
	}
	timedOut, err := sys.Run(cfg.Horizon)
	if err != nil {
		panic(err)
	}
	res := Result{
		TimedOut:        timedOut || !finished,
		Elapsed:         elapsed,
		Preemptions:     sys.K.Stats.Preemptions,
		ContextSwitches: sys.K.Stats.ContextSwitches,
		Migrations:      sys.K.Stats.Migrations,
	}
	if finished && elapsed > 0 {
		flops := float64(cfg.Reps) * 2 * float64(cfg.N) * float64(cfg.N) * float64(cfg.N)
		res.GFLOPS = flops / float64(elapsed)
	}
	return res
}
