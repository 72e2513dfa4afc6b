// Package blas models OpenBLAS and BLIS: dense kernels (dgemm, dpotrf,
// dtrsm, dsyrk) whose cost comes from a flops model, executed by an
// internal thread team. Two properties matter to the paper and are
// reproduced here:
//
//   - both libraries synchronise their teams with custom busy-wait
//     barriers (not glibc primitives), which melt down under
//     oversubscription unless patched with a one-line sched_yield
//     (§5.2/§5.3 — the Original vs Baseline distinction);
//   - the backend differs: OpenBLAS/BLIS-with-OpenMP reuse runtime
//     threads, while BLIS's raw pthread backend creates and destroys a
//     team per call (§5.4 — what makes glibcv's thread cache worth 4x).
package blas

import (
	"fmt"

	"repro/internal/glibc"
	"repro/internal/kernel"
	"repro/internal/rt/omp"
	"repro/internal/rt/spin"
	"repro/internal/sim"
)

// Impl selects the library implementation.
type Impl int

// Implementations.
const (
	OpenBLAS Impl = iota
	BLIS
)

func (i Impl) String() string {
	if i == OpenBLAS {
		return "openblas"
	}
	return "blis"
}

// Backend selects how the library parallelises internally.
type Backend int

// Backends.
const (
	// BackendOpenMP parallelises kernels with an OpenMP runtime
	// (threads are reused across calls).
	BackendOpenMP Backend = iota
	// BackendPthread creates a fresh pthread team per kernel call and
	// destroys it afterwards (BLIS's raw pthread backend).
	BackendPthread
)

func (b Backend) String() string {
	if b == BackendOpenMP {
		return "openmp"
	}
	return "pthread"
}

// Config describes one process's BLAS library build.
type Config struct {
	Impl    Impl
	Backend Backend
	// Threads is the kernel team width (OPENBLAS_NUM_THREADS /
	// BLIS_NUM_THREADS).
	Threads int
	// OMP is the OpenMP runtime used by BackendOpenMP.
	OMP *omp.Runtime
	// YieldInBarrier applies the paper's one-line sched_yield patch to
	// the internal busy-wait barrier. Off = the "Original" stack.
	YieldInBarrier bool
	// BlockingBarrier replaces the busy-wait barrier with blocking
	// primitives entirely — the "Manual" nOS-V integration of §5.3.
	BlockingBarrier bool
	// Efficiency is the fraction of per-core peak the kernel sustains
	// on large inputs (defaults to 0.85).
	Efficiency float64
	// BWPerThread adds a memory-bandwidth demand (bytes/ns) per team
	// thread, used by bandwidth-bound callers (DeePMD inference).
	BWPerThread float64
}

const (
	// phases is the number of internal panel phases per kernel (each
	// ends at the custom barrier). 2 matches the GotoBLAS structure.
	phases = 2
	// footprintPerThread sizes the cache working set per thread for
	// the migration/pollution model.
	footprintPerThread = 1 << 20
)

// Lib is a configured BLAS library inside one process.
type Lib struct {
	lib *glibc.Lib
	cfg Config

	Calls int64
}

// New returns a BLAS library instance.
func New(l *glibc.Lib, cfg Config) *Lib {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Efficiency <= 0 {
		cfg.Efficiency = 0.85
	}
	if cfg.Backend == BackendOpenMP && cfg.OMP == nil {
		cfg.OMP = omp.New(l, omp.Config{NumThreads: cfg.Threads, WaitPolicy: omp.WaitPassive})
	}
	return &Lib{lib: l, cfg: cfg}
}

// Config returns the library configuration.
func (b *Lib) Config() Config { return b.cfg }

// Dgemm multiplies an (m x k) by a (k x n) matrix: 2mnk flops.
func (b *Lib) Dgemm(m, n, k int) {
	b.kernel(2*float64(m)*float64(n)*float64(k), min(m, n, k))
}

// Dsyrk computes C = A*Aᵀ updates: n²k flops.
func (b *Lib) Dsyrk(n, k int) {
	b.kernel(float64(n)*float64(n)*float64(k), min(n, k))
}

// Dtrsm solves a triangular system with an (m x m) factor against n
// right-hand sides: m²n flops.
func (b *Lib) Dtrsm(m, n int) {
	b.kernel(float64(m)*float64(m)*float64(n), min(m, n))
}

// Dpotrf factorises an (n x n) SPD matrix: n³/3 flops.
func (b *Lib) Dpotrf(n int) {
	b.kernel(float64(n)*float64(n)*float64(n)/3, n)
}

// KernelWork executes a synthetic parallel kernel whose total single-core
// compute time is w, with the library's usual team, phase, and barrier
// structure. Calibrated workloads (the inference profiles of §5.5, the
// DeePMD force kernels of §5.6) use this instead of inverting the flops
// model.
func (b *Lib) KernelWork(w sim.Duration) {
	b.Calls++
	threads := b.cfg.Threads
	per := sim.Duration(float64(w) / float64(threads) / phases)
	b.runTeam(threads, per)
}

// kernel executes a parallel BLAS kernel of the given flop count.
func (b *Lib) kernel(flops float64, dim int) {
	b.Calls++
	threads := b.cfg.Threads
	if threads > dim {
		threads = dim
		if threads < 1 {
			threads = 1
		}
	}
	b.runTeam(threads, b.perThreadTime(flops, threads, dim))
}

// runTeam executes the library's team structure: each of the threads
// performs phases rounds of per-phase compute separated by the internal
// barrier, on the configured backend.
func (b *Lib) runTeam(threads int, perPhase sim.Duration) {
	opts := kernel.ComputeOpts{BW: b.cfg.BWPerThread, Footprint: footprintPerThread}
	if threads <= 1 {
		b.lib.ComputeOpts(perPhase*phases, opts)
		return
	}
	var gb *glibc.Barrier
	var sb *spin.Barrier
	if b.cfg.BlockingBarrier {
		// The "Manual" stack (§5.3): the busy-wait barrier is replaced
		// with direct nOS-V blocking primitives (here: the glibc
		// barrier, which under glibcv is the task-queue barrier).
		gb = b.lib.NewBarrier(threads)
	} else {
		sb = spin.NewBarrier(b.lib, threads, b.cfg.YieldInBarrier)
	}
	body := func(tid int) {
		for ph := 0; ph < phases; ph++ {
			b.lib.ComputeOpts(perPhase, opts)
			if gb != nil {
				gb.Wait()
			} else {
				sb.Wait()
			}
		}
	}
	switch b.cfg.Backend {
	case BackendOpenMP:
		b.cfg.OMP.Parallel(threads, func(tid, nth int) { body(tid) })
	case BackendPthread:
		// A fresh team per call, destroyed afterwards.
		pts := make([]*glibc.Pthread, 0, threads-1)
		for i := 1; i < threads; i++ {
			i := i
			pts = append(pts, b.lib.PthreadCreate(
				fmt.Sprintf("blis-pth-%d", i), func() { body(i) }))
		}
		body(0)
		for _, pt := range pts {
			b.lib.PthreadJoin(pt)
		}
	}
}

// perThreadTime converts a kernel's flops into per-thread, per-phase
// compute time. Efficiency degrades on small blocks (fine-grained kernels
// pay relatively more overhead, §5.2's granularity discussion).
func (b *Lib) perThreadTime(flops float64, threads, dim int) sim.Duration {
	eff := b.cfg.Efficiency
	switch {
	case dim < 64:
		eff *= 0.25
	case dim < 128:
		eff *= 0.45
	case dim < 256:
		eff *= 0.65
	case dim < 512:
		eff *= 0.85
	}
	gflops := b.lib.K.HW.CoreGFLOPS * eff
	total := flops / gflops // ns at one core
	per := total / float64(threads) / phases
	// Parallelisation overhead: partition + pack per phase.
	per += 2000 * float64(threads) / 8
	return sim.Duration(per)
}
