// Benchmarks regenerating every table and figure of the paper's
// evaluation section (one benchmark family per artefact), plus ablations
// of the simulator's main design choices. Each benchmark iteration
// runs a complete deterministic simulation; custom metrics report the
// simulated performance the paper plots (GFLOP/s, speedups, latency,
// Katom-step/s) alongside the usual host-side ns/op.
//
// Benches use shape-preserving scaled-down instances; `uschedsim` without
// -quick runs the full scaled sweeps.
package usched

import (
	"testing"

	"repro/internal/blas"
	"repro/internal/experiments"
	"repro/internal/glibc"
	"repro/internal/harness"
	"repro/internal/hw"
	"repro/internal/nosv"
	"repro/internal/rt/omp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/usf"
	"repro/internal/workloads/cholesky"
	"repro/internal/workloads/inference"
	"repro/internal/workloads/matmul"
	"repro/internal/workloads/md"
)

// --- Figure 3: nested-runtime matmul heatmaps -------------------------

// matmulCell is a bench matmul configuration; the benches run it on
// DualSocket16 at seed 3.
func matmulCell(mode stack.Mode, ts, ompThreads int) matmul.Config {
	return matmul.Config{
		Mode:       mode,
		N:          2048,
		TaskSize:   ts,
		OMPThreads: ompThreads,
		Reps:       1,
		Horizon:    10 * sim.Second,
	}
}

func benchMatmul(b *testing.B, mode stack.Mode, ts, threads int) {
	var last matmul.Result
	for i := 0; i < b.N; i++ {
		last = matmul.Run(stack.New(hw.DualSocket16(), 3), matmulCell(mode, ts, threads))
	}
	if !last.TimedOut {
		b.ReportMetric(last.GFLOPS, "sim-GFLOPS")
	}
	b.ReportMetric(float64(last.Preemptions), "sim-preemptions")
}

// Oversubscribed middle cell (the region the paper optimises).
func BenchmarkFigure3MatmulBaseline(b *testing.B) { benchMatmul(b, stack.ModeBaseline, 512, 8) }
func BenchmarkFigure3MatmulManual(b *testing.B)   { benchMatmul(b, stack.ModeManual, 512, 8) }
func BenchmarkFigure3MatmulCoop(b *testing.B)     { benchMatmul(b, stack.ModeCoop, 512, 8) }
func BenchmarkFigure3MatmulOriginal(b *testing.B) { benchMatmul(b, stack.ModeOriginal, 512, 8) }

// Underused corner (speedups ~1.0 expected).
func BenchmarkFigure3MatmulUnderusedBaseline(b *testing.B) {
	benchMatmul(b, stack.ModeBaseline, 1024, 2)
}
func BenchmarkFigure3MatmulUnderusedCoop(b *testing.B) { benchMatmul(b, stack.ModeCoop, 1024, 2) }

// --- Table 2: Cholesky runtime compositions ---------------------------

func choleskyCfg(mode stack.Mode, outer cholesky.OuterKind, inner cholesky.InnerKind, impl blas.Impl) cholesky.Config {
	return cholesky.Config{
		Mode:         mode,
		N:            4096,
		TileSize:     512,
		Outer:        outer,
		Inner:        inner,
		Impl:         impl,
		OuterThreads: 8,
		InnerThreads: 8,
		Horizon:      60 * sim.Second,
	}
}

func benchCholesky(b *testing.B, mode stack.Mode, outer cholesky.OuterKind, inner cholesky.InnerKind, impl blas.Impl) {
	var last cholesky.Result
	for i := 0; i < b.N; i++ {
		last = cholesky.Run(stack.New(hw.DualSocket16(), 5), choleskyCfg(mode, outer, inner, impl))
	}
	if !last.TimedOut {
		b.ReportMetric(last.GFLOPS, "sim-GFLOPS")
	}
}

func BenchmarkTable2CholeskyGnuLlvmOpbBaseline(b *testing.B) {
	benchCholesky(b, stack.ModeBaseline, cholesky.OuterGnu, cholesky.InnerLlvm, blas.OpenBLAS)
}
func BenchmarkTable2CholeskyGnuLlvmOpbCoop(b *testing.B) {
	benchCholesky(b, stack.ModeCoop, cholesky.OuterGnu, cholesky.InnerLlvm, blas.OpenBLAS)
}
func BenchmarkTable2CholeskyTbbLlvmOpbBaseline(b *testing.B) {
	benchCholesky(b, stack.ModeBaseline, cholesky.OuterTbb, cholesky.InnerLlvm, blas.OpenBLAS)
}
func BenchmarkTable2CholeskyTbbLlvmOpbCoop(b *testing.B) {
	benchCholesky(b, stack.ModeCoop, cholesky.OuterTbb, cholesky.InnerLlvm, blas.OpenBLAS)
}
func BenchmarkTable2CholeskyTbbGnuBlisBaseline(b *testing.B) {
	benchCholesky(b, stack.ModeBaseline, cholesky.OuterTbb, cholesky.InnerGnu, blas.BLIS)
}
func BenchmarkTable2CholeskyTbbGnuBlisCoop(b *testing.B) {
	benchCholesky(b, stack.ModeCoop, cholesky.OuterTbb, cholesky.InnerGnu, blas.BLIS)
}
func BenchmarkTable2CholeskyTbbPthBlisBaseline(b *testing.B) {
	benchCholesky(b, stack.ModeBaseline, cholesky.OuterTbb, cholesky.InnerPth, blas.BLIS)
}
func BenchmarkTable2CholeskyTbbPthBlisCoop(b *testing.B) {
	benchCholesky(b, stack.ModeCoop, cholesky.OuterTbb, cholesky.InnerPth, blas.BLIS)
}
func BenchmarkTable2CholeskyGnuPthBlisBaseline(b *testing.B) {
	benchCholesky(b, stack.ModeBaseline, cholesky.OuterGnu, cholesky.InnerPth, blas.BLIS)
}
func BenchmarkTable2CholeskyGnuPthBlisCoop(b *testing.B) {
	benchCholesky(b, stack.ModeCoop, cholesky.OuterGnu, cholesky.InnerPth, blas.BLIS)
}

// --- Figure 4: AI microservices ---------------------------------------

func microCfg(scheme inference.Scheme, rate float64) inference.Config {
	return inference.Config{
		Scheme:   scheme,
		Rate:     rate,
		Requests: 8,
		Batches:  4,
		Scale:    0.2,
		Models: []inference.Model{
			{Name: "llama", Work: 5770 * sim.Millisecond, SerialFrac: 0.06, Threads: 8, OptShare: 0.64},
			{Name: "gpt2", Work: 1010 * sim.Millisecond, SerialFrac: 0.06, Threads: 4, OptShare: 0.21},
			{Name: "roberta", Work: 676 * sim.Millisecond, SerialFrac: 0.06, Threads: 4, OptShare: 0.14},
		},
		Horizon: 4000 * sim.Second,
	}
}

func benchMicro(b *testing.B, scheme inference.Scheme, rate float64) {
	var last inference.Result
	for i := 0; i < b.N; i++ {
		last = inference.Run(stack.New(hw.DualSocket16(), 9), microCfg(scheme, rate))
	}
	if !last.TimedOut {
		b.ReportMetric(last.Stats.Mean.Seconds(), "sim-mean-latency-s")
		b.ReportMetric(last.Throughput, "sim-req/s")
	}
}

func BenchmarkFigure4MicroservicesBlNone(b *testing.B)    { benchMicro(b, inference.BlNone, 0.33) }
func BenchmarkFigure4MicroservicesBlEq(b *testing.B)      { benchMicro(b, inference.BlEq, 0.33) }
func BenchmarkFigure4MicroservicesBlOpt(b *testing.B)     { benchMicro(b, inference.BlOpt, 0.33) }
func BenchmarkFigure4MicroservicesBlNoneSeq(b *testing.B) { benchMicro(b, inference.BlNoneSeq, 0.33) }
func BenchmarkFigure4MicroservicesCoop(b *testing.B)      { benchMicro(b, inference.Coop, 0.33) }
func BenchmarkFigure4MicroservicesCoopHighRate(b *testing.B) {
	benchMicro(b, inference.Coop, 1.0)
}

// --- Figure 5: LAMMPS + DeePMD ensembles -------------------------------

func mdCfg(s md.Scenario) md.Config {
	cfg := md.Config{
		Scenario:         s,
		Ensembles:        2,
		RanksPerEnsemble: 8,
		OMPPerRank:       2,
		Steps:            5,
		Atoms:            4000,
		Regions:          14,
		PerAtomWork:      650 * sim.Microsecond,
		BWPerThread:      2.0,
		InitWork:         500 * sim.Millisecond,
		Horizon:          1200 * sim.Second,
	}
	if s.Colocated() {
		cfg.RanksPerEnsemble = 4
	}
	return cfg
}

func benchMD(b *testing.B, s md.Scenario) {
	var last md.Result
	for i := 0; i < b.N; i++ {
		last = md.Run(stack.New(hw.DualSocket16(), 11), mdCfg(s))
	}
	if !last.TimedOut {
		b.ReportMetric(last.Aggregate, "sim-Katom-step/s")
		b.ReportMetric(last.AvgBandwidth, "sim-GB/s")
	}
}

func BenchmarkFigure5MDExclusive(b *testing.B)         { benchMD(b, md.Exclusive) }
func BenchmarkFigure5MDColocationNode(b *testing.B)    { benchMD(b, md.ColocationNode) }
func BenchmarkFigure5MDColocationSocket(b *testing.B)  { benchMD(b, md.ColocationSocket) }
func BenchmarkFigure5MDCoexecutionNode(b *testing.B)   { benchMD(b, md.CoexecutionNode) }
func BenchmarkFigure5MDCoexecutionSocket(b *testing.B) { benchMD(b, md.CoexecutionSocket) }
func BenchmarkFigure5MDSchedCoopNode(b *testing.B)     { benchMD(b, md.SchedCoopNode) }
func BenchmarkFigure5MDSchedCoopSocket(b *testing.B)   { benchMD(b, md.SchedCoopSocket) }

// --- Harness: parallel sweep scaling -----------------------------------

// One iteration runs the full quick Table 2 job list (20 independent
// cells) through the bounded pool; comparing Par1 with ParN shows how
// the sweep scales with host cores.
func benchHarnessTable2(b *testing.B, par int) {
	cfg := experiments.QuickTable2()
	var results []harness.Result
	for i := 0; i < b.N; i++ {
		results = harness.Run(experiments.Table2Jobs(cfg), par)
	}
	rep := 0.0
	for _, r := range results {
		rep += r.Metric.SimSeconds
	}
	b.ReportMetric(rep, "sim-seconds-total")
}

func BenchmarkHarnessTable2Par1(b *testing.B) { benchHarnessTable2(b, 1) }
func BenchmarkHarnessTable2Par4(b *testing.B) { benchHarnessTable2(b, 4) }
func BenchmarkHarnessTable2ParMax(b *testing.B) {
	benchHarnessTable2(b, 0) // GOMAXPROCS
}

// --- Ablations ---------------------------------------------------------

// Thread cache on/off: the §5.4 claim that caching multiplies pth-backend
// performance.
func benchThreadCache(b *testing.B, disable bool) {
	var elapsed sim.Duration
	for i := 0; i < b.N; i++ {
		sys := stack.New(hw.DualSocket16(), 5)
		_, err := glibc.StartProcess(sys.K, "app", glibc.Options{
			USF:                true,
			DisableThreadCache: disable,
			Policy:             func() nosv.Policy { return usf.NewSchedCoop(usf.DefaultCoopConfig()) },
		}, func(l *glibc.Lib) {
			bl := blas.New(l, blas.Config{
				Impl: blas.BLIS, Backend: blas.BackendPthread,
				Threads: 8, YieldInBarrier: true,
			})
			start := l.K.Eng.Now()
			for j := 0; j < 20; j++ {
				bl.Dgemm(512, 512, 512)
			}
			elapsed = l.K.Eng.Now().Sub(start)
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(elapsed.Seconds()*1000, "sim-ms")
}

func BenchmarkAblationThreadCacheOn(b *testing.B)  { benchThreadCache(b, false) }
func BenchmarkAblationThreadCacheOff(b *testing.B) { benchThreadCache(b, true) }

// Barrier yield on/off: the Fig. 3d Original-vs-Baseline distinction.
func BenchmarkAblationBarrierYieldOn(b *testing.B)  { benchMatmul(b, stack.ModeBaseline, 512, 8) }
func BenchmarkAblationBarrierYieldOff(b *testing.B) { benchMatmul(b, stack.ModeOriginal, 512, 8) }

// nOS-V process quantum sweep (default 20ms, §4.1): two competing coop
// processes share the machine; the quantum governs how cores rotate
// between them at scheduling points.
func benchQuantum(b *testing.B, q sim.Duration) {
	var makespan sim.Time
	for i := 0; i < b.N; i++ {
		sys := stack.New(hw.DualSocket16(), 5)
		sys.CoopConfig = usf.CoopConfig{ProcessQuantum: q}
		for p := 0; p < 2; p++ {
			_, err := sys.Start("app", stack.ModeCoop, glibc.Options{}, func(l *glibc.Lib) {
				var pts []*glibc.Pthread
				for t := 0; t < 24; t++ {
					pts = append(pts, l.PthreadCreate("w", func() {
						for j := 0; j < 20; j++ {
							l.Compute(1 * sim.Millisecond)
							l.SchedYield()
						}
					}))
				}
				for _, pt := range pts {
					l.PthreadJoin(pt)
				}
				if now := l.K.Eng.Now(); now > makespan {
					makespan = now
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sys.Run(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(makespan.Seconds()*1000, "sim-makespan-ms")
}

func BenchmarkAblationQuantum5ms(b *testing.B)  { benchQuantum(b, 5*sim.Millisecond) }
func BenchmarkAblationQuantum20ms(b *testing.B) { benchQuantum(b, 20*sim.Millisecond) }
func BenchmarkAblationQuantum80ms(b *testing.B) { benchQuantum(b, 80*sim.Millisecond) }

// Affinity fallback levels on/off (§4.1 core→NUMA→any search).
func benchAffinity(b *testing.B, disable bool) {
	var last matmul.Result
	for i := 0; i < b.N; i++ {
		sys := stack.New(hw.DualSocket16(), 3)
		sys.CoopConfig = usf.CoopConfig{
			ProcessQuantum:  20 * sim.Millisecond,
			DisableAffinity: disable,
		}
		last = matmul.Run(sys, matmulCell(stack.ModeCoop, 512, 8))
	}
	if !last.TimedOut {
		b.ReportMetric(last.GFLOPS, "sim-GFLOPS")
		b.ReportMetric(float64(last.Migrations), "sim-migrations")
	}
}

func BenchmarkAblationAffinityOn(b *testing.B)  { benchAffinity(b, false) }
func BenchmarkAblationAffinityOff(b *testing.B) { benchAffinity(b, true) }

// OMP wait policy under oversubscription (§5.2).
func benchWaitPolicy(b *testing.B, wp omp.WaitPolicy) {
	var elapsed sim.Duration
	for i := 0; i < b.N; i++ {
		sys := stack.New(hw.DualSocket16(), 7)
		_, err := sys.Start("app", stack.ModeBaseline, glibc.Options{}, func(l *glibc.Lib) {
			rt := omp.New(l, omp.Config{NumThreads: 8, WaitPolicy: wp, SpinBeforeBlock: 100 * sim.Microsecond})
			bl := blas.New(l, blas.Config{
				Impl: blas.OpenBLAS, Backend: blas.BackendOpenMP,
				Threads: 8, OMP: rt, YieldInBarrier: true,
			})
			start := l.K.Eng.Now()
			// Two concurrent 8-thread teams on 16 cores, with gaps
			// where the wait policy matters.
			var pts []*glibc.Pthread
			for t := 0; t < 4; t++ {
				pts = append(pts, l.PthreadCreate("driver", func() {
					for j := 0; j < 6; j++ {
						bl.Dgemm(512, 512, 512)
						l.Sleep(1 * sim.Millisecond)
					}
				}))
			}
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
			elapsed = l.K.Eng.Now().Sub(start)
			rt.Shutdown()
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(elapsed.Seconds()*1000, "sim-ms")
}

func BenchmarkAblationWaitPolicyPassive(b *testing.B) { benchWaitPolicy(b, omp.WaitPassive) }
func BenchmarkAblationWaitPolicyHybrid(b *testing.B)  { benchWaitPolicy(b, omp.WaitHybrid) }
func BenchmarkAblationWaitPolicyActive(b *testing.B)  { benchWaitPolicy(b, omp.WaitActive) }

// TASIO (§7 future work): blocking I/O with and without task-aware
// interception under SCHED_COOP.
func benchTASIO(b *testing.B, tasio bool) {
	var makespan sim.Time
	for i := 0; i < b.N; i++ {
		sys := stack.New(hw.DualSocket16(), 3)
		_, err := sys.Start("app", stack.ModeCoop, glibc.Options{TaskAwareIO: tasio}, func(l *glibc.Lib) {
			var pts []*glibc.Pthread
			for t := 0; t < 32; t++ {
				pts = append(pts, l.PthreadCreate("w", func() {
					for j := 0; j < 6; j++ {
						l.Compute(1 * sim.Millisecond)
						l.BlockingIO(1 * sim.Millisecond)
					}
				}))
			}
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
			makespan = l.K.Eng.Now()
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(makespan.Seconds()*1000, "sim-makespan-ms")
}

func BenchmarkAblationTASIOOff(b *testing.B) { benchTASIO(b, false) }
func BenchmarkAblationTASIOOn(b *testing.B)  { benchTASIO(b, true) }

// --- schedcmp: kernel-scheduler ablation ------------------------------

// benchSchedCmpMatmul runs the oversubscribed matmul cell under one
// kernel scheduling class (Baseline stack, no USF).
func benchSchedCmpMatmul(b *testing.B, class string) {
	cfg := matmulCell(stack.ModeBaseline, 512, 8)
	var last matmul.Result
	for i := 0; i < b.N; i++ {
		last = matmul.Run(stack.NewWithClass(hw.DualSocket16(), 3, class), cfg)
	}
	if !last.TimedOut {
		b.ReportMetric(last.GFLOPS, "sim-GFLOPS")
	}
	b.ReportMetric(float64(last.Preemptions), "sim-preemptions")
}

func BenchmarkSchedCmpMatmulFair(b *testing.B)  { benchSchedCmpMatmul(b, "fair") }
func BenchmarkSchedCmpMatmulRR(b *testing.B)    { benchSchedCmpMatmul(b, "rr") }
func BenchmarkSchedCmpMatmulFIFO(b *testing.B)  { benchSchedCmpMatmul(b, "fifo") }
func BenchmarkSchedCmpMatmulBatch(b *testing.B) { benchSchedCmpMatmul(b, "batch") }

// --- tailload: tail latency under load --------------------------------

// benchTailLoad runs one (shape, scheme, load) cell of the tailload
// sweep and reports the streaming meter's tail metrics.
func benchTailLoad(b *testing.B, shapeName, schemeName string, rate float64) {
	cfg := experiments.QuickTailLoad()
	var shape experiments.TailShape
	for _, s := range experiments.TailShapes() {
		if s.Name == shapeName {
			shape = s
		}
	}
	if shape.New == nil {
		b.Fatalf("unknown arrival shape %q", shapeName)
	}
	var scheme experiments.TailScheme
	for _, s := range experiments.TailSchemes() {
		if s.Name == schemeName {
			scheme = s
		}
	}
	if scheme.Name == "" {
		b.Fatalf("unknown scheme %q", schemeName)
	}
	var last inference.Result
	for i := 0; i < b.N; i++ {
		last = inference.Run(stack.NewWithClass(cfg.Machine, cfg.Seed, scheme.KernelClass), inference.Config{
			Scheme:   scheme.Scheme,
			Rate:     rate,
			Requests: cfg.Requests,
			Batches:  cfg.Batches,
			Scale:    cfg.Scale,
			Models:   cfg.Models,
			Horizon:  cfg.Horizon,
			Arrivals: shape.New(rate, cfg.Scale, cfg.Requests),
			SLO:      cfg.SLO,
		})
	}
	if !last.TimedOut {
		b.ReportMetric(last.Tail.P99.Seconds()*1000, "sim-p99-ms")
		b.ReportMetric(last.Tail.ViolationFrac*100, "sim-SLO-viol-pct")
	}
}

func BenchmarkTailLoadPoissonCoop(b *testing.B) { benchTailLoad(b, "poisson", "sched_coop", 3.0) }
func BenchmarkTailLoadPoissonFair(b *testing.B) { benchTailLoad(b, "poisson", "fair", 3.0) }
func BenchmarkTailLoadBurstyCoop(b *testing.B)  { benchTailLoad(b, "bursty", "sched_coop", 3.0) }
func BenchmarkTailLoadClosedCoop(b *testing.B)  { benchTailLoad(b, "closed", "sched_coop", 3.0) }
func BenchmarkTailLoadReplayCoop(b *testing.B)  { benchTailLoad(b, "replay", "sched_coop", 3.0) }
