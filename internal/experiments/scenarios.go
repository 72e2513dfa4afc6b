package experiments

import (
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/workloads/inference"
	"repro/internal/workloads/matmul"
	"repro/internal/workloads/md"
)

// Scenario registry wiring: each paper artefact registers its cell
// expansion and renderer with the harness, so cmd/uschedsim resolves
// subcommands against the registry and `all` sweeps every cell through
// one worker pool.

func figure3Config(opt harness.Opts) Figure3Config {
	cfg := DefaultFigure3()
	if opt.Quick {
		cfg = QuickFigure3()
	}
	cfg.Seed = opt.ApplySeed(cfg.Seed)
	return cfg
}

func table2Config(opt harness.Opts) Table2Config {
	cfg := DefaultTable2()
	if opt.Quick {
		cfg = QuickTable2()
	}
	cfg.Seed = opt.ApplySeed(cfg.Seed)
	return cfg
}

func figure4Config(opt harness.Opts) Figure4Config {
	cfg := DefaultFigure4()
	if opt.Quick {
		cfg = QuickFigure4()
	}
	cfg.Seed = opt.ApplySeed(cfg.Seed)
	return cfg
}

func figure5Config(opt harness.Opts) Figure5Config {
	cfg := DefaultFigure5()
	if opt.Quick {
		cfg = QuickFigure5()
	}
	cfg.Seed = opt.ApplySeed(cfg.Seed)
	return cfg
}

func schedCmpConfig(opt harness.Opts) SchedCmpConfig {
	cfg := DefaultSchedCmp()
	if opt.Quick {
		cfg = QuickSchedCmp()
	}
	cfg.Seed = opt.ApplySeed(cfg.Seed)
	return cfg
}

// traceCap bounds -trace recordings: a flight-recorder ring holding the
// last million scheduling events.
const traceCap = 1 << 20

// record runs a trace function's cell into a fresh flight-recorder
// buffer. Each trace function runs one representative cell exactly as
// its job does, with tracer (nil for none) attached to the cell's
// System, and returns the cell's result.
func record[C, R any](run func(C, *trace.Buffer) R, cfg C) *trace.Buffer {
	buf := trace.NewBuffer(traceCap)
	run(cfg, buf)
	return buf
}

// traceMatmul runs the matmul cell in Baseline mode at the config's
// smallest task size and widest inner team: the most oversubscribed
// corner.
func traceMatmul(cfg Figure3Config, tracer *trace.Buffer) matmul.Result {
	sys := stack.New(cfg.Machine, cfg.Seed)
	sys.K.Tracer = tracer
	return matmul.Run(sys, figure3Cell(cfg, stack.ModeBaseline,
		cfg.TaskSizes[len(cfg.TaskSizes)-1], cfg.OMPThreads[len(cfg.OMPThreads)-1]))
}

// traceMicroservices runs the microservices cell of the bl-none scheme
// at the timeline rate.
func traceMicroservices(cfg Figure4Config, tracer *trace.Buffer) inference.Result {
	sys := stack.New(cfg.Machine, cfg.Seed)
	sys.K.Tracer = tracer
	return inference.Run(sys, figure4Cell(cfg, inference.BlNone, cfg.TimelineRate))
}

// traceSchedCmp runs the matmul leg's most oversubscribed cell under
// the last configured (non-fair, if any) kernel class, so the class tag
// in the trace is visibly exercised.
func traceSchedCmp(cfg SchedCmpConfig, tracer *trace.Buffer) matmul.Result {
	sys := stack.NewWithClass(cfg.Machine, cfg.Seed, cfg.Classes[len(cfg.Classes)-1])
	sys.K.Tracer = tracer
	return matmul.Run(sys, schedCmpMatmul(cfg, cfg.Oversub[len(cfg.Oversub)-1]))
}

func tailLoadConfig(opt harness.Opts) TailLoadConfig {
	cfg := DefaultTailLoad()
	if opt.Quick {
		cfg = QuickTailLoad()
	}
	cfg.Seed = opt.ApplySeed(cfg.Seed)
	if opt.Metrics {
		cfg.MetricsInterval = metricsInterval(opt)
	}
	return cfg
}

// metricsInterval is the scrape cadence -metrics enables: coarse on the
// scaled paper sweeps, finer on the quick test-sized configurations
// whose runs are only seconds of virtual time.
func metricsInterval(opt harness.Opts) sim.Duration {
	if opt.Quick {
		return 250 * sim.Millisecond
	}
	return 5 * sim.Second
}

// traceTailLoad runs the most loaded bursty cell under the last
// configured scheme, so the trace shows tail-latency formation under
// bursty arrivals.
func traceTailLoad(cfg TailLoadConfig, tracer *trace.Buffer) inference.Result {
	shape := cfg.Shapes[0]
	for _, s := range cfg.Shapes {
		if s.Name == "bursty" {
			shape = s
		}
	}
	scheme := cfg.Schemes[len(cfg.Schemes)-1]
	sys := stack.NewWithClass(cfg.Machine, cfg.Seed, scheme.KernelClass)
	sys.K.Tracer = tracer
	return inference.Run(sys, tailLoadCell(cfg, shape, scheme, cfg.Loads[len(cfg.Loads)-1]))
}

func clusterConfig(opt harness.Opts) ClusterConfig {
	cfg := DefaultCluster()
	if opt.Quick {
		cfg = QuickCluster()
	}
	cfg.Seed = opt.ApplySeed(cfg.Seed)
	if opt.Shards > 0 {
		cfg.Shards = opt.Shards
	}
	if opt.Metrics {
		cfg.MetricsInterval = metricsInterval(opt)
	}
	cfg.Spans = opt.SpanRecords
	return cfg
}

// traceCluster runs the most loaded bursty cell under
// least-outstanding routing and SCHED_COOP with tracer on node 0, so
// the trace shows one fleet member absorbing its routed share of a
// burst.
func traceCluster(cfg ClusterConfig, tracer *trace.Buffer) ClusterCell {
	shape := cfg.Shapes[0]
	for _, s := range cfg.Shapes {
		if s.Name == "bursty" {
			shape = s
		}
	}
	router := cfg.Routers[0]
	for _, r := range cfg.Routers {
		if r.Name == "p2c" {
			router = r
		}
	}
	return runClusterCell(cfg, shape, cfg.Schemes[0], router, cfg.Loads[len(cfg.Loads)-1], tracer)
}

func chaosConfig(opt harness.Opts) ChaosConfig {
	cfg := DefaultChaos()
	if opt.Quick {
		cfg = QuickChaos()
	}
	cfg.Seed = opt.ApplySeed(cfg.Seed)
	if opt.Shards > 0 {
		cfg.Shards = opt.Shards
	}
	if opt.Metrics {
		// Scrape ticks must live on the chaos quantum grid (phase 0)
		// like every other non-request instant; see chaosQuantum.
		cfg.MetricsInterval = chaosAlign(metricsInterval(opt))
	}
	cfg.Spans = opt.SpanRecords
	return cfg
}

func init() {
	harness.Register(&harness.Scenario{
		Name:  "matmul",
		Title: "Figure 3: nested-runtime matmul heatmaps",
		Jobs: func(opt harness.Opts) []harness.Job {
			return Figure3Jobs(figure3Config(opt))
		},
		Render: func(opt harness.Opts, results []harness.Result) string {
			return AssembleFigure3(figure3Config(opt), results).Render()
		},
		Trace: func(opt harness.Opts) *trace.Buffer {
			return record(traceMatmul, figure3Config(opt))
		},
	})
	harness.Register(&harness.Scenario{
		Name:  "cholesky",
		Title: "Table 2: Cholesky runtime compositions",
		Jobs: func(opt harness.Opts) []harness.Job {
			return Table2Jobs(table2Config(opt))
		},
		Render: func(opt harness.Opts, results []harness.Result) string {
			return AssembleTable2(table2Config(opt), results).Render()
		},
	})
	harness.Register(&harness.Scenario{
		Name:  "microservices",
		Title: "Figure 4: AI microservices",
		Jobs: func(opt harness.Opts) []harness.Job {
			return Figure4Jobs(figure4Config(opt))
		},
		Render: func(opt harness.Opts, results []harness.Result) string {
			return AssembleFigure4(figure4Config(opt), results).Render()
		},
		Trace: func(opt harness.Opts) *trace.Buffer {
			return record(traceMicroservices, figure4Config(opt))
		},
	})
	harness.Register(&harness.Scenario{
		Name:  "lammps",
		Title: "Figure 5: LAMMPS + DeePMD-kit ensembles",
		Jobs: func(opt harness.Opts) []harness.Job {
			return Figure5Jobs(figure5Config(opt))
		},
		Render: func(opt harness.Opts, results []harness.Result) string {
			res := AssembleFigure5(figure5Config(opt), results)
			return res.Render() + res.RenderBWTrace(md.SchedCoopNode, 30)
		},
	})
	harness.Register(&harness.Scenario{
		Name:  "schedcmp",
		Title: "Kernel-scheduler ablation: scheduling classes × oversubscription",
		Jobs: func(opt harness.Opts) []harness.Job {
			return SchedCmpJobs(schedCmpConfig(opt))
		},
		Render: func(opt harness.Opts, results []harness.Result) string {
			return AssembleSchedCmp(schedCmpConfig(opt), results).Render()
		},
		Trace: func(opt harness.Opts) *trace.Buffer {
			return record(traceSchedCmp, schedCmpConfig(opt))
		},
	})
	harness.Register(&harness.Scenario{
		Name:  "tailload",
		Title: "Tail latency under load: arrival shapes × schemes × offered load",
		Jobs: func(opt harness.Opts) []harness.Job {
			return TailLoadJobs(tailLoadConfig(opt))
		},
		Render: func(opt harness.Opts, results []harness.Result) string {
			return AssembleTailLoad(tailLoadConfig(opt), results).Render()
		},
		Trace: func(opt harness.Opts) *trace.Buffer {
			return record(traceTailLoad, tailLoadConfig(opt))
		},
	})
	harness.Register(&harness.Scenario{
		Name:  "cluster",
		Title: "Multi-node fleet: routers × schemes × arrival shapes × offered load",
		Jobs: func(opt harness.Opts) []harness.Job {
			return ClusterJobs(clusterConfig(opt))
		},
		Render: func(opt harness.Opts, results []harness.Result) string {
			return AssembleCluster(clusterConfig(opt), results).Render()
		},
		Trace: func(opt harness.Opts) *trace.Buffer {
			return record(traceCluster, clusterConfig(opt))
		},
	})
	harness.Register(&harness.Scenario{
		Name:  "chaos",
		Title: "Fault injection: node kill & brownout × retry policies × routers",
		Jobs: func(opt harness.Opts) []harness.Job {
			return ChaosJobs(chaosConfig(opt))
		},
		Render: func(opt harness.Opts, results []harness.Result) string {
			return AssembleChaos(chaosConfig(opt), results).Render()
		},
	})
}
