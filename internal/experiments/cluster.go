package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/workloads/inference"
)

// The cluster scenario lifts the paper's single-node §5.5 evaluation to
// fleet scale: N simulated machines — each running the full
// microservices stack under SCHED_COOP or the kernel baseline — share
// one deterministic engine behind a cluster router, and the sweep
// crosses arrival shape × scheme × router policy × offered load. Tables
// report end-to-end tails (network + queue + service), cluster-
// aggregated node-internal percentiles, routing balance, and the max
// sustainable load knee per (router, scheme).

// ClusterRouter names one routing policy and builds fresh single-use
// instances of it per cell.
type ClusterRouter struct {
	// Name labels the policy in rows ("rr", "p2c", "hash").
	Name string
	// New builds a fresh router; routers are single-use per cluster.
	New func() cluster.Router
}

// ClusterRouters returns the swept policies: round-robin,
// least-outstanding with power-of-two-choices sampling, and
// consistent-hash session affinity.
func ClusterRouters() []ClusterRouter {
	return []ClusterRouter{
		{Name: "rr", New: func() cluster.Router { return cluster.NewRoundRobin() }},
		{Name: "p2c", New: func() cluster.Router { return cluster.NewLeastOutstanding() }},
		{Name: "hash", New: func() cluster.Router { return cluster.NewConsistentHash() }},
	}
}

// ClusterConfig parameterises the fleet sweep.
type ClusterConfig struct {
	// NodeMachines is the per-node hardware (heterogeneous fleets;
	// cycled when shorter than Nodes).
	NodeMachines []hw.Config
	// Nodes is the fleet size.
	Nodes int
	// Net is the cluster communication cost model.
	Net cluster.Network
	// Sessions is the number of distinct client sessions (the affinity
	// unit for hash routing).
	Sessions int

	Shapes  []TailShape
	Schemes []TailScheme
	Routers []ClusterRouter
	// Loads are cluster-wide offered rates (req/s of unscaled paper
	// time), increasing.
	Loads []float64

	// SLO is the end-to-end objective; SLOBudget the tolerated
	// violation fraction for the knee.
	SLO       sim.Duration
	SLOBudget float64

	// Requests is the total request count across the fleet.
	Requests int
	Batches  int
	Scale    float64
	Models   []inference.Model
	Horizon  sim.Duration
	Seed     uint64

	// Shards spreads each cell's fleet over this many engines advanced
	// by the conservative-parallel coordinator (cluster.NewSharded);
	// tables are byte-identical for any value. 0 or 1 runs the classic
	// single shared engine.
	Shards int

	// MetricsInterval, when positive, scrapes simulated-time telemetry
	// from every cell's fleet (cluster.Config.MetricsInterval). Exports
	// are byte-identical for any -par or -shards value.
	MetricsInterval sim.Duration
	// Spans records per-request hop timelines and the p99 tail
	// breakdown in every cell. Same determinism guarantee.
	Spans bool
}

// DefaultCluster returns the scaled full sweep: a heterogeneous fleet
// of three full 112-core nodes plus one quarter-size straggler (28
// cores — a single request already oversubscribes it) behind the
// router, the realistic shape where load-aware routing has something
// to balance.
func DefaultCluster() ClusterConfig {
	full := hw.MareNostrum5()
	half := hw.MareNostrum5()
	half.Name = "MareNostrum5-quarter"
	half.Topo.Sockets = 1
	half.Topo.CoresPerSocket = 28
	return ClusterConfig{
		NodeMachines: []hw.Config{full, full, full, half},
		Nodes:        4,
		Net: cluster.Network{
			RequestLatency: 200 * sim.Microsecond,
			ReplyLatency:   200 * sim.Microsecond,
			RequestBytes:   16 << 10,
			ReplyBytes:     64 << 10,
			LinkBandwidth:  10,
		},
		Sessions:  8,
		Shapes:    TailShapes()[:2], // poisson, bursty
		Schemes:   ClusterSchemes(),
		Routers:   ClusterRouters(),
		Loads:     []float64{1.33, 2.67, 4.0, 5.33},
		SLO:       8 * sim.Second,
		SLOBudget: 0.1,
		Requests:  48,
		Batches:   8,
		Scale:     0.2,
		Horizon:   4000 * sim.Second,
		Seed:      31,
	}
}

// QuickCluster returns a small fast sweep: a heterogeneous fleet of
// two 8-core nodes and one 4-core straggler — the shape that separates
// load-aware routing from stateless policies.
func QuickCluster() ClusterConfig {
	small := hw.SmallNode()
	weak := hw.SmallNode()
	weak.Name = "WeakNode"
	weak.Topo.CoresPerSocket = 4
	return ClusterConfig{
		NodeMachines: []hw.Config{small, small, weak},
		Nodes:        3,
		Net: cluster.Network{
			RequestLatency: 200 * sim.Microsecond,
			ReplyLatency:   200 * sim.Microsecond,
			RequestBytes:   16 << 10,
			ReplyBytes:     64 << 10,
			LinkBandwidth:  10,
		},
		Sessions:  6,
		Shapes:    TailShapes()[:2], // poisson, bursty
		Schemes:   ClusterSchemes(),
		Routers:   ClusterRouters(),
		Loads:     []float64{1.0, 2.0, 3.0},
		SLO:       600 * sim.Millisecond,
		SLOBudget: 0.15,
		Requests:  18,
		Batches:   4,
		Scale:     0.2,
		Models:    quickModels(),
		Horizon:   4000 * sim.Second,
		Seed:      31,
	}
}

// ClusterSchemes returns the fleet-level scheme comparison: SCHED_COOP
// versus the stock fair-class kernel baseline on every node.
func ClusterSchemes() []TailScheme {
	return []TailScheme{
		{Name: "sched_coop", Scheme: inference.Coop},
		{Name: "baseline", Scheme: inference.BlNone, KernelClass: "fair"},
	}
}

// nodeMachine returns node i's hardware.
func (cfg ClusterConfig) nodeMachine(i int) hw.Config {
	return cfg.NodeMachines[i%len(cfg.NodeMachines)]
}

// ClusterCell is one (shape, scheme, router, load) measurement.
type ClusterCell struct {
	Shape, Scheme, Router string
	Load                  float64
	Stats                 cluster.Stats
	Elapsed               sim.Duration
	TimedOut              bool
	// Samples and Spans hold the cell's telemetry when the sweep
	// enabled it (ClusterConfig.MetricsInterval / Spans).
	Samples []obs.Sample
	Spans   []obs.Span
	// Tail decomposes where the cell's p99 lives (network vs. queue vs.
	// service); zero when spans were off.
	Tail obs.TailBreakdown
	// Events, Windows, and WindowWidthSum profile the cell's host-side
	// cost (events fired; conservative windows when sharded).
	Events         int64
	Windows        int64
	WindowWidthSum sim.Duration
}

// runClusterCell builds the fleet — on one shared engine, or over
// cfg.Shards conservative-parallel shards — and serves the whole
// request train through the router. tracer, when non-nil, records node
// 0's kernel events.
func runClusterCell(cfg ClusterConfig, shape TailShape, scheme TailScheme, router ClusterRouter, rate float64, tracer *trace.Buffer) ClusterCell {
	cl := cluster.NewSharded(cluster.Config{
		Net:             cfg.Net,
		SLO:             cfg.SLO,
		Sessions:        cfg.Sessions,
		MetricsInterval: cfg.MetricsInterval,
		Spans:           cfg.Spans,
	}, router.New(), cfg.Shards, cfg.Seed)
	params := kernel.DefaultSchedParams()
	if scheme.KernelClass != "" {
		params.DefaultClass = scheme.KernelClass
	}
	for i := 0; i < cfg.Nodes; i++ {
		// Each node lives on its home shard's engine and owns a private
		// RNG namespace rooted at a distinct seed, so fleets are
		// deterministic — and identical — for any shard count.
		sys := stack.NewOnEngine(cl.NodeEngine(i), cfg.nodeMachine(i), cfg.Seed+uint64(i+1)*1000003, params)
		if tracer != nil && i == 0 {
			sys.K.Tracer = tracer
		}
		i := i
		cl.AddNode(fmt.Sprintf("node%d", i), sys, func(done func(id int)) cluster.Backend {
			svc, err := inference.NewService(sys, inference.ServiceConfig{
				Scheme:  scheme.Scheme,
				Batches: cfg.Batches,
				Scale:   cfg.Scale,
				Models:  cfg.Models,
				Started: cl.StartedFunc(i),
				TraceID: cl.AttemptIDFunc(i),
			}, done)
			if err != nil {
				panic(err)
			}
			return svc
		})
	}
	cl.Serve(shape.New(rate, cfg.Scale, cfg.Requests), cfg.Requests)
	timedOut, err := cl.Run(cfg.Horizon)
	if err != nil {
		panic(err)
	}
	ws := cl.WindowStats()
	cell := ClusterCell{
		Shape: shape.Name, Scheme: scheme.Name, Router: router.Name, Load: rate,
		Stats:          cl.Stats(),
		Elapsed:        cl.Elapsed(),
		TimedOut:       timedOut || cl.Completed() < cfg.Requests,
		Samples:        cl.Samples(),
		Spans:          cl.Spans(),
		Events:         cl.Events(),
		Windows:        ws.Windows,
		WindowWidthSum: ws.WidthSum,
	}
	if cell.Spans != nil {
		cell.Tail = obs.BreakTail(cell.Spans, 0.99)
	}
	return cell
}

// ClusterResult holds cells indexed [shape][scheme][router][load] in
// config order.
type ClusterResult struct {
	Config ClusterConfig
	Cells  [][][][]ClusterCell
}

// ClusterJobs expands the sweep shape-major, then scheme, then router,
// then load, as AssembleCluster expects.
func ClusterJobs(cfg ClusterConfig) []harness.Job {
	var jobs []harness.Job
	for _, shape := range cfg.Shapes {
		for _, scheme := range cfg.Schemes {
			for _, router := range cfg.Routers {
				for _, rate := range cfg.Loads {
					shape, scheme, router, rate := shape, scheme, router, rate
					jobs = append(jobs, harness.Job{
						Name: fmt.Sprintf("%s/%s/%s/load%.2f", shape.Name, scheme.Name, router.Name, rate),
						Run: func() harness.Output {
							cell := runClusterCell(cfg, shape, scheme, router, rate, nil)
							return harness.Output{
								Value:          cell,
								SimTime:        cell.Elapsed,
								TimedOut:       cell.TimedOut,
								Events:         cell.Events,
								Windows:        cell.Windows,
								WindowWidthSum: cell.WindowWidthSum,
								Samples:        cell.Samples,
								Spans:          cell.Spans,
							}
						},
					})
				}
			}
		}
	}
	return jobs
}

// AssembleCluster rebuilds the 4-D grid from ordered cell results.
func AssembleCluster(cfg ClusterConfig, results []harness.Result) *ClusterResult {
	out := &ClusterResult{Config: cfg}
	i := 0
	for range cfg.Shapes {
		byScheme := make([][][]ClusterCell, len(cfg.Schemes))
		for si := range cfg.Schemes {
			byRouter := make([][]ClusterCell, len(cfg.Routers))
			for ri := range cfg.Routers {
				row := make([]ClusterCell, len(cfg.Loads))
				for li := range cfg.Loads {
					row[li] = results[i].Value.(ClusterCell)
					i++
				}
				byRouter[ri] = row
			}
			byScheme[si] = byRouter
		}
		out.Cells = append(out.Cells, byScheme)
	}
	return out
}

// RunCluster executes the sweep serially.
func RunCluster(cfg ClusterConfig) *ClusterResult {
	return AssembleCluster(cfg, harness.Run(ClusterJobs(cfg), 1))
}

// Cell returns the measurement at (shape, scheme, router, load)
// indices.
func (r *ClusterResult) Cell(shi, si, ri, li int) *ClusterCell {
	return &r.Cells[shi][si][ri][li]
}

// Knee returns the max sustainable cluster load for (shape, scheme,
// router), and whether any swept load sustained the SLO.
func (r *ClusterResult) Knee(shi, si, ri int) (float64, bool) {
	var pts []load.LoadPoint
	for _, c := range r.Cells[shi][si][ri] {
		pts = append(pts, load.LoadPoint{
			Load: c.Load, Stats: c.Stats.EndToEnd, TimedOut: c.TimedOut,
		})
	}
	return load.MaxSustainable(pts, r.Config.SLOBudget)
}

// Render prints, per arrival shape, end-to-end tail tables over
// (router, scheme) rows, the cluster-aggregated node-internal p99, the
// routing balance, and finally the max-sustainable-load knee per
// (router, scheme).
func (r *ClusterResult) Render() string {
	cfg := r.Config
	var sb strings.Builder
	rowLabel := func(ri, si int) string {
		return fmt.Sprintf("%s/%s", cfg.Routers[ri].Name, cfg.Schemes[si].Name)
	}
	header := func(title string) {
		fmt.Fprintf(&sb, "\n%s\n%16s", title, "router/scheme")
		for _, l := range cfg.Loads {
			fmt.Fprintf(&sb, "%9.2f", l)
		}
		sb.WriteByte('\n')
	}
	cellTable := func(shi int, title string, val func(c *ClusterCell) string) {
		header(title)
		for ri := range cfg.Routers {
			for si := range cfg.Schemes {
				fmt.Fprintf(&sb, "%16s", rowLabel(ri, si))
				for li := range cfg.Loads {
					c := r.Cell(shi, si, ri, li)
					if c.TimedOut {
						fmt.Fprintf(&sb, "%9s", "—")
					} else {
						fmt.Fprintf(&sb, "%9s", val(c))
					}
				}
				sb.WriteByte('\n')
			}
		}
	}
	for shi, shape := range cfg.Shapes {
		fmt.Fprintf(&sb, "\n--- arrivals: %s (%d nodes) ---\n", shape.Name, cfg.Nodes)
		cellTable(shi, fmt.Sprintf("end-to-end p99 (s, SLO %.1fs)", cfg.SLO.Seconds()),
			func(c *ClusterCell) string {
				return fmt.Sprintf("%.2f", c.Stats.EndToEnd.P99.Seconds())
			})
		cellTable(shi, "goodput (SLO-met req/s)", func(c *ClusterCell) string {
			return fmt.Sprintf("%.3f", c.Stats.EndToEnd.Goodput)
		})
		cellTable(shi, "SLO violation fraction", func(c *ClusterCell) string {
			return fmt.Sprintf("%.2f", c.Stats.EndToEnd.ViolationFrac)
		})
		cellTable(shi, "node-internal p99, cluster-aggregated (s)", func(c *ClusterCell) string {
			return fmt.Sprintf("%.2f", c.Stats.NodeP99.Seconds())
		})
		cellTable(shi, "dispatch imbalance (max/min node requests)", func(c *ClusterCell) string {
			if math.IsInf(c.Stats.Imbalance, 1) {
				return "inf"
			}
			return fmt.Sprintf("%.2f", c.Stats.Imbalance)
		})
		if cfg.Spans {
			cellTable(shi, "where does p99 live (net/queue/service % of tail latency)",
				func(c *ClusterCell) string {
					t := c.Tail
					if t.N == 0 {
						return "—"
					}
					return fmt.Sprintf("%.0f/%.0f/%.0f",
						t.Network*100, t.Queue*100, t.Service*100)
				})
		}
	}
	fmt.Fprintf(&sb, "\nMax sustainable cluster load (req/s, violation fraction <= %.2f)\n%16s",
		cfg.SLOBudget, "router/scheme")
	for _, shape := range cfg.Shapes {
		fmt.Fprintf(&sb, "%9s", shape.Name)
	}
	sb.WriteByte('\n')
	for ri := range cfg.Routers {
		for si := range cfg.Schemes {
			fmt.Fprintf(&sb, "%16s", rowLabel(ri, si))
			for shi := range cfg.Shapes {
				if knee, ok := r.Knee(shi, si, ri); ok {
					fmt.Fprintf(&sb, "%9.2f", knee)
				} else {
					fmt.Fprintf(&sb, "%9s", "—")
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
