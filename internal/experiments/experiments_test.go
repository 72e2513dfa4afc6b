package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/workloads/inference"
	"repro/internal/workloads/md"
)

func TestFigure3QuickSweep(t *testing.T) {
	cfg := QuickFigure3()
	cfg.TaskSizes = []int{1024, 512}
	cfg.OMPThreads = []int{2, 8}
	res := RunFigure3(cfg)
	for _, mode := range cfg.Modes {
		grid := res.Cells[mode]
		if len(grid) != 2 || len(grid[0]) != 2 {
			t.Fatalf("%v grid shape wrong", mode)
		}
	}
	// Baseline cells must carry real throughput.
	for _, row := range res.Cells[stack.ModeBaseline] {
		for _, c := range row {
			if !c.TimedOut && c.GFLOPS <= 0 {
				t.Fatalf("empty baseline cell %+v", c)
			}
		}
	}
	out := res.Render()
	for _, want := range []string{"Baseline performance", "sched_coop speedup", "manual speedup", "original speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure3SpeedupShape(t *testing.T) {
	// The oversubscribed corner must favour SCHED_COOP; the underused
	// corner must be near 1.0 (Fig. 3's gradient).
	cfg := QuickFigure3()
	cfg.TaskSizes = []int{1024, 512}
	cfg.OMPThreads = []int{1, 8}
	res := RunFigure3(cfg)
	under := res.Speedup(stack.ModeCoop, 0, 0) // 4 tasks x 1 thread on 16 cores
	over := res.Speedup(stack.ModeCoop, 1, 1)  // 16 tasks x 8 threads
	if under < 0.8 || under > 1.25 {
		t.Fatalf("underused speedup = %.2f, want ~1.0", under)
	}
	if over <= under {
		t.Fatalf("oversubscribed speedup %.2f <= underused %.2f; gradient missing", over, under)
	}
}

func TestTable2QuickSweep(t *testing.T) {
	cfg := QuickTable2()
	res := RunTable2(cfg)
	if len(res.Entries) != len(cfg.Combos)*len(cfg.Degrees) {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	for _, e := range res.Entries {
		if e.Baseline.TimedOut || e.Coop.TimedOut {
			t.Fatalf("%v/%v %s timed out", e.Combo.Outer, e.Combo.Inner, e.Degree.Name)
		}
		if e.Speedup() <= 0 {
			t.Fatalf("no speedup computed for %+v", e.Combo)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "tbb") || !strings.Contains(out, "blis") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}

func TestTable2PthRowsGainMost(t *testing.T) {
	// Table 2's pattern: the pth-backend rows gain more from
	// SCHED_COOP than the OpenMP-backend rows at the same high degree.
	cfg := QuickTable2()
	res := RunTable2(cfg)
	high := func(e Table2Entry) bool { return e.Degree.Name == "High" }
	var ompGain, pthGain float64
	var nOmp, nPth int
	for _, e := range res.Entries {
		if !high(e) {
			continue
		}
		if e.Combo.Inner == 2 { // InnerPth
			pthGain += e.Speedup()
			nPth++
		} else {
			ompGain += e.Speedup()
			nOmp++
		}
	}
	ompGain /= float64(nOmp)
	pthGain /= float64(nPth)
	if pthGain <= ompGain {
		t.Fatalf("pth mean speedup %.2f <= omp %.2f; thread-churn advantage missing", pthGain, ompGain)
	}
}

func TestFigure4QuickSweep(t *testing.T) {
	cfg := QuickFigure4()
	res := RunFigure4(cfg)
	if len(res.Points) != len(cfg.Schemes)*len(cfg.Rates) {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.TimedOut {
			t.Fatalf("%v@%.2f timed out", p.Scheme, p.Rate)
		}
	}
	if len(res.Timelines[inference.Coop]) == 0 {
		t.Fatal("no coop timeline recorded")
	}
	out := res.Render()
	if !strings.Contains(out, "Mean latency") || !strings.Contains(out, "Throughput") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestFigure5QuickSweep(t *testing.T) {
	cfg := QuickFigure5()
	res := RunFigure5(cfg)
	if len(res.Entries) != 7 {
		t.Fatalf("entries = %d, want 7 scenarios", len(res.Entries))
	}
	for _, e := range res.Entries {
		if e.TimedOut {
			t.Fatalf("%v timed out", e.Scenario)
		}
	}
	// Exclusive achieves the best per-ensemble rate (Fig. 5a).
	ex := res.Entry(md.Exclusive)
	for _, e := range res.Entries {
		if e.Scenario == md.Exclusive {
			continue
		}
		if e.PerEnsemble[0] > ex.PerEnsemble[0]*1.05 {
			t.Fatalf("%v per-ensemble %.1f beats exclusive %.1f", e.Scenario, e.PerEnsemble[0], ex.PerEnsemble[0])
		}
	}
	out := res.Render()
	if !strings.Contains(out, "exclusive") || !strings.Contains(out, "schedcoop_node") {
		t.Fatalf("render incomplete:\n%s", out)
	}
	if res.RenderBWTrace(md.SchedCoopNode, 20) == "" {
		t.Fatal("bandwidth trace empty")
	}
}

func TestSchedCmpQuickSweep(t *testing.T) {
	cfg := QuickSchedCmp()
	cfg.Classes = []string{"fair", "fifo"}
	cfg.Oversub = []int{1, 4}
	res := RunSchedCmp(cfg)
	if len(res.Matmul) != 2 || len(res.Matmul[0]) != 2 ||
		len(res.Services) != 2 || len(res.Services[0]) != 2 {
		t.Fatalf("grid shape wrong: %d×%d matmul, %d×%d services",
			len(res.Matmul), len(res.Matmul[0]), len(res.Services), len(res.Services[0]))
	}
	for ri, class := range cfg.Classes {
		for ci := range cfg.Oversub {
			m := res.Matmul[ri][ci]
			if m.Class != class || (!m.TimedOut && m.GFLOPS <= 0) {
				t.Fatalf("bad matmul cell %+v", m)
			}
			s := res.Services[ri][ci]
			if s.Class != class || (!s.TimedOut && s.Stats.P99 <= 0) {
				t.Fatalf("bad services cell %+v", s)
			}
		}
	}
	// FIFO must schedule visibly differently from fair: CPU hogs are
	// never slice-preempted.
	fairPre := res.Matmul[0][1].Preemptions
	fifoPre := res.Matmul[1][1].Preemptions
	if fifoPre >= fairPre {
		t.Fatalf("fifo preemptions %d >= fair %d under oversubscription", fifoPre, fairPre)
	}
	out := res.Render()
	for _, want := range []string{"nested matmul GFLOP/s", "speedup vs fair", "p99 latency", "preemptions", "fifo"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSchedCmpParallelMatchesSerial(t *testing.T) {
	cfg := QuickSchedCmp()
	cfg.Classes = []string{"fair", "batch"}
	cfg.Oversub = []int{1, 2}
	serial := AssembleSchedCmp(cfg, harness.Run(SchedCmpJobs(cfg), 1)).Render()
	parallel := AssembleSchedCmp(cfg, harness.Run(SchedCmpJobs(cfg), 4)).Render()
	if serial != parallel {
		t.Fatalf("schedcmp tables differ between par 1 and par 4:\n%s\n---\n%s", serial, parallel)
	}
}

func TestTailLoadQuickSweep(t *testing.T) {
	// A trimmed grid keeps the test fast while exercising assembly,
	// rendering, and knee detection end to end.
	cfg := QuickTailLoad()
	cfg.Shapes = cfg.Shapes[:2] // poisson, bursty
	cfg.Schemes = []TailScheme{
		{Name: "sched_coop", Scheme: inference.Coop},
		{Name: "fair", Scheme: inference.BlNone, KernelClass: "fair"},
	}
	cfg.Loads = []float64{0.5, 8.0}
	res := RunTailLoad(cfg)
	if len(res.Cells) != 2 || len(res.Cells[0]) != 2 || len(res.Cells[0][0]) != 2 {
		t.Fatalf("grid shape wrong: %d shapes", len(res.Cells))
	}
	for shi := range cfg.Shapes {
		for si := range cfg.Schemes {
			for li := range cfg.Loads {
				c := res.Cells[shi][si][li]
				if c.TimedOut {
					t.Fatalf("%s/%s@%.2f timed out", c.Shape, c.Scheme, c.Load)
				}
				if c.Tail.Completed != cfg.Requests || c.Tail.P99 <= 0 {
					t.Fatalf("%s/%s@%.2f: empty tail stats %+v", c.Shape, c.Scheme, c.Load, c.Tail)
				}
			}
		}
	}
	// The low load must sustain the SLO; saturation at load 8.0 must
	// violate it, so the knee sits at 0.5 for every (shape, scheme).
	for shi := range cfg.Shapes {
		for si := range cfg.Schemes {
			knee, ok := res.Knee(shi, si)
			if !ok || knee != 0.5 {
				t.Fatalf("knee[%d][%d] = %v (ok %v), want 0.5", shi, si, knee, ok)
			}
		}
	}
	out := res.Render()
	for _, want := range []string{"arrivals: poisson", "arrivals: bursty",
		"p99 latency", "goodput", "SLO violation fraction", "Max sustainable load"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTailLoadShapesCoverAllSources(t *testing.T) {
	// Every arrival shape must drive the inference stack to completion
	// under SCHED_COOP at a moderate load.
	cfg := QuickTailLoad()
	for _, shape := range TailShapes() {
		res := inference.Run(stack.New(cfg.Machine, cfg.Seed), inference.Config{
			Scheme:   inference.Coop,
			Rate:     2.0,
			Requests: 6,
			Batches:  cfg.Batches,
			Scale:    cfg.Scale,
			Models:   cfg.Models,
			Horizon:  cfg.Horizon,
			Arrivals: shape.New(2.0, cfg.Scale, 6),
			SLO:      cfg.SLO,
		})
		if res.TimedOut || res.Tail.Completed != 6 {
			t.Fatalf("shape %s: %d/6 completed (timed out %v)",
				shape.Name, res.Tail.Completed, res.TimedOut)
		}
	}
}

func TestClusterQuickSweep(t *testing.T) {
	// A trimmed grid (bursty only, two loads) exercises fleet assembly,
	// rendering, knee detection, and the two separations the scenario
	// exists to demonstrate.
	cfg := QuickCluster()
	cfg.Shapes = TailShapes()[1:2] // bursty
	cfg.Loads = []float64{1.0, 2.0}
	res := RunCluster(cfg)
	if len(res.Cells) != 1 || len(res.Cells[0]) != len(cfg.Schemes) ||
		len(res.Cells[0][0]) != len(cfg.Routers) || len(res.Cells[0][0][0]) != 2 {
		t.Fatal("grid shape wrong")
	}
	for si := range cfg.Schemes {
		for ri := range cfg.Routers {
			for li := range cfg.Loads {
				c := res.Cell(0, si, ri, li)
				if c.TimedOut {
					t.Fatalf("%s/%s@%.2f timed out", c.Scheme, c.Router, c.Load)
				}
				if c.Stats.EndToEnd.Completed != cfg.Requests {
					t.Fatalf("%s/%s@%.2f: completed %d of %d", c.Scheme, c.Router,
						c.Load, c.Stats.EndToEnd.Completed, cfg.Requests)
				}
				if c.Stats.NodeP99 <= 0 || len(c.Stats.Nodes) != cfg.Nodes {
					t.Fatalf("%s/%s@%.2f: bad node stats %+v", c.Scheme, c.Router, c.Load, c.Stats)
				}
				// End-to-end latency includes the network: the slowest
				// node-internal request's end-to-end time strictly
				// dominates its internal time, so the maxima must too.
				maxInternal := sim.Duration(0)
				for _, ns := range c.Stats.Nodes {
					if ns.Internal.Max > maxInternal {
						maxInternal = ns.Internal.Max
					}
				}
				if c.Stats.EndToEnd.Max <= maxInternal {
					t.Fatalf("%s/%s@%.2f: end-to-end max %v <= node-internal max %v",
						c.Scheme, c.Router, c.Load, c.Stats.EndToEnd.Max, maxInternal)
				}
			}
		}
	}
	// The acceptance separations: on the heterogeneous fleet under
	// bursty arrivals, load-aware p2c routing must beat round-robin on
	// p99 (scheme-for-scheme at the low load), and the two schemes must
	// be distinguishable at the same router.
	rrIdx, p2cIdx := 0, 1
	for si, scheme := range cfg.Schemes {
		rr := res.Cell(0, si, rrIdx, 0)
		p2c := res.Cell(0, si, p2cIdx, 0)
		if p2c.Stats.EndToEnd.P99 >= rr.Stats.EndToEnd.P99 {
			t.Fatalf("%s: p2c p99 %v >= rr p99 %v under bursty arrivals",
				scheme.Name, p2c.Stats.EndToEnd.P99, rr.Stats.EndToEnd.P99)
		}
	}
	sep := false
	for ri := range cfg.Routers {
		for li := range cfg.Loads {
			a := res.Cell(0, 0, ri, li).Stats.EndToEnd.P99
			b := res.Cell(0, 1, ri, li).Stats.EndToEnd.P99
			if a != b {
				sep = true
			}
		}
	}
	if !sep {
		t.Fatal("sched_coop and baseline indistinguishable in every cell")
	}
	out := res.Render()
	for _, want := range []string{"arrivals: bursty", "end-to-end p99", "goodput",
		"node-internal p99, cluster-aggregated", "dispatch imbalance",
		"Max sustainable cluster load", "p2c/sched_coop"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestClusterParallelMatchesSerial(t *testing.T) {
	cfg := QuickCluster()
	cfg.Shapes = TailShapes()[:1] // poisson
	cfg.Loads = []float64{1.0}
	serial := AssembleCluster(cfg, harness.Run(ClusterJobs(cfg), 1)).Render()
	parallel := AssembleCluster(cfg, harness.Run(ClusterJobs(cfg), 4)).Render()
	if serial != parallel {
		t.Fatalf("cluster tables differ between par 1 and par 4:\n%s\n---\n%s", serial, parallel)
	}
}

func TestClusterShardsMatchSharedEngine(t *testing.T) {
	// The sharded-fleet contract at the scenario level: running the real
	// cluster cells (full per-node stacks, kernels, inference services)
	// over conservative-parallel shards must render byte-identical
	// tables for any shard count — shard 1 IS the shared-engine path.
	cfg := QuickCluster()
	cfg.Shapes = TailShapes()[:1] // poisson
	cfg.Loads = []float64{2.0}
	cfg.Routers = ClusterRouters()[:2] // rr, p2c
	run := func(shards int) string {
		c := cfg
		c.Shards = shards
		return AssembleCluster(c, harness.Run(ClusterJobs(c), 1)).Render()
	}
	ref := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != ref {
			t.Fatalf("cluster tables differ between 1 and %d shards:\n%s\n---\n%s", shards, ref, got)
		}
	}
}

// TestPaperCellsReportEvents checks that the matmul, Cholesky and
// LAMMPS cells report the engine events they fired, as the Fig. 4
// cells always have, so events-per-second profiling covers every paper
// family.
func TestPaperCellsReportEvents(t *testing.T) {
	fig3 := QuickFigure3()
	fig3.TaskSizes, fig3.OMPThreads = []int{1024}, []int{2}
	for _, jobs := range [][]harness.Job{Figure3Jobs(fig3), Table2Jobs(QuickTable2()), Figure5Jobs(QuickFigure5())} {
		if got := harness.Run(jobs[:1], 1)[0].Metric.Events; got <= 0 {
			t.Errorf("cell %s reports %d events, want > 0", jobs[0].Name, got)
		}
	}
}

// TestFigure4EventsCountSkippedPolls: a Fig. 4 cell reports the events
// it fired, while its hashed result keeps the polled count, which also
// holds the two events of every BLAS barrier poll the engine skipped.
func TestFigure4EventsCountSkippedPolls(t *testing.T) {
	r := harness.Run(Figure4Jobs(QuickFigure4())[:1], 1)[0]
	polled := r.Value.(Figure4Point).Result.Events
	if r.Metric.Events <= 0 || r.Metric.Events >= polled {
		t.Fatalf("cell %s fired %d events, polled count %d: want 0 < fired < polled", r.Metric.Cell, r.Metric.Events, polled)
	}
}

// TestSchedCmpCellsReportEvents checks that both schedcmp legs, the
// matmul cells and the services cells, report the events their
// System's engine fired.
func TestSchedCmpCellsReportEvents(t *testing.T) {
	cfg := QuickSchedCmp()
	cfg.Classes, cfg.Oversub = cfg.Classes[:1], cfg.Oversub[:1]
	jobs := SchedCmpJobs(cfg)
	if len(jobs) != 2 {
		t.Fatalf("%d jobs, want one per leg", len(jobs))
	}
	for _, r := range harness.Run(jobs, 1) {
		if r.Metric.Events <= 0 {
			t.Errorf("cell %s reports %d events, want > 0", r.Metric.Cell, r.Metric.Events)
		}
	}
}

// TestTracingIsPassive checks that a -trace run records one of its
// scenario's cells and that the tracer moves nothing: each trace
// function's cell, run with a tracer and without one, returns the
// result of the job it names.
func TestTracingIsPassive(t *testing.T) {
	fig3, fig4, sc, tl := QuickFigure3(), QuickFigure4(), QuickSchedCmp(), QuickTailLoad()
	last := func(xs []int) int { return xs[len(xs)-1] }
	cases := []struct {
		scenario string
		jobs     []harness.Job
		job      string
		run      func(*trace.Buffer) any
		result   func(value any) any
	}{
		{
			"matmul", Figure3Jobs(fig3),
			fmt.Sprintf("baseline/tasks%d/omp%d", last(fig3.TaskSizes), last(fig3.OMPThreads)),
			func(b *trace.Buffer) any { return traceMatmul(fig3, b) },
			func(v any) any { return v.(Figure3Cell).Result },
		},
		{
			"microservices", Figure4Jobs(fig4),
			fmt.Sprintf("%s/rate%.2f", inference.BlNone, fig4.TimelineRate),
			func(b *trace.Buffer) any { return traceMicroservices(fig4, b) },
			func(v any) any { return v.(Figure4Point).Result },
		},
		{
			"schedcmp", SchedCmpJobs(sc),
			fmt.Sprintf("matmul/%s/oversub%d", sc.Classes[len(sc.Classes)-1], last(sc.Oversub)),
			func(b *trace.Buffer) any { return traceSchedCmp(sc, b) },
			func(v any) any { return v.(SchedCmpMatmulCell).Result },
		},
		{
			"tailload", TailLoadJobs(tl),
			fmt.Sprintf("bursty/%s/load%.2f", tl.Schemes[len(tl.Schemes)-1].Name, tl.Loads[len(tl.Loads)-1]),
			func(b *trace.Buffer) any { return traceTailLoad(tl, b) },
			func(v any) any { return v.(TailLoadCell).Result },
		},
	}
	for _, c := range cases {
		var want any
		for _, j := range c.jobs {
			if j.Name == c.job {
				want = c.result(j.Run().Value)
			}
		}
		if want == nil {
			t.Fatalf("%s: no job named %s", c.scenario, c.job)
		}
		buf := trace.NewBuffer(traceCap)
		if got := c.run(buf); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: traced cell differs from job %s:\n%+v\nwant %+v", c.scenario, c.job, got, want)
		}
		if buf.Len() == 0 {
			t.Errorf("%s: trace recorded no events", c.scenario)
		}
		if got := c.run(nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: untraced cell differs from job %s:\n%+v\nwant %+v", c.scenario, c.job, got, want)
		}
	}
}
