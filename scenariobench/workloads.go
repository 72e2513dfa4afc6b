package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
)

// workload is one named set of scenario cells the benchmark runs in a
// closed loop: one cell at a time, each starting when the previous one
// ends.
type workload struct {
	name string
	// scenarios are the registered scenarios whose cells the workload
	// runs, in order.
	scenarios []string
	// opt are the expansion options; expand sets the seeds.
	opt harness.Opts
	// reference, when set, names the workload whose tables this one
	// must render byte for byte.
	reference string
}

var workloads = []workload{
	{
		// The paper's own traffic: the quick Fig. 3, Table 2, Fig. 4 and
		// Fig. 5 sweeps, dominated by simulated threads.
		name:      "paper",
		scenarios: []string{"matmul", "cholesky", "microservices", "lammps"},
		opt:       harness.Opts{Quick: true},
	},
	{
		// The full chaos sweep on one engine per cell: dense timers and
		// the cluster layer, no procs.
		name:      "chaos",
		scenarios: []string{"chaos"},
		opt:       harness.Opts{},
	},
	{
		// The same sweep over two conservative-parallel engine shards:
		// every hop crosses a shard boundary inside lockstep windows.
		name:      "chaos_sharded",
		scenarios: []string{"chaos"},
		opt:       harness.Opts{Shards: 2},
		reference: "chaos",
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// expansion is a workload's cells at one seed, with the scenario each
// belongs to.
type expansion struct {
	opt    harness.Opts
	scens  []*harness.Scenario
	bounds []int // cells of scens[i] are jobs[bounds[i]:bounds[i+1]]
	jobs   []harness.Job
}

// expand resolves the workload's scenarios and expands their cells. At
// the golden seed every cell keeps its scenario's paper seed. At any
// other seed cell j runs under its own seed drawn from (seed, j): one
// seed for a whole sweep would give every cell the same arrival train,
// so the heavy cells (retry storms) would all grow or shrink together
// and the workload's total work would swing with the seed.
func (w workload) expand(seed uint64) (*expansion, error) {
	x := &expansion{opt: w.opt}
	for _, name := range w.scenarios {
		s, ok := harness.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("workload %s: no scenario %q", w.name, name)
		}
		jobs := s.Jobs(x.opt)
		if seed != goldenSeed {
			for j := range jobs {
				o := x.opt
				o.Seed = cellSeed(seed, len(x.jobs)+j)
				reseeded := s.Jobs(o)
				if len(reseeded) != len(jobs) {
					return nil, fmt.Errorf("scenario %s: cell count depends on the seed", name)
				}
				jobs[j] = reseeded[j]
			}
		}
		x.scens = append(x.scens, s)
		x.bounds = append(x.bounds, len(x.jobs))
		x.jobs = append(x.jobs, jobs...)
	}
	x.bounds = append(x.bounds, len(x.jobs))
	return x, nil
}

// cellSeed derives cell j's seed from the workload seed (splitmix64).
// It is never zero, which would select the paper seed.
func cellSeed(seed uint64, j int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(j+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		return 1
	}
	return z
}

// render reassembles ordered cell outputs into the scenarios' tables,
// laid out as `uschedsim` prints them.
func (x *expansion) render(outs []harness.Output) string {
	var sb strings.Builder
	for i, s := range x.scens {
		var results []harness.Result
		for _, o := range outs[x.bounds[i]:x.bounds[i+1]] {
			results = append(results, harness.Result{Value: o.Value, Samples: o.Samples, Spans: o.Spans})
		}
		sb.WriteString("==== " + s.Title + " ====\n")
		sb.WriteString(s.Render(x.opt, results))
		sb.WriteString("\n")
	}
	return sb.String()
}

// cellRun is one executed cell.
type cellRun struct {
	out  harness.Output
	host time.Duration
	// err is set when the cell panicked.
	err error
}

// runCells runs jobs one after another.
func runCells(jobs []harness.Job) []cellRun {
	runs := make([]cellRun, len(jobs))
	for i, j := range jobs {
		start := time.Now()
		runs[i].out, runs[i].err = runCell(j)
		runs[i].host = time.Since(start)
	}
	return runs
}

// runCell runs one job, turning a panic into an error.
func runCell(j harness.Job) (out harness.Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell %s panicked: %v", j.Name, r)
		}
	}()
	return j.Run(), nil
}

// counts are the deterministic work counters of one pass, read from the
// values the cells return.
type counts struct {
	// events and eventHost cover cells that report engine events.
	events    int64
	eventHost time.Duration
	// windows and windowWidth cover sharded cells.
	windows     int64
	windowWidth time.Duration
	// kernel counters of the Fig. 3 and Fig. 4 cells.
	preemptions, contextSwitches, migrations int64
	// cluster counters of the chaos cells.
	attempts, completed, retries, hedges, timeouts int64
}

// collect sums the counters over a pass's cells. Only eventHost is host
// time; every other field repeats exactly for a seed.
func collect(runs []cellRun) counts {
	var c counts
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		if r.out.Events > 0 {
			c.events += r.out.Events
			c.eventHost += r.host
		}
		c.windows += r.out.Windows
		c.windowWidth += time.Duration(r.out.WindowWidthSum)
		switch v := r.out.Value.(type) {
		case experiments.Figure3Cell:
			c.preemptions += v.Result.Preemptions
			c.contextSwitches += v.Result.ContextSwitches
			c.migrations += v.Result.Migrations
		case experiments.Figure4Point:
			c.preemptions += v.Result.Preemptions
			c.contextSwitches += v.Result.ContextSwitches
			c.migrations += v.Result.Migrations
		case experiments.ChaosCell:
			for _, n := range v.Stats.Nodes {
				c.attempts += int64(n.Dispatched)
			}
			c.completed += int64(v.Stats.EndToEnd.Completed)
			c.retries += int64(v.Stats.Resilience.Retries)
			c.hedges += int64(v.Stats.Resilience.Hedges)
			c.timeouts += int64(v.Stats.Resilience.Timeouts)
		}
	}
	return c
}
