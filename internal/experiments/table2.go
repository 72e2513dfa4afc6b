package experiments

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/harness"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workloads/cholesky"
)

// Table2Degree is one oversubscription level (outer x inner threads).
type Table2Degree struct {
	Name         string
	OuterThreads int
	InnerThreads int
}

// Table2Combo is one runtime composition row.
type Table2Combo struct {
	Outer cholesky.OuterKind
	Inner cholesky.InnerKind
	Impl  blas.Impl
}

// Table2Config parameterises the §5.4 composition study.
type Table2Config struct {
	Machine hw.Config
	N, Tile int
	Combos  []Table2Combo
	Degrees []Table2Degree
	Horizon sim.Duration
	Seed    uint64
}

// DefaultTable2 is the scaled paper configuration (paper: N=32768,
// TS=1024, degrees 8x8 / 14x14 / 28x28 on 112 cores).
func DefaultTable2() Table2Config {
	return Table2Config{
		Machine: hw.MareNostrum5(),
		N:       8192,
		Tile:    1024,
		Combos:  PaperCombos(),
		Degrees: []Table2Degree{
			{Name: "Mild", OuterThreads: 8, InnerThreads: 8},
			{Name: "Medium", OuterThreads: 14, InnerThreads: 14},
			{Name: "High", OuterThreads: 28, InnerThreads: 28},
		},
		Horizon: 600 * sim.Second,
		Seed:    5,
	}
}

// QuickTable2 is a fast, small variant.
func QuickTable2() Table2Config {
	return Table2Config{
		Machine: hw.DualSocket16(),
		N:       4096,
		Tile:    512,
		Combos:  PaperCombos(),
		Degrees: []Table2Degree{
			{Name: "Mild", OuterThreads: 4, InnerThreads: 4},
			{Name: "High", OuterThreads: 8, InnerThreads: 8},
		},
		Horizon: 60 * sim.Second,
		Seed:    5,
	}
}

// PaperCombos returns Table 2's five composition rows.
func PaperCombos() []Table2Combo {
	return []Table2Combo{
		{cholesky.OuterGnu, cholesky.InnerLlvm, blas.OpenBLAS},
		{cholesky.OuterTbb, cholesky.InnerLlvm, blas.OpenBLAS},
		{cholesky.OuterTbb, cholesky.InnerGnu, blas.BLIS},
		{cholesky.OuterTbb, cholesky.InnerPth, blas.BLIS},
		{cholesky.OuterGnu, cholesky.InnerPth, blas.BLIS},
	}
}

// Table2Entry is one (combo, degree) measurement pair.
type Table2Entry struct {
	Combo    Table2Combo
	Degree   Table2Degree
	Baseline cholesky.Result
	Coop     cholesky.Result
}

// Speedup returns the SCHED_COOP speedup over baseline.
func (e Table2Entry) Speedup() float64 {
	if e.Baseline.GFLOPS == 0 || e.Baseline.TimedOut || e.Coop.TimedOut {
		return 0
	}
	return e.Coop.GFLOPS / e.Baseline.GFLOPS
}

// Table2Result holds the sweep.
type Table2Result struct {
	Config  Table2Config
	Entries []Table2Entry
}

// implName abbreviates a BLAS implementation the way Table 2 does.
func implName(impl blas.Impl) string {
	if impl == blas.BLIS {
		return "blis"
	}
	return "opb"
}

// Table2Jobs expands the study into one job per (combo, degree, mode)
// simulation, in the order AssembleTable2 expects: combo-major, then
// degree, then baseline before SCHED_COOP.
func Table2Jobs(cfg Table2Config) []harness.Job {
	var jobs []harness.Job
	for _, combo := range cfg.Combos {
		for _, deg := range cfg.Degrees {
			for _, mode := range []stack.Mode{stack.ModeBaseline, stack.ModeCoop} {
				combo, deg, mode := combo, deg, mode
				jobs = append(jobs, harness.Job{
					Name: fmt.Sprintf("%s-%s-%s/%s/%s", combo.Outer, combo.Inner, implName(combo.Impl), deg.Name, mode),
					Run: func() harness.Output {
						sys := stack.New(cfg.Machine, cfg.Seed)
						res := cholesky.Run(sys, cholesky.Config{
							Mode:         mode,
							N:            cfg.N,
							TileSize:     cfg.Tile,
							Outer:        combo.Outer,
							Inner:        combo.Inner,
							Impl:         combo.Impl,
							OuterThreads: deg.OuterThreads,
							InnerThreads: deg.InnerThreads,
							Horizon:      cfg.Horizon,
						})
						return harness.Output{Value: res, SimTime: res.Elapsed, TimedOut: res.TimedOut, Events: int64(sys.Eng.Processed())}
					},
				})
			}
		}
	}
	return jobs
}

// AssembleTable2 pairs ordered (baseline, coop) cell results back into
// Table2Entry rows.
func AssembleTable2(cfg Table2Config, results []harness.Result) *Table2Result {
	out := &Table2Result{Config: cfg}
	i := 0
	for _, combo := range cfg.Combos {
		for _, deg := range cfg.Degrees {
			base := results[i].Value.(cholesky.Result)
			coop := results[i+1].Value.(cholesky.Result)
			i += 2
			out.Entries = append(out.Entries, Table2Entry{
				Combo:    combo,
				Degree:   deg,
				Baseline: base,
				Coop:     coop,
			})
		}
	}
	return out
}

// RunTable2 executes the composition study serially.
func RunTable2(cfg Table2Config) *Table2Result {
	return AssembleTable2(cfg, harness.Run(Table2Jobs(cfg), 1))
}

// Render prints Table 2's layout: per combo, baseline GFLOP/s and
// SCHED_COOP speedup for each degree.
func (r *Table2Result) Render() string {
	t := &metrics.Table{Header: []string{"Out", "Inn", "BLAS"}}
	for _, d := range r.Config.Degrees {
		t.Header = append(t.Header, d.Name)
	}
	byCombo := map[Table2Combo][]Table2Entry{}
	for _, e := range r.Entries {
		byCombo[e.Combo] = append(byCombo[e.Combo], e)
	}
	for _, combo := range r.Config.Combos {
		row := []string{combo.Outer.String(), combo.Inner.String(), implName(combo.Impl)}
		for _, e := range byCombo[combo] {
			cell := "timeout"
			if !e.Baseline.TimedOut {
				cell = fmt.Sprintf("%.0f, %.2fx", e.Baseline.GFLOPS, e.Speedup())
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t.String()
}
