// Package experiments drives the paper's tables and figures. Each
// artefact exposes three layers: a *Jobs function expanding its config
// into independent harness cells (one fresh sim.Engine per cell), an
// Assemble* function rebuilding the typed result from ordered cell
// outputs, and a serial Run* convenience wrapper. cmd/uschedsim runs
// the same jobs through the parallel harness via the scenario registry
// (see scenarios.go); bench_test.go regenerates the artefacts directly.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workloads/matmul"
)

// Figure3Config parameterises the §5.3 matmul heatmap sweep.
type Figure3Config struct {
	Machine hw.Config
	// N is the matrix dimension (paper 32768; scaled default 8192).
	N int
	// TaskSizes are the heatmap rows (largest first, like the paper).
	TaskSizes []int
	// OMPThreads are the heatmap columns.
	OMPThreads []int
	// Modes to evaluate (paper: Baseline, Manual, SCHED_COOP, Original).
	Modes   []stack.Mode
	Reps    int
	Horizon sim.Duration
	Seed    uint64
}

// DefaultFigure3 returns the scaled sweep: N=8192 on the full 112-core
// machine, rows/columns matching the paper's shape.
func DefaultFigure3() Figure3Config {
	return Figure3Config{
		Machine:    hw.MareNostrum5(),
		N:          8192,
		TaskSizes:  []int{8192, 4096, 2048, 1024, 512},
		OMPThreads: []int{1, 2, 4, 8, 14, 28, 56},
		Modes:      []stack.Mode{stack.ModeBaseline, stack.ModeManual, stack.ModeCoop, stack.ModeOriginal},
		Reps:       1,
		Horizon:    120 * sim.Second,
		Seed:       3,
	}
}

// QuickFigure3 returns a small sweep for tests and benches.
func QuickFigure3() Figure3Config {
	return Figure3Config{
		Machine:    hw.DualSocket16(),
		N:          2048,
		TaskSizes:  []int{2048, 1024, 512},
		OMPThreads: []int{1, 2, 4, 8},
		Modes:      []stack.Mode{stack.ModeBaseline, stack.ModeManual, stack.ModeCoop, stack.ModeOriginal},
		Reps:       1,
		Horizon:    5 * sim.Second,
		Seed:       3,
	}
}

// Figure3Cell is one heatmap entry.
type Figure3Cell struct {
	TaskSize   int
	OMPThreads int
	matmul.Result
}

// Figure3Result holds the full sweep: Cells[mode][row][col].
type Figure3Result struct {
	Config Figure3Config
	Cells  map[stack.Mode][][]Figure3Cell
}

// Figure3Jobs expands the sweep into one job per heatmap cell, in the
// mode-major order AssembleFigure3 expects.
func Figure3Jobs(cfg Figure3Config) []harness.Job {
	var jobs []harness.Job
	for _, mode := range cfg.Modes {
		for _, ts := range cfg.TaskSizes {
			for _, th := range cfg.OMPThreads {
				mode, ts, th := mode, ts, th
				jobs = append(jobs, harness.Job{
					Name: fmt.Sprintf("%s/tasks%d/omp%d", mode, ts, th),
					Run: func() harness.Output {
						var events int64
						res := matmul.Run(matmul.Config{
							Machine:    cfg.Machine,
							Mode:       mode,
							N:          cfg.N,
							TaskSize:   ts,
							OMPThreads: th,
							Reps:       cfg.Reps,
							Horizon:    cfg.Horizon,
							Seed:       cfg.Seed,
							Events:     &events,
						})
						return harness.Output{
							Value:    Figure3Cell{TaskSize: ts, OMPThreads: th, Result: res},
							SimTime:  res.Elapsed,
							TimedOut: res.TimedOut,
							Events:   events,
						}
					},
				})
			}
		}
	}
	return jobs
}

// AssembleFigure3 rebuilds the heatmap grids from cell results ordered
// as Figure3Jobs declared them.
func AssembleFigure3(cfg Figure3Config, results []harness.Result) *Figure3Result {
	out := &Figure3Result{Config: cfg, Cells: make(map[stack.Mode][][]Figure3Cell)}
	i := 0
	for _, mode := range cfg.Modes {
		grid := make([][]Figure3Cell, len(cfg.TaskSizes))
		for ri := range cfg.TaskSizes {
			row := make([]Figure3Cell, len(cfg.OMPThreads))
			for ci := range cfg.OMPThreads {
				row[ci] = results[i].Value.(Figure3Cell)
				i++
			}
			grid[ri] = row
		}
		out.Cells[mode] = grid
	}
	return out
}

// RunFigure3 executes the sweep serially (tests and benches run it
// directly; cmd/uschedsim runs the same jobs through the parallel
// harness).
func RunFigure3(cfg Figure3Config) *Figure3Result {
	return AssembleFigure3(cfg, harness.Run(Figure3Jobs(cfg), 1))
}

// Speedup returns cell-wise mode/baseline GFLOPS ratio (0 where either
// timed out).
func (r *Figure3Result) Speedup(mode stack.Mode, row, col int) float64 {
	base := r.Cells[stack.ModeBaseline][row][col]
	m := r.Cells[mode][row][col]
	if base.TimedOut || m.TimedOut || base.GFLOPS == 0 {
		return 0
	}
	return m.GFLOPS / base.GFLOPS
}

// Render prints the four heatmaps in the paper's layout (performance for
// Baseline, element-wise speedups for the rest; "—" marks timeouts).
func (r *Figure3Result) Render() string {
	var sb strings.Builder
	cfg := r.Config
	header := func(title string) {
		fmt.Fprintf(&sb, "\n%s\n%17s", title, "tasks\\omp")
		for _, thr := range cfg.OMPThreads {
			fmt.Fprintf(&sb, "%9d", thr)
		}
		sb.WriteByte('\n')
	}
	rowLabel := func(ts int) string {
		nb := cfg.N / ts
		return fmt.Sprintf("%d-%d", nb*nb, ts)
	}
	header("a) Baseline performance (GFLOP/s)")
	for ri, ts := range cfg.TaskSizes {
		fmt.Fprintf(&sb, "%17s", rowLabel(ts))
		for ci := range cfg.OMPThreads {
			c := r.Cells[stack.ModeBaseline][ri][ci]
			if c.TimedOut {
				sb.WriteString(fmt.Sprintf("%9s", "—"))
			} else {
				fmt.Fprintf(&sb, "%9.0f", c.GFLOPS)
			}
		}
		sb.WriteByte('\n')
	}
	for _, mode := range cfg.Modes {
		if mode == stack.ModeBaseline {
			continue
		}
		header(fmt.Sprintf("%s speedup vs baseline", mode))
		for ri, ts := range cfg.TaskSizes {
			fmt.Fprintf(&sb, "%17s", rowLabel(ts))
			for ci := range cfg.OMPThreads {
				s := r.Speedup(mode, ri, ci)
				if s == 0 {
					sb.WriteString(fmt.Sprintf("%9s", "—"))
				} else {
					fmt.Fprintf(&sb, "%9.2f", s)
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
