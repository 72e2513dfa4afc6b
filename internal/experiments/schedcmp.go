package experiments

import (
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workloads/inference"
	"repro/internal/workloads/matmul"
)

// SchedCmpConfig parameterises the kernel-scheduler ablation: the same
// Baseline-mode workloads (no USF) swept across kernel scheduling
// classes × oversubscription factors, asking the question the paper's
// fixed-kernel evaluation cannot — against *which* kernel scheduler does
// user-space coordination win?
type SchedCmpConfig struct {
	Machine hw.Config
	// Classes are the kernel scheduling classes to compare (the rows).
	Classes []string
	// Oversub are the oversubscription factors (the columns). For the
	// matmul leg a factor f widens each task's inner OpenMP team to f
	// threads (≈ f runnable threads per core with a full outer pool);
	// for the microservices leg it multiplies the base request rate.
	Oversub []int

	// Matmul leg (§5.3 shape).
	N, TaskSize int
	Reps        int

	// Microservices leg (§5.5 shape, bl-none scheme: the raw kernel
	// scheduler with no partitioning).
	Rate     float64
	Requests int
	Batches  int
	Scale    float64
	Models   []inference.Model

	Horizon sim.Duration
	Seed    uint64
}

// DefaultSchedCmp returns the scaled ablation on the full 112-core
// machine.
func DefaultSchedCmp() SchedCmpConfig {
	return SchedCmpConfig{
		Machine:  hw.MareNostrum5(),
		Classes:  kernel.ClassNames(),
		Oversub:  []int{1, 2, 4, 8},
		N:        4096,
		TaskSize: 1024,
		Reps:     1,
		Rate:     0.33,
		Requests: 16,
		Batches:  8,
		Scale:    0.2,
		Horizon:  4000 * sim.Second,
		Seed:     17,
	}
}

// QuickSchedCmp returns a small fast ablation for tests and benches.
func QuickSchedCmp() SchedCmpConfig {
	return SchedCmpConfig{
		Machine:  hw.DualSocket16(),
		Classes:  kernel.ClassNames(),
		Oversub:  []int{1, 2, 4},
		N:        1024,
		TaskSize: 256,
		Reps:     1,
		Rate:     0.33,
		Requests: 6,
		Batches:  4,
		Scale:    0.2,
		Models:   quickModels(),
		Horizon:  4000 * sim.Second,
		Seed:     17,
	}
}

// SchedCmpMatmulCell is one (class, factor) matmul measurement.
type SchedCmpMatmulCell struct {
	Class  string
	Factor int
	matmul.Result
}

// SchedCmpServiceCell is one (class, factor) microservices measurement.
type SchedCmpServiceCell struct {
	Class  string
	Factor int
	inference.Result
}

// SchedCmpResult holds both legs: cells indexed [class][factor] in
// config order.
type SchedCmpResult struct {
	Config   SchedCmpConfig
	Matmul   [][]SchedCmpMatmulCell
	Services [][]SchedCmpServiceCell
}

// SchedCmpJobs expands the ablation into one job per cell: the matmul
// leg first, then the microservices leg, class-major within each as
// AssembleSchedCmp expects.
func SchedCmpJobs(cfg SchedCmpConfig) []harness.Job {
	var jobs []harness.Job
	for _, class := range cfg.Classes {
		for _, f := range cfg.Oversub {
			class, f := class, f
			jobs = append(jobs, harness.Job{
				Name: fmt.Sprintf("matmul/%s/oversub%d", class, f),
				Run: func() harness.Output {
					sys := stack.NewWithClass(cfg.Machine, cfg.Seed, class)
					res := matmul.Run(sys, schedCmpMatmul(cfg, f))
					return harness.Output{
						Value:    SchedCmpMatmulCell{Class: class, Factor: f, Result: res},
						SimTime:  res.Elapsed,
						TimedOut: res.TimedOut,
						Events:   int64(sys.Eng.Processed()),
					}
				},
			})
		}
	}
	for _, class := range cfg.Classes {
		for _, f := range cfg.Oversub {
			class, f := class, f
			jobs = append(jobs, harness.Job{
				Name: fmt.Sprintf("services/%s/oversub%d", class, f),
				Run: func() harness.Output {
					sys := stack.NewWithClass(cfg.Machine, cfg.Seed, class)
					res := inference.Run(sys, inference.Config{
						Scheme:   inference.BlNone,
						Rate:     cfg.Rate * float64(f),
						Requests: cfg.Requests,
						Batches:  cfg.Batches,
						Scale:    cfg.Scale,
						Models:   cfg.Models,
						Horizon:  cfg.Horizon,
					})
					return harness.Output{
						Value:    SchedCmpServiceCell{Class: class, Factor: f, Result: res},
						SimTime:  res.Elapsed,
						TimedOut: res.TimedOut,
						Events:   int64(sys.Eng.Processed()),
					}
				},
			})
		}
	}
	return jobs
}

// schedCmpMatmul is the matmul leg's configuration at oversubscription
// factor f; the kernel class belongs to the System.
func schedCmpMatmul(cfg SchedCmpConfig, f int) matmul.Config {
	return matmul.Config{
		Mode:       stack.ModeBaseline,
		N:          cfg.N,
		TaskSize:   cfg.TaskSize,
		OMPThreads: f,
		Reps:       cfg.Reps,
		Horizon:    cfg.Horizon,
	}
}

// AssembleSchedCmp rebuilds the class × factor grids from cell results
// ordered as SchedCmpJobs declared them.
func AssembleSchedCmp(cfg SchedCmpConfig, results []harness.Result) *SchedCmpResult {
	out := &SchedCmpResult{Config: cfg}
	i := 0
	for range cfg.Classes {
		row := make([]SchedCmpMatmulCell, len(cfg.Oversub))
		for ci := range cfg.Oversub {
			row[ci] = results[i].Value.(SchedCmpMatmulCell)
			i++
		}
		out.Matmul = append(out.Matmul, row)
	}
	for range cfg.Classes {
		row := make([]SchedCmpServiceCell, len(cfg.Oversub))
		for ci := range cfg.Oversub {
			row[ci] = results[i].Value.(SchedCmpServiceCell)
			i++
		}
		out.Services = append(out.Services, row)
	}
	return out
}

// RunSchedCmp executes the ablation serially.
func RunSchedCmp(cfg SchedCmpConfig) *SchedCmpResult {
	return AssembleSchedCmp(cfg, harness.Run(SchedCmpJobs(cfg), 1))
}

// Render prints the two legs as class × oversubscription tables:
// absolute numbers plus each class's ratio to the fair row ("—" marks
// timeouts).
func (r *SchedCmpResult) Render() string {
	cfg := r.Config
	var sb strings.Builder
	header := func(title string) {
		fmt.Fprintf(&sb, "\n%s\n%14s", title, "class\\oversub")
		for _, f := range cfg.Oversub {
			fmt.Fprintf(&sb, "%9s", fmt.Sprintf("x%d", f))
		}
		sb.WriteByte('\n')
	}
	fairRow := -1
	for ri, class := range cfg.Classes {
		if class == "fair" {
			fairRow = ri
		}
	}

	header(fmt.Sprintf("a) nested matmul GFLOP/s (N=%d, ts=%d, baseline stack)", cfg.N, cfg.TaskSize))
	for ri, class := range cfg.Classes {
		fmt.Fprintf(&sb, "%14s", class)
		for ci := range cfg.Oversub {
			c := r.Matmul[ri][ci]
			if c.TimedOut {
				fmt.Fprintf(&sb, "%9s", "—")
			} else {
				fmt.Fprintf(&sb, "%9.0f", c.GFLOPS)
			}
		}
		sb.WriteByte('\n')
	}
	if fairRow >= 0 {
		header("b) matmul speedup vs fair")
		for ri, class := range cfg.Classes {
			fmt.Fprintf(&sb, "%14s", class)
			for ci := range cfg.Oversub {
				c, base := r.Matmul[ri][ci], r.Matmul[fairRow][ci]
				if c.TimedOut || base.TimedOut || base.GFLOPS == 0 {
					fmt.Fprintf(&sb, "%9s", "—")
				} else {
					fmt.Fprintf(&sb, "%9.2f", c.GFLOPS/base.GFLOPS)
				}
			}
			sb.WriteByte('\n')
		}
	}

	header("c) microservices p99 latency (s, bl-none scheme)")
	for ri, class := range cfg.Classes {
		fmt.Fprintf(&sb, "%14s", class)
		for ci := range cfg.Oversub {
			c := r.Services[ri][ci]
			if c.TimedOut {
				fmt.Fprintf(&sb, "%9s", "—")
			} else {
				fmt.Fprintf(&sb, "%9.1f", c.Stats.P99.Seconds())
			}
		}
		sb.WriteByte('\n')
	}
	header("d) microservices preemptions")
	for ri, class := range cfg.Classes {
		fmt.Fprintf(&sb, "%14s", class)
		for ci := range cfg.Oversub {
			s := r.Services[ri][ci]
			if s.TimedOut {
				fmt.Fprintf(&sb, "%9s", "—")
			} else {
				fmt.Fprintf(&sb, "%9d", s.Preemptions)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
