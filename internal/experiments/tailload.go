package experiments

import (
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/hw"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workloads/inference"
)

// The tailload scenario generalises §5.5 beyond its single fixed
// Poisson workload: the microservices stack is driven at a sweep of
// offered loads under several arrival shapes (internal/load sources),
// and each scheme — SCHED_COOP against the raw kernel scheduling
// classes — is judged by tail latency against an SLO. The rendered
// knee table reports the max sustainable load per (scheme, shape): the
// highest offered load whose SLO-violation fraction stays within
// budget.

// TailScheme names one resource-management scheme under test: either a
// user-space coordination scheme or a bare kernel scheduling class.
type TailScheme struct {
	// Name labels the scheme row ("sched_coop", "fair", "rr", ...).
	Name string
	// Scheme is the inference-benchmark scheme to run.
	Scheme inference.Scheme
	// KernelClass is the kernel scheduling class ("" keeps the default
	// fair class).
	KernelClass string
}

// TailSchemes returns the compared schemes: SCHED_COOP plus the four
// kernel scheduling classes under the unpartitioned baseline stack.
func TailSchemes() []TailScheme {
	return []TailScheme{
		{Name: "sched_coop", Scheme: inference.Coop},
		{Name: "fair", Scheme: inference.BlNone, KernelClass: "fair"},
		{Name: "rr", Scheme: inference.BlNone, KernelClass: "rr"},
		{Name: "fifo", Scheme: inference.BlNone, KernelClass: "fifo"},
		{Name: "batch", Scheme: inference.BlNone, KernelClass: "batch"},
	}
}

// TailShape names one arrival shape and builds fresh single-use sources
// for it at a given offered load.
type TailShape struct {
	// Name labels the shape ("poisson", "bursty", ...).
	Name string
	// New builds a source offering (on average) rate requests per
	// second of unscaled paper time, for a run whose works are scaled
	// by scale. Sources are single-use; New is called once per cell.
	New func(rate, scale float64, requests int) load.Source
}

// TailShapes returns the swept arrival shapes. All five load.Source
// kinds are represented: open-loop Poisson, MMPP-style bursty, diurnal
// ramp, closed-loop clients with think time, and a deterministic
// uniform trace replay.
func TailShapes() []TailShape {
	return []TailShape{
		{Name: "poisson", New: func(rate, scale float64, _ int) load.Source {
			return &load.Poisson{Rate: rate / scale}
		}},
		// 40%/160% two-state modulation averaging the target rate, with
		// mean dwells of four mean inter-arrival times.
		{Name: "bursty", New: func(rate, scale float64, _ int) load.Source {
			return &load.Bursty{
				Base:      0.4 * rate / scale,
				Burst:     1.6 * rate / scale,
				MeanDwell: sim.Duration(4 / rate * scale * 1e9),
			}
		}},
		// Sinusoid between 40% and 160% of the target, two full cycles
		// across the request train.
		{Name: "ramp", New: func(rate, scale float64, requests int) load.Source {
			return &load.Ramp{
				Low:    0.4 * rate / scale,
				High:   1.6 * rate / scale,
				Period: sim.Duration(float64(requests) / rate / 2 * scale * 1e9),
			}
		}},
		// Four clients whose think time sets the offered load; the loop
		// closes over service latency, so overload self-throttles.
		{Name: "closed", New: func(rate, scale float64, _ int) load.Source {
			return &load.Closed{
				Clients: 4,
				Think:   sim.Duration(4 / rate * scale * 1e9),
			}
		}},
		// Deterministic uniform trace at exactly the target rate.
		{Name: "replay", New: func(rate, scale float64, requests int) load.Source {
			at := make([]sim.Duration, requests)
			for i := range at {
				at[i] = sim.Duration(float64(i) / rate * scale * 1e9)
			}
			return &load.Replay{At: at}
		}},
	}
}

// TailLoadConfig parameterises the sweep.
type TailLoadConfig struct {
	Machine hw.Config
	Shapes  []TailShape
	Schemes []TailScheme
	// Loads are offered request rates (req/s of unscaled paper time),
	// in increasing order.
	Loads []float64
	// SLO is the per-request latency objective; SLOBudget is the
	// tolerated violation fraction when locating the knee.
	SLO       sim.Duration
	SLOBudget float64
	// MaxInFlight, when non-zero, puts the admission stage in front of
	// the gateway in every cell.
	MaxInFlight int
	Requests    int
	Batches     int
	Scale       float64
	Models      []inference.Model
	Horizon     sim.Duration
	Seed        uint64
	// MetricsInterval, when positive, scrapes simulated-time telemetry
	// in every cell (inference.Config.MetricsInterval).
	MetricsInterval sim.Duration
}

// DefaultTailLoad returns the scaled sweep on the full 112-core
// machine.
func DefaultTailLoad() TailLoadConfig {
	return TailLoadConfig{
		Machine:   hw.MareNostrum5(),
		Shapes:    TailShapes(),
		Schemes:   TailSchemes(),
		Loads:     []float64{0.11, 0.2, 0.33, 0.67},
		SLO:       90 * sim.Second,
		SLOBudget: 0.1,
		Requests:  16,
		Batches:   8,
		Scale:     0.2,
		Horizon:   4000 * sim.Second,
		Seed:      23,
	}
}

// QuickTailLoad returns a small fast sweep for tests and benches.
func QuickTailLoad() TailLoadConfig {
	return TailLoadConfig{
		Machine:   hw.DualSocket16(),
		Shapes:    TailShapes()[:2], // poisson, bursty
		Schemes:   TailSchemes(),
		Loads:     []float64{0.5, 2.0, 3.0, 8.0},
		SLO:       600 * sim.Millisecond,
		SLOBudget: 0.15,
		Requests:  8,
		Batches:   4,
		Scale:     0.2,
		Models:    quickModels(),
		Horizon:   4000 * sim.Second,
		Seed:      23,
	}
}

// TailLoadCell is one (shape, scheme, load) measurement.
type TailLoadCell struct {
	Shape  string
	Scheme string
	Load   float64
	inference.Result
}

// TailLoadResult holds cells indexed [shape][scheme][load] in config
// order.
type TailLoadResult struct {
	Config TailLoadConfig
	Cells  [][][]TailLoadCell
}

// TailLoadJobs expands the sweep shape-major, then scheme, then load,
// as AssembleTailLoad expects.
func TailLoadJobs(cfg TailLoadConfig) []harness.Job {
	var jobs []harness.Job
	for _, shape := range cfg.Shapes {
		for _, scheme := range cfg.Schemes {
			for _, rate := range cfg.Loads {
				shape, scheme, rate := shape, scheme, rate
				jobs = append(jobs, harness.Job{
					Name: fmt.Sprintf("%s/%s/load%.2f", shape.Name, scheme.Name, rate),
					Run: func() harness.Output {
						sys := stack.NewWithClass(cfg.Machine, cfg.Seed, scheme.KernelClass)
						res := inference.Run(sys, tailLoadCell(cfg, shape, scheme, rate))
						return harness.Output{
							Value: TailLoadCell{
								Shape: shape.Name, Scheme: scheme.Name,
								Load: rate, Result: res,
							},
							SimTime:  res.Elapsed,
							TimedOut: res.TimedOut,
							Events:   int64(sys.Eng.Processed()),
							Samples:  res.Samples,
						}
					},
				})
			}
		}
	}
	return jobs
}

// tailLoadCell is the microservices configuration of one (shape,
// scheme, load) cell, with a fresh single-use arrival source; the
// scheme's kernel class belongs to the System.
func tailLoadCell(cfg TailLoadConfig, shape TailShape, scheme TailScheme, rate float64) inference.Config {
	return inference.Config{
		Scheme:          scheme.Scheme,
		Rate:            rate,
		Requests:        cfg.Requests,
		Batches:         cfg.Batches,
		Scale:           cfg.Scale,
		Models:          cfg.Models,
		Horizon:         cfg.Horizon,
		Arrivals:        shape.New(rate, cfg.Scale, cfg.Requests),
		SLO:             cfg.SLO,
		MaxInFlight:     cfg.MaxInFlight,
		MetricsInterval: cfg.MetricsInterval,
	}
}

// AssembleTailLoad rebuilds the shape × scheme × load grid from ordered
// cell results.
func AssembleTailLoad(cfg TailLoadConfig, results []harness.Result) *TailLoadResult {
	out := &TailLoadResult{Config: cfg}
	i := 0
	for range cfg.Shapes {
		grid := make([][]TailLoadCell, len(cfg.Schemes))
		for si := range cfg.Schemes {
			row := make([]TailLoadCell, len(cfg.Loads))
			for li := range cfg.Loads {
				row[li] = results[i].Value.(TailLoadCell)
				i++
			}
			grid[si] = row
		}
		out.Cells = append(out.Cells, grid)
	}
	return out
}

// RunTailLoad executes the sweep serially.
func RunTailLoad(cfg TailLoadConfig) *TailLoadResult {
	return AssembleTailLoad(cfg, harness.Run(TailLoadJobs(cfg), 1))
}

// Knee returns the max sustainable load for (shape, scheme) row, and
// whether any swept load sustained the SLO.
func (r *TailLoadResult) Knee(shapeIdx, schemeIdx int) (float64, bool) {
	var pts []load.LoadPoint
	for _, c := range r.Cells[shapeIdx][schemeIdx] {
		pts = append(pts, load.LoadPoint{
			Load: c.Load, Stats: c.Tail, TimedOut: c.TimedOut,
		})
	}
	return load.MaxSustainable(pts, r.Config.SLOBudget)
}

// Render prints, per arrival shape, throughput-vs-tail-latency tables
// (p99 latency, goodput, SLO-violation fraction), then the knee table:
// the max sustainable load per (scheme, shape).
func (r *TailLoadResult) Render() string {
	cfg := r.Config
	var sb strings.Builder
	header := func(title string) {
		fmt.Fprintf(&sb, "\n%s\n%14s", title, "scheme\\load")
		for _, l := range cfg.Loads {
			fmt.Fprintf(&sb, "%9.2f", l)
		}
		sb.WriteByte('\n')
	}
	cellTable := func(shapeIdx int, title string, val func(c *TailLoadCell) string) {
		header(title)
		for si, scheme := range cfg.Schemes {
			fmt.Fprintf(&sb, "%14s", scheme.Name)
			for li := range cfg.Loads {
				c := &r.Cells[shapeIdx][si][li]
				if c.TimedOut {
					fmt.Fprintf(&sb, "%9s", "—")
				} else {
					fmt.Fprintf(&sb, "%9s", val(c))
				}
			}
			sb.WriteByte('\n')
		}
	}
	for shi, shape := range cfg.Shapes {
		fmt.Fprintf(&sb, "\n--- arrivals: %s ---\n", shape.Name)
		cellTable(shi, fmt.Sprintf("p99 latency (s, SLO %.1fs)", cfg.SLO.Seconds()),
			func(c *TailLoadCell) string {
				return fmt.Sprintf("%.2f", c.Tail.P99.Seconds())
			})
		cellTable(shi, "goodput (SLO-met req/s)", func(c *TailLoadCell) string {
			return fmt.Sprintf("%.3f", c.Tail.Goodput)
		})
		cellTable(shi, "SLO violation fraction", func(c *TailLoadCell) string {
			return fmt.Sprintf("%.2f", c.Tail.ViolationFrac)
		})
	}
	fmt.Fprintf(&sb, "\nMax sustainable load (req/s, violation fraction <= %.2f)\n%14s",
		cfg.SLOBudget, "scheme\\shape")
	for _, shape := range cfg.Shapes {
		fmt.Fprintf(&sb, "%9s", shape.Name)
	}
	sb.WriteByte('\n')
	for si, scheme := range cfg.Schemes {
		fmt.Fprintf(&sb, "%14s", scheme.Name)
		for shi := range cfg.Shapes {
			if knee, ok := r.Knee(shi, si); ok {
				fmt.Fprintf(&sb, "%9.2f", knee)
			} else {
				fmt.Fprintf(&sb, "%9s", "—")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
