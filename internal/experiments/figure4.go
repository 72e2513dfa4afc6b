package experiments

import (
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workloads/inference"
)

// Figure4Config parameterises the §5.5 microservices sweep.
type Figure4Config struct {
	Machine  hw.Config
	Rates    []float64
	Schemes  []inference.Scheme
	Requests int
	Batches  int
	Scale    float64
	Models   []inference.Model
	// TimelineRate is the rate whose per-request timeline is recorded
	// (paper: 0.33).
	TimelineRate float64
	Horizon      sim.Duration
	Seed         uint64
}

// PaperRates are Fig. 4's x-axis request rates.
func PaperRates() []float64 {
	return []float64{0.11, 0.12, 0.14, 0.17, 0.2, 0.25, 0.33, 0.5, 1.0}
}

// AllSchemes lists Fig. 4's five schemes.
func AllSchemes() []inference.Scheme {
	return []inference.Scheme{
		inference.BlEq, inference.BlOpt, inference.BlNone,
		inference.BlNoneSeq, inference.Coop,
	}
}

// DefaultFigure4 returns the paper-shaped configuration at 20% scale
// (works and rates scaled together, preserving the load factor).
func DefaultFigure4() Figure4Config {
	return Figure4Config{
		Machine:      hw.MareNostrum5(),
		Rates:        PaperRates(),
		Schemes:      AllSchemes(),
		Requests:     28,
		Batches:      8,
		Scale:        0.2,
		TimelineRate: 0.33,
		Horizon:      4000 * sim.Second,
		Seed:         9,
	}
}

// quickModels returns the 10%-work model profiles shared by the quick
// microservices configurations (Figure 4 and schedcmp).
func quickModels() []inference.Model {
	return []inference.Model{
		{Name: "llama", Work: 5770 * sim.Millisecond, SerialFrac: 0.06, Threads: 8, OptShare: 0.64},
		{Name: "gpt2", Work: 1010 * sim.Millisecond, SerialFrac: 0.06, Threads: 4, OptShare: 0.21},
		{Name: "roberta", Work: 676 * sim.Millisecond, SerialFrac: 0.06, Threads: 4, OptShare: 0.14},
	}
}

// QuickFigure4 is a fast, small variant.
func QuickFigure4() Figure4Config {
	models := quickModels()
	return Figure4Config{
		Machine:      hw.DualSocket16(),
		Rates:        []float64{0.33, 1.0},
		Schemes:      AllSchemes(),
		Requests:     8,
		Batches:      4,
		Scale:        0.2,
		Models:       models,
		TimelineRate: 0.33,
		Horizon:      4000 * sim.Second,
		Seed:         9,
	}
}

// Figure4Point is one (scheme, rate) measurement.
type Figure4Point struct {
	Scheme inference.Scheme
	Rate   float64
	inference.Result
}

// Figure4Result holds the sweep plus the rate-0.33 timelines.
type Figure4Result struct {
	Config Figure4Config
	Points []Figure4Point
	// Timelines maps scheme -> per-request trace at TimelineRate.
	Timelines map[inference.Scheme][]inference.RequestTrace
}

// Figure4Jobs expands the sweep into one job per (scheme, rate) point,
// scheme-major as AssembleFigure4 expects.
func Figure4Jobs(cfg Figure4Config) []harness.Job {
	var jobs []harness.Job
	for _, scheme := range cfg.Schemes {
		for _, rate := range cfg.Rates {
			scheme, rate := scheme, rate
			jobs = append(jobs, harness.Job{
				Name: fmt.Sprintf("%s/rate%.2f", scheme, rate),
				Run: func() harness.Output {
					sys := stack.New(cfg.Machine, cfg.Seed)
					res := inference.Run(sys, figure4Cell(cfg, scheme, rate))
					return harness.Output{
						Value:    Figure4Point{Scheme: scheme, Rate: rate, Result: res},
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

// figure4Cell is the microservices configuration of one (scheme, rate)
// point.
func figure4Cell(cfg Figure4Config, scheme inference.Scheme, rate float64) inference.Config {
	return inference.Config{
		Scheme:   scheme,
		Rate:     rate,
		Requests: cfg.Requests,
		Batches:  cfg.Batches,
		Scale:    cfg.Scale,
		Models:   cfg.Models,
		Horizon:  cfg.Horizon,
	}
}

// AssembleFigure4 rebuilds the point list and TimelineRate traces from
// ordered cell results.
func AssembleFigure4(cfg Figure4Config, results []harness.Result) *Figure4Result {
	out := &Figure4Result{Config: cfg, Timelines: make(map[inference.Scheme][]inference.RequestTrace)}
	for _, r := range results {
		p := r.Value.(Figure4Point)
		out.Points = append(out.Points, p)
		if p.Rate == cfg.TimelineRate {
			out.Timelines[p.Scheme] = p.Timeline
		}
	}
	return out
}

// RunFigure4 executes the sweep serially.
func RunFigure4(cfg Figure4Config) *Figure4Result {
	return AssembleFigure4(cfg, harness.Run(Figure4Jobs(cfg), 1))
}

// Point returns the measurement for (scheme, rate), or nil.
func (r *Figure4Result) Point(s inference.Scheme, rate float64) *Figure4Point {
	for i := range r.Points {
		if r.Points[i].Scheme == s && r.Points[i].Rate == rate {
			return &r.Points[i]
		}
	}
	return nil
}

// Render prints latency and throughput tables in Fig. 4's shape.
func (r *Figure4Result) Render() string {
	var sb strings.Builder
	write := func(title string, val func(p *Figure4Point) string) {
		fmt.Fprintf(&sb, "\n%s\n%14s", title, "scheme\\rate")
		for _, rate := range r.Config.Rates {
			fmt.Fprintf(&sb, "%9.2f", rate)
		}
		sb.WriteByte('\n')
		for _, s := range r.Config.Schemes {
			fmt.Fprintf(&sb, "%14s", s)
			for _, rate := range r.Config.Rates {
				p := r.Point(s, rate)
				if p == nil || p.TimedOut {
					fmt.Fprintf(&sb, "%9s", "—")
				} else {
					fmt.Fprintf(&sb, "%9s", val(p))
				}
			}
			sb.WriteByte('\n')
		}
	}
	write("Mean latency (s)", func(p *Figure4Point) string {
		return fmt.Sprintf("%.1f", p.Stats.Mean.Seconds())
	})
	write("Throughput (req/s)", func(p *Figure4Point) string {
		return fmt.Sprintf("%.3f", p.Throughput)
	})
	if tl, ok := r.Timelines[inferenceCoop()]; ok && len(tl) > 0 {
		fmt.Fprintf(&sb, "\nPer-request timeline at rate %.2f (sched_coop): submit -> complete (s)\n", r.Config.TimelineRate)
		for _, tr := range tl {
			fmt.Fprintf(&sb, "  req %2d: %8.1f -> %8.1f\n", tr.ID, tr.Submitted.Seconds(), tr.Completed.Seconds())
		}
	}
	return sb.String()
}

func inferenceCoop() inference.Scheme { return inference.Coop }
