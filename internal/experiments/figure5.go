package experiments

import (
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads/md"
)

// Figure5Config parameterises the §5.6 LAMMPS+DeePMD study.
type Figure5Config struct {
	Scenarios []md.Scenario
	// Base is the template configuration; the scenario field is
	// overridden per run (and ranks halved for colocation).
	Base md.Config
}

// AllScenarios lists Fig. 5a's seven bars.
func AllScenarios() []md.Scenario {
	return []md.Scenario{
		md.Exclusive,
		md.ColocationNode, md.ColocationSocket,
		md.CoexecutionNode, md.CoexecutionSocket,
		md.SchedCoopNode, md.SchedCoopSocket,
	}
}

// DefaultFigure5 returns the paper-shaped configuration (shortened to 20
// steps to keep full runs tractable; shapes are step-count invariant).
func DefaultFigure5() Figure5Config {
	base := md.DefaultConfig(md.Exclusive)
	base.Steps = 20
	base.InitWork = 8 * sim.Second
	return Figure5Config{Scenarios: AllScenarios(), Base: base}
}

// QuickFigure5 is a fast, small variant.
func QuickFigure5() Figure5Config {
	return Figure5Config{
		Scenarios: AllScenarios(),
		Base: md.Config{
			Machine:          hw.DualSocket16(),
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
			Seed:             11,
		},
	}
}

// Figure5Entry is one scenario's result.
type Figure5Entry struct {
	Scenario md.Scenario
	md.Result
}

// Figure5Result holds all scenarios.
type Figure5Result struct {
	Config  Figure5Config
	Entries []Figure5Entry
}

// Figure5Jobs expands the study into one job per MD scenario, in the
// order AssembleFigure5 expects.
func Figure5Jobs(cfg Figure5Config) []harness.Job {
	var jobs []harness.Job
	for _, s := range cfg.Scenarios {
		s := s
		c := cfg.Base
		c.Scenario = s
		if s.Colocated() {
			c.RanksPerEnsemble = cfg.Base.RanksPerEnsemble / 2
		}
		jobs = append(jobs, harness.Job{
			Name: s.String(),
			Run: func() harness.Output {
				var events int64
				c := c
				c.Events = &events
				res := md.Run(c)
				return harness.Output{
					Value:    Figure5Entry{Scenario: s, Result: res},
					SimTime:  res.Elapsed,
					TimedOut: res.TimedOut,
					Events:   events,
				}
			},
		})
	}
	return jobs
}

// AssembleFigure5 collects ordered scenario results.
func AssembleFigure5(cfg Figure5Config, results []harness.Result) *Figure5Result {
	out := &Figure5Result{Config: cfg}
	for _, r := range results {
		out.Entries = append(out.Entries, r.Value.(Figure5Entry))
	}
	return out
}

// RunFigure5 executes all scenarios serially.
func RunFigure5(cfg Figure5Config) *Figure5Result {
	return AssembleFigure5(cfg, harness.Run(Figure5Jobs(cfg), 1))
}

// Entry returns the result for a scenario, or nil.
func (r *Figure5Result) Entry(s md.Scenario) *Figure5Entry {
	for i := range r.Entries {
		if r.Entries[i].Scenario == s {
			return &r.Entries[i]
		}
	}
	return nil
}

// Render prints Fig. 5a's bars and 5b's bandwidth summary.
func (r *Figure5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("\na) Performance (Katom-step/s per ensemble; aggregate)\n")
	for _, e := range r.Entries {
		if e.TimedOut {
			fmt.Fprintf(&sb, "%22s  timeout\n", e.Scenario)
			continue
		}
		fmt.Fprintf(&sb, "%22s  ", e.Scenario)
		for _, v := range e.PerEnsemble {
			fmt.Fprintf(&sb, "%7.1f", v)
		}
		fmt.Fprintf(&sb, "   agg %7.1f\n", e.Aggregate)
	}
	sb.WriteString("\nb) Average total memory bandwidth (GB/s)\n")
	for _, e := range r.Entries {
		if e.TimedOut {
			continue
		}
		fmt.Fprintf(&sb, "%22s  %7.2f (peak %7.2f)\n", e.Scenario, e.AvgBandwidth, e.BW.Max())
	}
	return sb.String()
}

// RenderBWTrace prints an ASCII bandwidth-over-time trace for a scenario
// (Fig. 5b's curve), resampled to n points.
func (r *Figure5Result) RenderBWTrace(s md.Scenario, n int) string {
	e := r.Entry(s)
	if e == nil || e.BW.Len() == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "\n%s bandwidth trace (GB/s)\n", s)
	ts, vs := e.BW.Resample(0, sim.Time(e.Elapsed), n)
	max := e.BW.Max()
	for i := range ts {
		bars := 0
		if max > 0 {
			bars = int(vs[i] / max * 60)
		}
		fmt.Fprintf(&sb, "%8.1fs %7.1f %s\n", ts[i].Seconds(), vs[i], strings.Repeat("#", bars))
	}
	return sb.String()
}
