package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The chaos scenario asks the production-scale question the static
// fleet cannot: when a node dies (or browns out) under load, does the
// serving stack degrade gracefully or collapse into a retry storm? A
// SimService fleet (lightweight queue-model nodes, so thousands of
// requests simulate in milliseconds) is driven by an open-loop Poisson
// source while a deterministic FaultPlan kills and recovers — or
// browns out — one node mid-run. The sweep crosses fault leg × retry
// policy × router and reports goodput, tails, failure/retry/hedge/shed
// counts, and a time-to-recover metric. The headline is the classic
// metastable-failure result: naive unlimited retries amplify the
// outage past the fleet's knee and hold goodput down long after the
// node returns, while a token-bucket retry budget (plus bounded node
// queues shedding excess work) converts the overload into fast
// failures and recovers promptly.

// chaosQuantum is the sweep's timeline grid: every configured duration
// is a multiple of it, every random duration (service times, backoffs)
// is rounded up to a multiple of it, and PhasedPoisson gives request id
// the unique sub-quantum phase id+1. Events of different requests can
// then never share an exact nanosecond — the one tie the sharded
// runtime's determinism contract excludes (see sim/pdes) and which a
// retry storm's event density would otherwise produce by birthday
// paradox. 2^15 ns of phase space bounds Requests at 32767.
const chaosQuantum = 32768 * sim.Nanosecond

// chaosAlign snaps a human-readable duration down onto the grid.
func chaosAlign(d sim.Duration) sim.Duration { return d - d%chaosQuantum }

// ChaosPolicy names one client-side retry policy and builds fresh
// single-use instances (the retry budget is stateful).
type ChaosPolicy struct {
	// Name labels the policy in rows ("none", "unlimited", ...).
	Name string
	// New builds the policy for one cell.
	New func(cfg ChaosConfig) load.RetryPolicy
}

// ChaosFault names one fault leg and builds its schedule.
type ChaosFault struct {
	// Name labels the leg ("kill", "brownout").
	Name string
	// Plan builds the fault schedule for one cell.
	Plan func(cfg ChaosConfig) *cluster.FaultPlan
	// ClearAt is the instant the fault is gone (recovery applied,
	// brownout over) — the baseline the time-to-recover metric measures
	// from.
	ClearAt sim.Duration
}

// ChaosConfig parameterises the fault-injection sweep.
type ChaosConfig struct {
	// Nodes is the fleet size; Workers, QueueCap, and MeanService
	// parameterise each node's SimService backend.
	Nodes       int
	Workers     int
	QueueCap    int
	MeanService sim.Duration

	Net      cluster.Network
	Sessions int

	// Rate is the offered load (req/s); Requests the train length.
	Rate     float64
	Requests int

	// FaultAt and ClearAt time the fault legs: the kill leg crashes a
	// node at FaultAt and recovers it at ClearAt; the brownout leg
	// degrades it over the same window.
	FaultAt sim.Duration
	ClearAt sim.Duration
	// BrownoutSlowdown is the brownout leg's service-time multiplier.
	BrownoutSlowdown float64

	// Timeout, Backoff, MaxBackoff, BudgetRatio, BudgetBurst, and
	// HedgeDelay parameterise the retry policies.
	Timeout     sim.Duration
	Backoff     sim.Duration
	MaxBackoff  sim.Duration
	BudgetRatio float64
	BudgetBurst float64
	HedgeDelay  sim.Duration

	// Health is the passive outlier-ejection config applied to every
	// cell.
	Health cluster.HealthConfig

	// SLO judges goodput and time-to-recover: a completion within it is
	// SLO-met.
	SLO sim.Duration

	Faults   []ChaosFault
	Policies []ChaosPolicy
	Routers  []ClusterRouter

	Horizon sim.Duration
	Seed    uint64
	Shards  int

	// MetricsInterval and Spans export telemetry like the cluster
	// sweep. Spans are recorded only when exported: the time-to-recover
	// metric bins SLO-met replies on the end-to-end meter as they arrive.
	MetricsInterval sim.Duration
	Spans           bool

	// RecoverWindow and RecoverFrac define recovery: the first window
	// after ClearAt in which SLO-met completions arrive at ≥
	// RecoverFrac × Rate, sustained for two consecutive windows.
	// Non-positive RecoverWindow means 500ms.
	RecoverWindow sim.Duration
	RecoverFrac   float64
}

// ChaosPolicies returns the compared retry policies: no retries at
// all, naive unlimited retries (the metastable-collapse fuel), retries
// under a token-bucket budget, and budgeted retries with hedging.
func ChaosPolicies() []ChaosPolicy {
	return []ChaosPolicy{
		{Name: "none", New: func(ChaosConfig) load.RetryPolicy {
			return load.RetryPolicy{}
		}},
		{Name: "unlimited", New: func(cfg ChaosConfig) load.RetryPolicy {
			return load.RetryPolicy{
				Timeout:     cfg.Timeout,
				MaxAttempts: 0, // retry forever
				BaseBackoff: cfg.Backoff,
				MaxBackoff:  cfg.MaxBackoff,
				Quantum:     chaosQuantum,
			}
		}},
		{Name: "budgeted", New: func(cfg ChaosConfig) load.RetryPolicy {
			return load.RetryPolicy{
				Timeout:     cfg.Timeout,
				MaxAttempts: 4,
				BaseBackoff: cfg.Backoff,
				MaxBackoff:  cfg.MaxBackoff,
				Budget:      load.NewRetryBudget(cfg.BudgetRatio, cfg.BudgetBurst),
				Quantum:     chaosQuantum,
			}
		}},
		{Name: "hedged", New: func(cfg ChaosConfig) load.RetryPolicy {
			return load.RetryPolicy{
				Timeout:     cfg.Timeout,
				MaxAttempts: 4,
				BaseBackoff: cfg.Backoff,
				MaxBackoff:  cfg.MaxBackoff,
				Budget:      load.NewRetryBudget(cfg.BudgetRatio, cfg.BudgetBurst),
				HedgeDelay:  cfg.HedgeDelay,
				Quantum:     chaosQuantum,
			}
		}},
	}
}

// ChaosFaults returns the fault legs: kill-under-load (crash at
// FaultAt, recover at ClearAt) and a brownout over the same window.
func ChaosFaults(cfg ChaosConfig) []ChaosFault {
	return []ChaosFault{
		{Name: "kill", ClearAt: cfg.ClearAt, Plan: func(cfg ChaosConfig) *cluster.FaultPlan {
			return cluster.NewFaultPlan().
				Crash(0, cfg.FaultAt).
				Recover(0, cfg.ClearAt)
		}},
		{Name: "brownout", ClearAt: cfg.ClearAt, Plan: func(cfg ChaosConfig) *cluster.FaultPlan {
			return cluster.NewFaultPlan().
				Brownout(0, cfg.FaultAt, cfg.ClearAt-cfg.FaultAt, cfg.BrownoutSlowdown)
		}},
	}
}

// DefaultChaos returns the full sweep: a four-node fleet near 70%
// utilisation, a six-second outage, and all three routers.
func DefaultChaos() ChaosConfig {
	cfg := ChaosConfig{
		Nodes:       4,
		Workers:     8,
		QueueCap:    64,
		MeanService: 25 * sim.Millisecond,
		// Pure-latency network (no serialisation quantum), with hop
		// latencies on the chaosQuantum grid like every other configured
		// duration, so request phases survive every hop.
		Net: cluster.Network{
			RequestLatency: 8 * chaosQuantum, // ≈262µs
			ReplyLatency:   8 * chaosQuantum,
		},
		Sessions:         64,
		Rate:             1050,
		Requests:         18000,
		FaultAt:          chaosAlign(3 * sim.Second),
		ClearAt:          chaosAlign(9 * sim.Second),
		BrownoutSlowdown: 4,
		Timeout:          chaosAlign(150 * sim.Millisecond),
		Backoff:          chaosAlign(10 * sim.Millisecond),
		MaxBackoff:       chaosAlign(80 * sim.Millisecond),
		BudgetRatio:      0.15,
		BudgetBurst:      50,
		HedgeDelay:       chaosAlign(75 * sim.Millisecond),
		Health: cluster.HealthConfig{
			EjectAfter: 5,
			Cooldown:   chaosAlign(sim.Second),
		},
		SLO:           250 * sim.Millisecond,
		Policies:      ChaosPolicies(),
		Routers:       ClusterRouters(),
		Horizon:       300 * sim.Second,
		Seed:          47,
		RecoverWindow: 500 * sim.Millisecond,
		RecoverFrac:   0.5,
	}
	cfg.Faults = ChaosFaults(cfg)
	return cfg
}

// QuickChaos returns the small fast sweep: three nodes, a four-second
// outage, round-robin and least-outstanding routing.
func QuickChaos() ChaosConfig {
	cfg := DefaultChaos()
	cfg.Nodes = 3
	cfg.Workers = 4
	cfg.MeanService = 20 * sim.Millisecond
	cfg.Rate = 480
	cfg.Requests = 6000
	cfg.FaultAt = chaosAlign(2 * sim.Second)
	cfg.ClearAt = chaosAlign(6 * sim.Second)
	cfg.Sessions = 24
	cfg.Routers = ClusterRouters()[:2] // rr, p2c
	cfg.Horizon = 120 * sim.Second
	cfg.Faults = ChaosFaults(cfg)
	return cfg
}

// ChaosCell is one (fault, policy, router) measurement.
type ChaosCell struct {
	Fault, Policy, Router string
	Stats                 cluster.Stats
	Elapsed               sim.Duration
	TimedOut              bool
	// TTR is the time-to-recover: how long after the fault cleared the
	// fleet sustained SLO-met goodput at RecoverFrac of the offered
	// rate again. Negative means it never recovered within the run.
	TTR sim.Duration
	// NodeShed counts arrivals the nodes' bounded queues refused.
	NodeShed int
	Samples  []obs.Sample
	Spans    []obs.Span
	Events   int64
	Windows  int64
	// WindowWidthSum profiles sharded cells' conservative windows.
	WindowWidthSum sim.Duration
}

// runChaosCell builds the faulted fleet and serves the request train
// through it.
func runChaosCell(cfg ChaosConfig, fault ChaosFault, policy ChaosPolicy, router ClusterRouter) ChaosCell {
	cl := cluster.NewSharded(cluster.Config{
		Net:             cfg.Net,
		SLO:             cfg.SLO,
		Sessions:        cfg.Sessions,
		MetricsInterval: cfg.MetricsInterval,
		Spans:           cfg.Spans,
		Retry:           policy.New(cfg),
		Faults:          fault.Plan(cfg),
		Health:          cfg.Health,
	}, router.New(), cfg.Shards, cfg.Seed)
	cl.Meter().Bin = recoverWindow(cfg)
	var svcs []*cluster.SimService
	for i := 0; i < cfg.Nodes; i++ {
		svcs = append(svcs, cl.AddSimNode(fmt.Sprintf("sim%d", i), cluster.SimServiceConfig{
			Workers:     cfg.Workers,
			QueueCap:    cfg.QueueCap,
			MeanService: cfg.MeanService,
			Quantum:     chaosQuantum,
		}))
	}
	cl.Serve(&load.PhasedPoisson{Rate: cfg.Rate, Quantum: chaosQuantum}, cfg.Requests)
	timedOut, err := cl.Run(cfg.Horizon)
	if err != nil {
		panic(err)
	}
	ws := cl.WindowStats()
	cell := ChaosCell{
		Fault: fault.Name, Policy: policy.Name, Router: router.Name,
		Stats:          cl.Stats(),
		Elapsed:        cl.Elapsed(),
		TimedOut:       timedOut,
		TTR:            timeToRecover(cfg, fault, cl.Meter()),
		Samples:        cl.Samples(),
		Spans:          cl.Spans(),
		Events:         cl.Events(),
		Windows:        ws.Windows,
		WindowWidthSum: ws.WidthSum,
	}
	for _, s := range svcs {
		cell.NodeShed += s.Shed()
	}
	return cell
}

// recoverWindow is the time-to-recover bin width.
func recoverWindow(cfg ChaosConfig) sim.Duration {
	if cfg.RecoverWindow <= 0 {
		return 500 * sim.Millisecond
	}
	return cfg.RecoverWindow
}

// timeToRecover reads the end-to-end meter's SLO-met completions per
// recoverWindow bin (the meter's Bin) and returns how long after the
// fault cleared the fleet first sustained goodput at RecoverFrac × Rate
// for two consecutive windows. Negative means never.
func timeToRecover(cfg ChaosConfig, fault ChaosFault, m *load.Meter) sim.Duration {
	w := recoverWindow(cfg)
	met := m.MetBins()
	count := func(b int) int {
		if b < len(met) {
			return met[b]
		}
		return 0
	}
	need := cfg.RecoverFrac * cfg.Rate * w.Seconds()
	clear := sim.Time(0).Add(fault.ClearAt)
	// First bin that starts at or after the clear instant, so the
	// returned delay is never negative.
	firstBin := int((int64(clear) + int64(w) - 1) / int64(w))
	// Only scan bins while arrivals are still flowing: after the train
	// ends the offered-rate baseline is meaningless.
	lastBin := int(int64(m.LastSubmit()) / int64(w))
	for b := firstBin; b+1 <= lastBin; b++ {
		if float64(count(b)) >= need && float64(count(b+1)) >= need {
			return sim.Duration(int64(b)*int64(w)) - fault.ClearAt
		}
	}
	return -1
}

// ChaosResult holds cells indexed [fault][policy][router] in config
// order.
type ChaosResult struct {
	Config ChaosConfig
	Cells  [][][]ChaosCell
}

// ChaosJobs expands the sweep fault-major, then policy, then router, as
// AssembleChaos expects.
func ChaosJobs(cfg ChaosConfig) []harness.Job {
	var jobs []harness.Job
	for _, fault := range cfg.Faults {
		for _, policy := range cfg.Policies {
			for _, router := range cfg.Routers {
				fault, policy, router := fault, policy, router
				jobs = append(jobs, harness.Job{
					Name: fmt.Sprintf("%s/%s/%s", fault.Name, policy.Name, router.Name),
					Run: func() harness.Output {
						cell := runChaosCell(cfg, fault, policy, router)
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
	return jobs
}

// AssembleChaos rebuilds the 3-D grid from ordered cell results.
func AssembleChaos(cfg ChaosConfig, results []harness.Result) *ChaosResult {
	out := &ChaosResult{Config: cfg}
	i := 0
	for range cfg.Faults {
		byPolicy := make([][]ChaosCell, len(cfg.Policies))
		for pi := range cfg.Policies {
			row := make([]ChaosCell, len(cfg.Routers))
			for ri := range cfg.Routers {
				row[ri] = results[i].Value.(ChaosCell)
				i++
			}
			byPolicy[pi] = row
		}
		out.Cells = append(out.Cells, byPolicy)
	}
	return out
}

// RunChaos executes the sweep serially.
func RunChaos(cfg ChaosConfig) *ChaosResult {
	return AssembleChaos(cfg, harness.Run(ChaosJobs(cfg), 1))
}

// Cell returns the measurement at (fault, policy, router) indices.
func (r *ChaosResult) Cell(fi, pi, ri int) *ChaosCell {
	return &r.Cells[fi][pi][ri]
}

// Render prints one table per fault leg: goodput, p99, outcome and
// resilience counts, and time-to-recover per (router, policy) row.
func (r *ChaosResult) Render() string {
	cfg := r.Config
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos: %d nodes x %d workers, %.0f req/s offered, SLO %.0fms\n",
		cfg.Nodes, cfg.Workers, cfg.Rate, float64(cfg.SLO.Milliseconds()))
	fmt.Fprintf(&sb, "fault at %.1fs, cleared at %.1fs; * marks runs that hit the horizon\n",
		cfg.FaultAt.Seconds(), cfg.ClearAt.Seconds())
	for fi, fault := range cfg.Faults {
		fmt.Fprintf(&sb, "\n--- fault: %s ---\n", fault.Name)
		fmt.Fprintf(&sb, "%22s%9s%9s%7s%7s%8s%8s%7s%7s%9s\n",
			"router/policy", "goodput", "p99_ms", "ok", "fail", "retry", "hedge", "shed", "tmout", "ttr_s")
		for ri := range cfg.Routers {
			for pi := range cfg.Policies {
				c := r.Cell(fi, pi, ri)
				st := c.Stats.EndToEnd
				res := c.Stats.Resilience
				label := fmt.Sprintf("%s/%s", cfg.Routers[ri].Name, cfg.Policies[pi].Name)
				if c.TimedOut {
					label += "*"
				}
				ttr := "never"
				if c.TTR >= 0 {
					ttr = fmt.Sprintf("%.2f", c.TTR.Seconds())
				}
				fmt.Fprintf(&sb, "%22s%9.1f%9.1f%7d%7d%8d%8d%7d%7d%9s\n",
					label,
					st.Goodput,
					float64(st.P99.Milliseconds()),
					st.Completed,
					res.Failed,
					res.Retries,
					res.Hedges,
					res.Shed+c.NodeShed,
					res.Timeouts,
					ttr)
			}
		}
	}
	return sb.String()
}
