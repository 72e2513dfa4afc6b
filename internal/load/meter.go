package load

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Meter does streaming latency accounting for a served workload:
// submissions and completions are recorded as they happen, latencies
// feed a fixed-memory quantile sketch (metrics.Sketch), and completions
// are judged against an optional SLO. Nothing is retained per request:
// the caller already knows each request's submission instant and hands
// it back at completion, so the meter is a handful of counters plus the
// sketch and scales to arbitrarily long runs.
type Meter struct {
	// SLO is the latency objective; completions above it count as
	// violations. Zero disables SLO accounting (goodput == throughput).
	SLO sim.Duration
	// Bin, when positive, bins goodput over time as it happens: every
	// SLO-met completion counts in the Bin-wide window of simulated time
	// its instant falls in (see MetBins). Set it before the first
	// completion. Zero keeps no bins.
	Bin sim.Duration

	sketch       metrics.Sketch
	inflight     int
	submitted    int
	completed    int
	failed       int
	violations   int
	firstSubmit  sim.Time
	lastSubmit   sim.Time
	lastComplete sim.Time
	metBins      []int
}

// NewMeter returns a meter judging completions against slo (0 = none).
func NewMeter(slo sim.Duration) *Meter {
	return &Meter{SLO: slo}
}

// Submitted records the arrival of one request at time t. Each
// submission must later be resolved by exactly one Completed or Failed
// (or by FailAll).
func (m *Meter) Submitted(t sim.Time) {
	if m.submitted == 0 || t < m.firstSubmit {
		m.firstSubmit = t
	}
	if t > m.lastSubmit {
		m.lastSubmit = t
	}
	m.submitted++
	m.inflight++
}

// Completed records the completion at time t of a request submitted at
// start and returns its latency.
func (m *Meter) Completed(start, t sim.Time) sim.Duration {
	m.inflight--
	lat := t.Sub(start)
	m.sketch.Add(lat)
	m.completed++
	if m.SLO > 0 && lat > m.SLO {
		m.violations++
	} else if m.Bin > 0 {
		b := int(int64(t) / int64(m.Bin))
		for len(m.metBins) <= b {
			m.metBins = append(m.metBins, 0)
		}
		m.metBins[b]++
	}
	if t > m.lastComplete {
		m.lastComplete = t
	}
	return lat
}

// Failed records that one in-flight request will never complete (node
// crash, deadline exceeded, retry budget exhausted, shed). It leaves
// the in-flight count and counts as failed; no latency sample is
// recorded, so percentiles and goodput describe served work only.
func (m *Meter) Failed() {
	m.inflight--
	m.failed++
}

// FailAll fails every in-flight request. Used when a run is abandoned
// at its horizon: the meter ends in a well-defined state instead of
// carrying phantom in-flight requests.
func (m *Meter) FailAll() {
	m.failed += m.inflight
	m.inflight = 0
}

// MetBins returns the SLO-met completion count of every Bin-wide window
// from time zero: entry b covers [b·Bin, (b+1)·Bin). Windows past the
// last SLO-met completion are absent (zero). Nil when Bin is zero. The
// slice is the meter's own; do not modify it.
func (m *Meter) MetBins() []int { return m.metBins }

// LastSubmit returns the latest submission instant (zero before any).
func (m *Meter) LastSubmit() sim.Time { return m.lastSubmit }

// InFlight returns the number of submitted-but-unresolved requests.
func (m *Meter) InFlight() int { return m.inflight }

// FailedCount returns how many requests were recorded as failed.
func (m *Meter) FailedCount() int { return m.failed }

// MeterSnapshot is a cheap point-in-time view of a Meter for scrapers:
// plain counter copies plus a value copy of the streaming sketch, so a
// later snapshot can be diffed against it for windowed statistics
// (Sketch.QuantileSince) without the meter retaining any history.
type MeterSnapshot struct {
	// At is the simulated instant the snapshot was taken.
	At sim.Time
	// InFlight, Submitted, Completed, and Violations copy the meter's
	// counters at At.
	InFlight, Submitted, Completed, Violations int
	// Sketch is a value copy of the streaming latency sketch.
	Sketch metrics.Sketch
}

// Snapshot copies the meter's state at simulated time at. It only reads
// the meter — taking snapshots at any cadence leaves the streaming
// statistics byte-identical — and the cost is a fixed-size copy
// (the sketch's bucket array), independent of how much the meter has
// recorded.
func (m *Meter) Snapshot(at sim.Time) MeterSnapshot {
	return MeterSnapshot{
		At:         at,
		InFlight:   m.inflight,
		Submitted:  m.submitted,
		Completed:  m.completed,
		Violations: m.violations,
		Sketch:     m.sketch,
	}
}

// MergeInto merges the meter's latency sketch into dst, so several
// meters' populations can be aggregated (cluster-wide percentiles
// across per-node meters) without retaining any samples.
func (m *Meter) MergeInto(dst *metrics.Sketch) { dst.Merge(&m.sketch) }

// MeterStats is a snapshot of a Meter: streaming tail-latency
// percentiles plus SLO-relative goodput accounting.
type MeterStats struct {
	// Offered and Completed count submissions and completions; Failed
	// counts requests recorded as never completing (crashes, exceeded
	// deadlines, shed work).
	Offered, Completed, Failed int
	// Latency percentiles from the quantile sketch (within 1% of the
	// exact order statistics) plus the exact mean and extrema.
	Mean, P50, P95, P99, P999 sim.Duration
	Min, Max                  sim.Duration
	// SLO echoes the objective; Violations counts completions above it
	// and ViolationFrac is their fraction of all completions.
	SLO           sim.Duration
	Violations    int
	ViolationFrac float64
	// Throughput is completions per second between the first submission
	// and the last completion; Goodput counts only SLO-met completions.
	Throughput float64
	Goodput    float64
}

// Stats snapshots the meter.
func (m *Meter) Stats() MeterStats {
	st := MeterStats{
		Offered:    m.submitted,
		Completed:  m.completed,
		Failed:     m.failed,
		SLO:        m.SLO,
		Violations: m.violations,
		Mean:       m.sketch.Mean(),
		P50:        m.sketch.Quantile(0.5),
		P95:        m.sketch.Quantile(0.95),
		P99:        m.sketch.Quantile(0.99),
		P999:       m.sketch.Quantile(0.999),
		Min:        m.sketch.Min(),
		Max:        m.sketch.Max(),
	}
	if m.completed > 0 {
		st.ViolationFrac = float64(m.violations) / float64(m.completed)
		if span := m.lastComplete.Sub(m.firstSubmit); span > 0 {
			st.Throughput = float64(m.completed) / span.Seconds()
			st.Goodput = float64(m.completed-m.violations) / span.Seconds()
		}
	}
	return st
}

// MeetsSLO reports whether the measured violation fraction is within
// the tolerated budget (e.g. 0.01 allows 1% of completions over the
// objective). A meter with no completions vacuously meets the SLO.
func (st MeterStats) MeetsSLO(budget float64) bool {
	return st.ViolationFrac <= budget
}

// LoadPoint pairs one offered load with its measured stats, for
// max-sustainable-load detection across a sweep.
type LoadPoint struct {
	// Load is the offered load (req/s, multiplier — any monotone axis).
	Load float64
	// Stats is the measurement at that load.
	Stats MeterStats
	// TimedOut marks runs that hit their horizon; they never sustain.
	TimedOut bool
}

// MaxSustainable scans load points (in increasing-load order) and
// returns the highest load that completed within its horizon and kept
// the SLO violation fraction within budget — the knee of the
// throughput-vs-tail-latency curve. ok is false when no point
// qualifies.
func MaxSustainable(points []LoadPoint, budget float64) (load float64, ok bool) {
	for _, p := range points {
		if p.TimedOut || !p.Stats.MeetsSLO(budget) {
			continue
		}
		if !ok || p.Load > load {
			load, ok = p.Load, true
		}
	}
	return load, ok
}
