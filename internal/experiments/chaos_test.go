package experiments

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestChaosQuickSweep(t *testing.T) {
	cfg := QuickChaos()
	res := RunChaos(cfg)
	if len(res.Cells) != len(cfg.Faults) ||
		len(res.Cells[0]) != len(cfg.Policies) ||
		len(res.Cells[0][0]) != len(cfg.Routers) {
		t.Fatal("grid shape wrong")
	}
	var pol = map[string]int{}
	for pi, p := range cfg.Policies {
		pol[p.Name] = pi
	}
	for fi, fault := range cfg.Faults {
		for ri, router := range cfg.Routers {
			for pi := range cfg.Policies {
				c := res.Cell(fi, pi, ri)
				if c.TimedOut {
					t.Fatalf("%s/%s/%s hit the horizon", fault.Name, c.Policy, router.Name)
				}
				st := c.Stats.EndToEnd
				if st.Completed+st.Failed != cfg.Requests {
					t.Fatalf("%s/%s/%s resolves %d+%d of %d requests",
						fault.Name, c.Policy, router.Name, st.Completed, st.Failed, cfg.Requests)
				}
			}
			// The scenario's headline: unlimited retries after a fault
			// collapse goodput below what a budgeted policy sustains, and
			// on the kill leg the collapsed fleet never recovers while the
			// budgeted one does.
			unlimited := res.Cell(fi, pol["unlimited"], ri)
			budgeted := res.Cell(fi, pol["budgeted"], ri)
			gU := unlimited.Stats.EndToEnd.Goodput
			gB := budgeted.Stats.EndToEnd.Goodput
			if gU >= 0.75*gB {
				t.Fatalf("%s/%s: unlimited goodput %.1f not collapsed vs budgeted %.1f",
					fault.Name, router.Name, gU, gB)
			}
			if unlimited.Stats.Resilience.Retries <= 10*budgeted.Stats.Resilience.Retries {
				t.Fatalf("%s/%s: no retry storm: %d vs %d retries", fault.Name, router.Name,
					unlimited.Stats.Resilience.Retries, budgeted.Stats.Resilience.Retries)
			}
			if fault.Name == "kill" {
				if unlimited.TTR >= 0 {
					t.Fatalf("%s/%s: collapsed fleet reports recovery at %v",
						fault.Name, router.Name, unlimited.TTR)
				}
				if budgeted.TTR < 0 {
					t.Fatalf("%s/%s: budgeted fleet never recovers", fault.Name, router.Name)
				}
			}
			// Hedging must actually hedge, and budgets must actually shed.
			hedged := res.Cell(fi, pol["hedged"], ri)
			if hedged.Stats.Resilience.Hedges == 0 {
				t.Fatalf("%s/%s: hedged policy issued no hedges", fault.Name, router.Name)
			}
			if budgeted.Stats.Resilience.Shed == 0 {
				t.Fatalf("%s/%s: budget never sheds", fault.Name, router.Name)
			}
		}
	}
	out := res.Render()
	for _, want := range []string{"fault: kill", "fault: brownout", "goodput",
		"ttr_s", "never", "rr/unlimited", "p2c/budgeted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestChaosParallelAndShardsIdentical(t *testing.T) {
	// The determinism acceptance at the scenario level: the chaos tables
	// must be byte-identical for any worker parallelism and shard count,
	// retry storms included.
	cfg := QuickChaos()
	ref := AssembleChaos(cfg, harness.Run(ChaosJobs(cfg), 1)).Render()
	if got := AssembleChaos(cfg, harness.Run(ChaosJobs(cfg), 4)).Render(); got != ref {
		t.Fatalf("chaos tables differ between par 1 and par 4:\n%s\n---\n%s", ref, got)
	}
	for _, shards := range []int{2, 3} {
		c := cfg
		c.Shards = shards
		if got := AssembleChaos(c, harness.Run(ChaosJobs(c), 1)).Render(); got != ref {
			t.Fatalf("chaos tables differ between 1 and %d shards:\n%s\n---\n%s", shards, ref, got)
		}
	}
}

// spanTimeToRecover is the span-based time-to-recover that the meter's
// online goodput bins replaced, kept as the reference they must match:
// it collects every SLO-met reply instant from the spans, sorts them, and
// bins them into a map.
func spanTimeToRecover(cfg ChaosConfig, fault ChaosFault, spans []obs.Span) sim.Duration {
	w := cfg.RecoverWindow
	if w <= 0 {
		w = 500 * sim.Millisecond
	}
	var replies []sim.Time
	lastSubmit := sim.Time(0)
	for _, s := range spans {
		if s.Submit > lastSubmit {
			lastSubmit = s.Submit
		}
		if s.Complete() && s.Total() <= cfg.SLO {
			replies = append(replies, s.Reply)
		}
	}
	sort.Slice(replies, func(a, b int) bool { return replies[a] < replies[b] })
	need := cfg.RecoverFrac * cfg.Rate * w.Seconds()
	clear := sim.Time(0).Add(fault.ClearAt)
	firstBin := int((int64(clear) + int64(w) - 1) / int64(w))
	lastBin := int(int64(lastSubmit) / int64(w))
	count := make(map[int]int)
	for _, r := range replies {
		count[int(int64(r)/int64(w))]++
	}
	for b := firstBin; b+1 <= lastBin; b++ {
		if float64(count[b]) >= need && float64(count[b+1]) >= need {
			return sim.Duration(int64(b)*int64(w)) - fault.ClearAt
		}
	}
	return -1
}

// ttrCase is one synthetic completion set: a request train whose
// requests either reply (within the SLO or not), fail, or are left
// unresolved, as spans.
type ttrCase struct {
	cfg      ChaosConfig
	fault    ChaosFault
	spans    []obs.Span
	boundary bool // some SLO-met reply lands exactly on a bin edge
	onEdge   bool // ClearAt is a multiple of the bin width
}

// genTTRCase draws a completion set bin by bin. Each bin is healthy (at
// or above the recovery threshold, sometimes exactly at it) or sick
// (below it), so recoveries start in the first eligible bin, in a later
// one, or never. The train ends in its second half; an SLO of up to
// three bins lets SLO-met replies land bins after the last submission,
// where the recovery scan must stop.
func genTTRCase(rng *sim.Rand) ttrCase {
	var tc ttrCase
	cfg := ChaosConfig{Rate: 200, RecoverFrac: 0.5}
	switch rng.Intn(3) {
	case 0:
		cfg.RecoverWindow = 0 // the 500ms default
	case 1:
		cfg.RecoverWindow = 250 * sim.Millisecond
	default:
		cfg.RecoverWindow = 300*sim.Millisecond + 7 // no grid alignment at all
	}
	w := recoverWindow(cfg)
	cfg.SLO = []sim.Duration{100 * sim.Millisecond, w, 3 * w}[rng.Intn(3)]
	need := int(cfg.RecoverFrac*cfg.Rate*w.Seconds() + 0.999999)
	bins := 4 + rng.Intn(10)
	trainEnd := sim.Time(bins*int(w)/2 + rng.Intn(bins*int(w)/2) + 1)
	clearBin := rng.Intn(bins)
	clear := sim.Duration(clearBin) * w
	if rng.Intn(2) == 0 {
		clear += sim.Duration(1 + rng.Intn(int(w)-1))
	} else {
		tc.onEdge = true
	}
	tc.fault = ChaosFault{Name: "synthetic", ClearAt: clear}
	healthy := rng.Intn(4) // 0: every bin sick; 3: every bin healthy
	for b := 0; b < bins; b++ {
		start := sim.Time(int64(b) * int64(w))
		met := rng.Intn(need) // sick
		if healthy == 3 || (healthy > 0 && rng.Intn(3) < healthy) {
			met = need + rng.Intn(3) // healthy, often exactly at the threshold
		}
		for i := 0; i < met; i++ {
			reply := start.Add(sim.Duration(rng.Intn(int(w))))
			if rng.Intn(8) == 0 {
				reply = start // exactly on the bin's lower edge
			}
			if reply == 0 {
				reply = 1 // a reply at instant 0 would read as incomplete
			} else if reply == start {
				tc.boundary = true
			}
			// Submitted by the train's end, within the SLO of the reply.
			minLat := reply.Sub(trainEnd)
			if minLat < 0 {
				minLat = 0
			}
			if minLat > cfg.SLO {
				continue
			}
			lat := minLat + sim.Duration(rng.Intn(int(cfg.SLO-minLat)+1))
			if rng.Intn(10) == 0 {
				lat = cfg.SLO // exactly at the objective: still met
			}
			submit := reply.Add(-lat)
			if submit < 0 {
				submit = 0
			}
			tc.spans = append(tc.spans, obs.Span{Submit: submit, Reply: reply})
		}
		// Noise that must never count: replies over the SLO, failures,
		// and requests left unresolved (abandoned at a horizon).
		for i := rng.Intn(need); i > 0; i-- {
			reply := start.Add(sim.Duration(rng.Intn(int(w))) + 1)
			lat := cfg.SLO + 1 + sim.Duration(rng.Intn(int(cfg.SLO)))
			tc.spans = append(tc.spans, obs.Span{Submit: reply.Add(-lat), Reply: reply})
		}
		for i := rng.Intn(4); i > 0; i-- {
			if at := start.Add(sim.Duration(rng.Intn(int(w))) + 1); at <= trainEnd {
				tc.spans = append(tc.spans, obs.Span{Submit: at})
			}
		}
	}
	tc.spans = append(tc.spans, obs.Span{Submit: trainEnd}) // the last submission
	for i := range tc.spans {
		j := rng.Intn(i + 1)
		tc.spans[i], tc.spans[j] = tc.spans[j], tc.spans[i]
	}
	cfg.Faults = []ChaosFault{tc.fault}
	tc.cfg = cfg
	return tc
}

// meterTimeToRecover feeds a completion set to an end-to-end meter in
// span order, the way the cluster reports it, and reads the online TTR.
func meterTimeToRecover(tc ttrCase) sim.Duration {
	m := load.NewMeter(tc.cfg.SLO)
	m.Bin = recoverWindow(tc.cfg)
	for _, s := range tc.spans {
		m.Submitted(s.Submit)
	}
	for _, s := range tc.spans {
		if s.Complete() {
			m.Completed(s.Submit, s.Reply)
		} else if s.Submit%2 == 0 {
			m.Failed() // the rest stay in flight, abandoned
		}
	}
	return timeToRecover(tc.cfg, tc.fault, m)
}

// TestTimeToRecoverMatchesSpanReference drives the online bins and the
// span-based reference through random synthetic completion sets. The
// chaos sweep itself only ever reports 0.00 or never, so the generated
// sets are what cover late recoveries, replies on bin edges, ClearAt on
// and off an edge, and noise that must not count.
func TestTimeToRecoverMatchesSpanReference(t *testing.T) {
	rng := sim.NewRand(28)
	var zero, late, never, boundary, onEdge, offEdge int
	for i := 0; i < 3000; i++ {
		tc := genTTRCase(rng)
		want := spanTimeToRecover(tc.cfg, tc.fault, tc.spans)
		if got := meterTimeToRecover(tc); got != want {
			t.Fatalf("case %d (window %v, clear %v, %d spans): online TTR %v, span reference %v",
				i, recoverWindow(tc.cfg), tc.fault.ClearAt, len(tc.spans), got, want)
		}
		switch {
		case want < 0:
			never++
		case want == 0:
			zero++
		default:
			late++
		}
		if tc.boundary && want >= 0 {
			boundary++
		}
		if tc.onEdge {
			onEdge++
		} else {
			offEdge++
		}
	}
	t.Logf("TTR zero %d, later %d, never %d; edge replies in %d recoveries; ClearAt on edge %d, off %d",
		zero, late, never, boundary, onEdge, offEdge)
	for name, n := range map[string]int{"zero": zero, "later": late, "never": never,
		"edge-reply": boundary, "clear-on-edge": onEdge, "clear-off-edge": offEdge} {
		if n < 50 {
			t.Fatalf("generator covered %q only %d times", name, n)
		}
	}
}

// TestChaosTTRMatchesSpanReference checks every QuickChaos cell's online
// TTR against the span reference over the cell's own exported spans, at
// one and two shards.
func TestChaosTTRMatchesSpanReference(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := QuickChaos()
		cfg.Spans = true
		cfg.Shards = shards
		res := AssembleChaos(cfg, harness.Run(ChaosJobs(cfg), 2))
		for fi, fault := range cfg.Faults {
			for pi := range cfg.Policies {
				for ri := range cfg.Routers {
					c := res.Cell(fi, pi, ri)
					if len(c.Spans) != cfg.Requests {
						t.Fatalf("%d shards %s/%s/%s: %d spans, want %d",
							shards, fault.Name, c.Policy, c.Router, len(c.Spans), cfg.Requests)
					}
					if want := spanTimeToRecover(cfg, fault, c.Spans); c.TTR != want {
						t.Fatalf("%d shards %s/%s/%s: TTR %v, span reference %v",
							shards, fault.Name, c.Policy, c.Router, c.TTR, want)
					}
				}
			}
		}
	}
}
