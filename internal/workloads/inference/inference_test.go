package inference

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/stack"
)

// fastCfg returns a heavily scaled-down configuration (1% of paper sizing)
// for the 16-core machine.
func fastCfg(scheme Scheme, rate float64) Config {
	models := []Model{
		{Name: "llama", Work: 5770 * sim.Millisecond, SerialFrac: 0.06, Threads: 8, OptShare: 0.64},
		{Name: "gpt2", Work: 1010 * sim.Millisecond, SerialFrac: 0.06, Threads: 4, OptShare: 0.21},
		{Name: "roberta", Work: 676 * sim.Millisecond, SerialFrac: 0.06, Threads: 4, OptShare: 0.14},
	}
	return Config{
		Scheme:   scheme,
		Rate:     rate,
		Requests: 6,
		Batches:  4,
		Scale:    0.2,
		Models:   models,
		Horizon:  10 * sim.Second * 60,
	}
}

// run executes cfg on a fresh 16-core system seeded 7.
func run(cfg Config) Result { return runSeed(cfg, 7) }

func runSeed(cfg Config, seed uint64) Result {
	return Run(stack.New(hw.DualSocket16(), seed), cfg)
}

func TestAllSchemesComplete(t *testing.T) {
	for _, s := range []Scheme{BlNone, BlEq, BlOpt, BlNoneSeq, Coop} {
		res := run(fastCfg(s, 1.0))
		if res.TimedOut {
			t.Fatalf("%v timed out", s)
		}
		if len(res.Latencies) != 6 {
			t.Fatalf("%v: %d requests completed", s, len(res.Latencies))
		}
		if res.Throughput <= 0 || res.Stats.Mean <= 0 {
			t.Fatalf("%v: empty stats %+v", s, res.Stats)
		}
	}
}

func TestTimelineOrdering(t *testing.T) {
	res := run(fastCfg(Coop, 1.0))
	for _, tr := range res.Timeline {
		if tr.Completed <= tr.Submitted {
			t.Fatalf("request %d completed %v before submission %v", tr.ID, tr.Completed, tr.Submitted)
		}
	}
}

func TestEqualPartitionWorstAtLoad(t *testing.T) {
	// bl-eq starves LLaMA (paper: worst latency of all schemes).
	eq := run(fastCfg(BlEq, 1.5))
	none := run(fastCfg(BlNone, 1.5))
	if eq.TimedOut || none.TimedOut {
		t.Fatal("timeout")
	}
	if eq.Stats.Mean < none.Stats.Mean {
		t.Fatalf("bl-eq mean %v < bl-none %v; partition imbalance not visible", eq.Stats.Mean, none.Stats.Mean)
	}
}

func TestCoopAtLeastMatchesBlNoneUnderLoad(t *testing.T) {
	none := run(fastCfg(BlNone, 2.0))
	coop := run(fastCfg(Coop, 2.0))
	if none.TimedOut || coop.TimedOut {
		t.Fatal("timeout")
	}
	if float64(coop.Stats.Mean) > float64(none.Stats.Mean)*1.15 {
		t.Fatalf("coop mean %v much worse than bl-none %v", coop.Stats.Mean, none.Stats.Mean)
	}
}

func TestSeqStableButSlowAtLowRate(t *testing.T) {
	// At low request rates bl-none-seq leaves cores idle: its latency
	// must exceed the parallel bl-none.
	seq := run(fastCfg(BlNoneSeq, 0.2))
	none := run(fastCfg(BlNone, 0.2))
	if seq.TimedOut || none.TimedOut {
		t.Fatal("timeout")
	}
	if seq.Stats.Mean <= none.Stats.Mean {
		t.Fatalf("seq mean %v <= parallel %v at low rate", seq.Stats.Mean, none.Stats.Mean)
	}
}

func TestTailMeterTracksExactStats(t *testing.T) {
	// The streaming tail meter must agree with the exact post-hoc
	// summary on what it can measure exactly.
	res := run(fastCfg(Coop, 1.0))
	if res.Tail.Completed != len(res.Latencies) || res.Tail.Offered != len(res.Latencies) {
		t.Fatalf("tail counts %+v vs %d latencies", res.Tail, len(res.Latencies))
	}
	if res.Tail.Max != res.Stats.Max || res.Tail.Min != res.Stats.Min {
		t.Fatalf("tail extrema %v/%v vs exact %v/%v",
			res.Tail.Min, res.Tail.Max, res.Stats.Min, res.Stats.Max)
	}
	// No SLO configured: no violations, goodput == throughput.
	if res.Tail.Violations != 0 || res.Tail.Goodput != res.Tail.Throughput {
		t.Fatalf("SLO accounting active without an SLO: %+v", res.Tail)
	}
}

func TestSLOViolationAccounting(t *testing.T) {
	// A 1ns SLO is violated by every request; a huge SLO by none.
	cfg := fastCfg(Coop, 1.0)
	cfg.SLO = sim.Nanosecond
	res := run(cfg)
	if res.Tail.ViolationFrac != 1 || res.Tail.Goodput != 0 {
		t.Fatalf("tight SLO: %+v", res.Tail)
	}
	cfg = fastCfg(Coop, 1.0)
	cfg.SLO = 1000 * 3600 * sim.Second
	res = run(cfg)
	if res.Tail.ViolationFrac != 0 {
		t.Fatalf("loose SLO: %+v", res.Tail)
	}
}

func TestCustomArrivalSourceAndAdmission(t *testing.T) {
	// A replay trace delivering all requests at t=0 through a 1-wide
	// admission stage must serialise the requests: every request still
	// completes, and latencies grow monotonically with arrival order.
	cfg := fastCfg(BlNone, 1.0)
	cfg.Arrivals = &load.Replay{At: make([]sim.Duration, cfg.Requests)}
	cfg.MaxInFlight = 1
	res := run(cfg)
	if res.TimedOut || len(res.Latencies) != cfg.Requests {
		t.Fatalf("admission-limited run incomplete: %d/%d (timed out %v)",
			len(res.Latencies), cfg.Requests, res.TimedOut)
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Submitted != res.Timeline[0].Submitted {
			t.Fatalf("replay arrivals not simultaneous: %+v", res.Timeline[i])
		}
	}
	// With a 1-wide gate, completions are strictly serialised.
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Completed <= res.Timeline[i-1].Completed {
			t.Fatalf("1-wide admission did not serialise completions: %+v", res.Timeline)
		}
	}
}

func TestRepeatedRunsIdenticalInProcess(t *testing.T) {
	// Regression: repeated in-process runs of the same cell must agree
	// exactly. This trajectory (bl-none, rate 1.0, seed 12345) used to
	// diverge because omp.Runtime.Shutdown tore teams down in Go map
	// iteration order, letting the host runtime perturb the simulated
	// schedule.
	cfg := fastCfg(BlNone, 1.0)
	cfg.Requests = 8
	cfg.Horizon = 4000 * sim.Second
	first := runSeed(cfg, 12345)
	for i := 0; i < 3; i++ {
		res := runSeed(cfg, 12345)
		if res.Elapsed != first.Elapsed || res.Throughput != first.Throughput {
			t.Fatalf("run %d diverged: elapsed %v vs %v", i+1, res.Elapsed, first.Elapsed)
		}
		if len(res.Latencies) != len(first.Latencies) {
			t.Fatalf("run %d: %d latencies vs %d", i+1, len(res.Latencies), len(first.Latencies))
		}
		for j := range res.Latencies {
			if res.Latencies[j] != first.Latencies[j] {
				t.Fatalf("run %d: latency[%d] %v vs %v", i+1, j, res.Latencies[j], first.Latencies[j])
			}
		}
	}
}

func TestPartitionMasks(t *testing.T) {
	cfg := fastCfg(BlOpt, 1)
	masks := partition(cfg.Scheme, cfg.Models, 16)
	if masks[0].Count() != 2 {
		t.Fatalf("gateway cores = %d, want 2", masks[0].Count())
	}
	total := 0
	for _, m := range masks[1:] {
		total += m.Count()
	}
	if total != 14 {
		t.Fatalf("server cores = %d, want 14", total)
	}
	// bl-none has empty (unrestricted) masks.
	none := fastCfg(BlNone, 1)
	masks = partition(none.Scheme, none.Models, 16)
	for i, m := range masks {
		if !m.IsEmpty() {
			t.Fatalf("bl-none mask %d = %v, want unrestricted", i, m)
		}
	}
}
