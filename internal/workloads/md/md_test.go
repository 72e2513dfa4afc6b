package md

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stack"
)

// smallCfg is a shrunken instance for the 16-core dual-socket machine.
func smallCfg(s Scenario) Config {
	cfg := Config{
		Scenario:         s,
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
	}
	if s.Colocated() {
		cfg.RanksPerEnsemble = 4
	}
	return cfg
}

// run executes cfg on a fresh 16-core dual-socket system seeded 11.
func run(cfg Config) Result { return Run(stack.New(hw.DualSocket16(), 11), cfg) }

func TestAtomDistributionImbalanced(t *testing.T) {
	cfg := smallCfg(Exclusive)
	total, max, min := 0, 0, 1<<30
	for r := 0; r < cfg.RanksPerEnsemble; r++ {
		a := atomsOfRank(cfg, r)
		total += a
		if a > max {
			max = a
		}
		if a < min {
			min = a
		}
	}
	if total < cfg.Atoms*98/100 || total > cfg.Atoms {
		t.Fatalf("total atoms = %d, want ~%d", total, cfg.Atoms)
	}
	if float64(max) < 1.2*float64(min) {
		t.Fatalf("imbalance max=%d min=%d too even; dense/sparse regions missing", max, min)
	}
}

func TestAllScenariosComplete(t *testing.T) {
	for _, s := range []Scenario{
		Exclusive, ColocationNode, ColocationSocket,
		CoexecutionNode, CoexecutionSocket, SchedCoopNode, SchedCoopSocket,
	} {
		res := run(smallCfg(s))
		if res.TimedOut {
			t.Fatalf("%v timed out", s)
		}
		if len(res.PerEnsemble) != 2 || res.Aggregate <= 0 {
			t.Fatalf("%v: bad result %+v", s, res)
		}
	}
}

func TestExclusiveBestPerEnsembleWorstAggregate(t *testing.T) {
	ex := run(smallCfg(Exclusive))
	coop := run(smallCfg(SchedCoopNode))
	if ex.TimedOut || coop.TimedOut {
		t.Fatal("timeout")
	}
	// Per-ensemble rate: exclusive runs alone, so each ensemble beats
	// the co-executed ones (paper: 106 vs <=60 Katom-step/s).
	if ex.PerEnsemble[0] <= coop.PerEnsemble[0] {
		t.Fatalf("exclusive per-ensemble %.1f <= coop %.1f", ex.PerEnsemble[0], coop.PerEnsemble[0])
	}
	// Aggregate: co-execution overlaps init and fills gaps, beating
	// exclusive overall.
	if coop.Aggregate <= ex.Aggregate {
		t.Fatalf("coop aggregate %.1f <= exclusive %.1f", coop.Aggregate, ex.Aggregate)
	}
}

func TestCoopBeatsCoexecution(t *testing.T) {
	co := run(smallCfg(CoexecutionNode))
	coop := run(smallCfg(SchedCoopNode))
	if co.TimedOut || coop.TimedOut {
		t.Fatal("timeout")
	}
	if coop.Aggregate < co.Aggregate*0.98 {
		t.Fatalf("coop aggregate %.1f clearly below coexecution %.1f", coop.Aggregate, co.Aggregate)
	}
}

func TestBandwidthTraceRecorded(t *testing.T) {
	res := run(smallCfg(SchedCoopNode))
	if res.BW.Len() < 10 {
		t.Fatalf("bandwidth series has %d samples", res.BW.Len())
	}
	if res.BW.Max() <= 0 || res.AvgBandwidth <= 0 {
		t.Fatalf("no bandwidth recorded: max=%v avg=%v", res.BW.Max(), res.AvgBandwidth)
	}
	if res.BW.Max() > 2*64 { // two sockets at 64 GB/s each on DualSocket16
		t.Fatalf("bandwidth %v exceeds machine capability", res.BW.Max())
	}
}

func TestColocationUsesFewerRanks(t *testing.T) {
	if DefaultConfig(ColocationNode).RanksPerEnsemble != 28 {
		t.Fatal("colocation must halve ranks")
	}
	if DefaultConfig(CoexecutionNode).RanksPerEnsemble != 56 {
		t.Fatal("coexecution keeps 56 ranks")
	}
}
