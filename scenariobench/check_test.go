package main

import (
	"testing"

	"repro/internal/harness"
)

func TestFingerprintFollowsValues(t *testing.T) {
	type inner struct {
		A []int
		M map[string]float64
	}
	type cell struct {
		Name string
		P    *inner
		I    any
		F    func()
	}
	mk := func(x int) cell {
		return cell{
			Name: "c",
			P:    &inner{A: []int{1, x}, M: map[string]float64{"a": 1, "b": 2, "c": 3, "d": 4}},
			I:    inner{A: []int{x}},
		}
	}
	base := fingerprint(mk(1))
	for i := 0; i < 20; i++ {
		if fingerprint(mk(1)) != base {
			t.Fatal("equal values behind distinct pointers and maps fingerprint differently")
		}
	}
	withFunc := mk(1)
	withFunc.F = func() {}
	for name, v := range map[string]any{
		"field behind a pointer": mk(2),
		"nil pointer":            cell{Name: "c"},
		"non-nil func":           withFunc,
		"dynamic type":           cell{Name: "c", P: mk(1).P, I: 1},
	} {
		if fingerprint(v) == base {
			t.Errorf("changing the %s left the fingerprint unchanged", name)
		}
	}
	if fingerprint([]string{"ab", "c"}) == fingerprint([]string{"a", "bc"}) {
		t.Error("string boundaries are not hashed")
	}
}

// The golden files are the reference at the default seed, and chaos
// and chaos_sharded share one set of tables.
func TestGoldenFiles(t *testing.T) {
	goldens := map[string]*golden{}
	for _, w := range workloads {
		g, err := loadGolden(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if g.Workload != w.name || g.Seed != goldenSeed || len(g.Tables) != 64 || len(g.Cells) == 0 {
			t.Errorf("golden %s is malformed: workload %q seed %d, %d cells", w.name, g.Workload, g.Seed, len(g.Cells))
		}
		goldens[w.name] = g
	}
	chaos, sharded := goldens["chaos"], goldens["chaos_sharded"]
	if chaos.Tables != sharded.Tables {
		t.Error("chaos and chaos_sharded golden tables differ")
	}
	if len(chaos.Cells) != len(sharded.Cells) {
		t.Fatalf("chaos has %d cells, chaos_sharded %d", len(chaos.Cells), len(sharded.Cells))
	}
	for i := range chaos.Cells {
		if chaos.Cells[i].Name != sharded.Cells[i].Name {
			t.Errorf("cell %d: %s vs %s", i, chaos.Cells[i].Name, sharded.Cells[i].Name)
		}
	}
}

// At any seed, a sharded sweep renders the unsharded sweep's tables.
func TestShardedChaosRendersTheSameTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick chaos sweep twice")
	}
	tables := func(shards int) string {
		w := workload{name: "chaos-quick", scenarios: []string{"chaos"}, opt: harness.Opts{Quick: true, Shards: shards}}
		x, err := w.expand(11)
		if err != nil {
			t.Fatal(err)
		}
		runs := runCells(x.jobs)
		outs := make([]harness.Output, len(runs))
		for i, r := range runs {
			if r.err != nil {
				t.Fatal(r.err)
			}
			outs[i] = r.out
		}
		return x.render(outs)
	}
	if one, two := tables(0), tables(2); one != two {
		t.Errorf("tables differ at two shards:\n%s\nvs\n%s", one, two)
	}
}

// One pass of every workload at the golden seed reproduces its golden
// file cell by cell.
func TestGoldenSeedPassesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloads {
		p, err := runPass(w, goldenSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceFor(w, goldenSeed, p)
		if err != nil {
			t.Fatal(err)
		}
		if n := ref.failures(p); n != 0 {
			t.Errorf("%s: %d of %d cells differ from the golden file", w.name, n, len(p.checks))
		}
	}
}

func TestFailuresAgainstReference(t *testing.T) {
	a, b := cellCheck{"a", "1", false}, cellCheck{"b", "2", true}
	ref := reference{cells: []cellCheck{a, b}, tables: "t"}
	for _, c := range []struct {
		name   string
		tables string
		cells  []cellCheck
		want   int
	}{
		{"identical", "t", []cellCheck{a, b}, 0},
		{"fingerprint differs", "t", []cellCheck{a, {"b", "3", true}}, 1},
		{"horizon flag differs", "t", []cellCheck{{"a", "1", true}, b}, 1},
		{"tables differ", "u", []cellCheck{a, b}, 2},
		{"cell missing", "t", []cellCheck{a}, 1},
	} {
		if got := ref.failures(&pass{tables: c.tables, checks: c.cells}); got != c.want {
			t.Errorf("%s: %d failures, want %d", c.name, got, c.want)
		}
	}
}
