package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fp(v float64) *float64 { return &v }

func mkReport(benchmarks ...Benchmark) *Report {
	return &Report{Goos: "linux", Goarch: "amd64", Benchmarks: benchmarks}
}

func deltaByKey(t *testing.T, deltas []benchDelta, key string) benchDelta {
	t.Helper()
	for _, d := range deltas {
		if d.key == key {
			return d
		}
	}
	t.Fatalf("no delta for %q in %+v", key, deltas)
	return benchDelta{}
}

func TestDiffHoldsWithinNoise(t *testing.T) {
	old := mkReport(
		Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 100, AllocsPerOp: fp(0)},
		Benchmark{Name: "BenchmarkB", Package: "p", NsPerOp: 200, AllocsPerOp: fp(7)},
	)
	new := mkReport(
		Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 109, AllocsPerOp: fp(0)}, // +9%: noise
		Benchmark{Name: "BenchmarkB", Package: "p", NsPerOp: 150, AllocsPerOp: fp(5)}, // improvement
	)
	deltas := diffReports(old, new)
	var sb strings.Builder
	if failed := writeDiff(&sb, deltas); failed {
		t.Fatalf("within-noise diff failed the gate:\n%s", sb.String())
	}
}

func TestDiffFlagsNsRegression(t *testing.T) {
	old := mkReport(Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 100})
	new := mkReport(Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 111}) // +11% > 10%
	deltas := diffReports(old, new)
	d := deltaByKey(t, deltas, "p.BenchmarkA")
	if !d.nsRegress {
		t.Fatalf("+11%% ns/op not flagged: %+v", d)
	}
	var sb strings.Builder
	if failed := writeDiff(&sb, deltas); !failed {
		t.Fatal("gate passed despite ns/op regression")
	}
	if !strings.Contains(sb.String(), "NS REGRESSION") {
		t.Fatalf("report does not name the regression:\n%s", sb.String())
	}
}

func TestDiffFlagsAnyAllocIncrease(t *testing.T) {
	// One alloc/op up is a failure even when ns/op improved: the
	// engine's 0 allocs/op is exact, not statistical.
	old := mkReport(Benchmark{Name: "BenchmarkEvent", Package: "p", NsPerOp: 100, AllocsPerOp: fp(0)})
	new := mkReport(Benchmark{Name: "BenchmarkEvent", Package: "p", NsPerOp: 50, AllocsPerOp: fp(1)})
	deltas := diffReports(old, new)
	d := deltaByKey(t, deltas, "p.BenchmarkEvent")
	if !d.allocs {
		t.Fatalf("alloc increase not flagged: %+v", d)
	}
	var sb strings.Builder
	if failed := writeDiff(&sb, deltas); !failed {
		t.Fatal("gate passed despite allocs/op increase")
	}
	if !strings.Contains(sb.String(), "ALLOC REGRESSION") {
		t.Fatalf("report does not name the regression:\n%s", sb.String())
	}
}

func TestDiffAllocNoiseBand(t *testing.T) {
	// Whole-simulation benchmarks at -benchtime=1x pick up a couple of
	// stray runtime allocations per run; the gate must absorb those
	// without letting a real per-op leak (which scales with the event
	// count) slip through.
	old := mkReport(
		Benchmark{Name: "BenchmarkJitter", Package: "p", NsPerOp: 100, AllocsPerOp: fp(5000)},
		Benchmark{Name: "BenchmarkLeak", Package: "p", NsPerOp: 100, AllocsPerOp: fp(5000)},
	)
	new := mkReport(
		Benchmark{Name: "BenchmarkJitter", Package: "p", NsPerOp: 100, AllocsPerOp: fp(5003)}, // runtime noise
		Benchmark{Name: "BenchmarkLeak", Package: "p", NsPerOp: 100, AllocsPerOp: fp(5100)},   // real leak
	)
	deltas := diffReports(old, new)
	if d := deltaByKey(t, deltas, "p.BenchmarkJitter"); d.allocs {
		t.Fatalf("+3 allocs on a 5000-alloc run flagged as a regression: %+v", d)
	}
	if d := deltaByKey(t, deltas, "p.BenchmarkLeak"); !d.allocs {
		t.Fatalf("+100 allocs on a 5000-alloc run not flagged: %+v", d)
	}
}

func TestDiffAddedAndRemovedAreInformational(t *testing.T) {
	old := mkReport(
		Benchmark{Name: "BenchmarkGone", Package: "p", NsPerOp: 10},
		Benchmark{Name: "BenchmarkKept", Package: "p", NsPerOp: 10},
	)
	new := mkReport(
		Benchmark{Name: "BenchmarkKept", Package: "p", NsPerOp: 10},
		Benchmark{Name: "BenchmarkNew", Package: "p", NsPerOp: 10},
	)
	deltas := diffReports(old, new)
	if d := deltaByKey(t, deltas, "p.BenchmarkGone"); !d.missingNew {
		t.Fatalf("removed benchmark not marked: %+v", d)
	}
	if d := deltaByKey(t, deltas, "p.BenchmarkNew"); !d.missingOld {
		t.Fatalf("added benchmark not marked: %+v", d)
	}
	var sb strings.Builder
	if failed := writeDiff(&sb, deltas); failed {
		t.Fatalf("membership changes alone must not fail the gate:\n%s", sb.String())
	}
}

// TestDiffFlagsChangedSimMetric: simulated outcomes are host-independent,
// so a changed or vanished sim-* metric fails the gate whatever ns/op
// does, while host-side custom metrics may drift.
func TestDiffFlagsChangedSimMetric(t *testing.T) {
	m := func(kv ...any) map[string]float64 {
		out := make(map[string]float64)
		for i := 0; i < len(kv); i += 2 {
			out[kv[i].(string)] = kv[i+1].(float64)
		}
		return out
	}
	old := mkReport(
		Benchmark{Name: "BenchmarkSame", Package: "p", NsPerOp: 100, Metrics: m("sim-GFLOPS", 411.9, "ns/poll", 30.0)},
		Benchmark{Name: "BenchmarkMoved", Package: "p", NsPerOp: 100, Metrics: m("sim-GFLOPS", 411.9, "sim-migrations", 7275.0)},
		Benchmark{Name: "BenchmarkLost", Package: "p", NsPerOp: 100, Metrics: m("sim-preemptions", 917.0)},
	)
	new := mkReport(
		Benchmark{Name: "BenchmarkSame", Package: "p", NsPerOp: 80, Metrics: m("sim-GFLOPS", 411.9, "ns/poll", 24.0)},
		Benchmark{Name: "BenchmarkMoved", Package: "p", NsPerOp: 80, Metrics: m("sim-GFLOPS", 411.9, "sim-migrations", 7276.0)},
		Benchmark{Name: "BenchmarkLost", Package: "p", NsPerOp: 80},
	)
	deltas := diffReports(old, new)
	if d := deltaByKey(t, deltas, "p.BenchmarkSame"); len(d.simDiffs) != 0 {
		t.Fatalf("equal sim metrics flagged: %+v", d)
	}
	if d := deltaByKey(t, deltas, "p.BenchmarkMoved"); len(d.simDiffs) != 1 || d.simDiffs[0] != "sim-migrations 7275 -> 7276" {
		t.Fatalf("changed sim metric not flagged alone: %+v", d)
	}
	if d := deltaByKey(t, deltas, "p.BenchmarkLost"); len(d.simDiffs) != 1 {
		t.Fatalf("vanished sim metric not flagged: %+v", d)
	}
	var sb strings.Builder
	if failed := writeDiff(&sb, deltas); !failed {
		t.Fatalf("gate passed despite a changed sim metric:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "SIM METRIC CHANGED: sim-migrations 7275 -> 7276") {
		t.Fatalf("report does not name the changed metric:\n%s", sb.String())
	}
	var clean strings.Builder
	if failed := writeDiff(&clean, diffReports(old, old)); failed {
		t.Fatalf("identical reports failed the gate:\n%s", clean.String())
	}
}

func TestDiffMissingAllocsOnOneSideIsNotARegression(t *testing.T) {
	old := mkReport(Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 100})
	new := mkReport(Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 100, AllocsPerOp: fp(9)})
	var sb strings.Builder
	if failed := writeDiff(&sb, diffReports(old, new)); failed {
		t.Fatalf("allocs/op appearing on one side only must not fail:\n%s", sb.String())
	}
}

// TestRunDiffEndToEnd exercises the CLI path: files on disk, exit
// codes 0 / 1 / 2.
func TestRunDiffEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) string {
		t.Helper()
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", mkReport(Benchmark{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: fp(2)}))
	goodPath := write("good.json", mkReport(Benchmark{Name: "BenchmarkA", NsPerOp: 95, AllocsPerOp: fp(2)}))
	badPath := write("bad.json", mkReport(Benchmark{Name: "BenchmarkA", NsPerOp: 95, AllocsPerOp: fp(3)}))

	var out, errb strings.Builder
	if code := runDiff(oldPath, goodPath, &out, &errb); code != 0 {
		t.Fatalf("clean diff exited %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "holds the line") {
		t.Fatalf("missing success summary:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	if code := runDiff(oldPath, badPath, &out, &errb); code != 1 {
		t.Fatalf("regressing diff exited %d, want 1", code)
	}
	if code := runDiff(filepath.Join(dir, "absent.json"), goodPath, &out, &errb); code != 2 {
		t.Fatalf("missing file exited %d, want 2", code)
	}
}

// TestDiffGatesOnMedians: with repeated runs the gate compares medians,
// so one slow run on either side does not decide it, while a shifted
// median still fails at the unchanged threshold.
func TestDiffGatesOnMedians(t *testing.T) {
	runs := func(ns ...int) string {
		var sb strings.Builder
		for _, n := range ns {
			fmt.Fprintf(&sb, "BenchmarkA-4 1 %d ns/op 0 allocs/op\n", n)
		}
		return sb.String()
	}
	mustParse := func(in string) *Report {
		t.Helper()
		rep, err := parse(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	old := mustParse(runs(100, 102, 98, 400, 101))
	for _, tc := range []struct {
		in   string
		fail bool
	}{
		{runs(105, 99, 300, 104, 103), false}, // one outlier, median +2%
		{runs(115, 112, 90, 114, 113), true},  // median +12%
	} {
		var sb strings.Builder
		if failed := writeDiff(&sb, diffReports(old, mustParse(tc.in))); failed != tc.fail {
			t.Fatalf("%q: failed = %v, want %v:\n%s", tc.in, failed, tc.fail, sb.String())
		}
		if !strings.Contains(sb.String(), "medians of 5 -> 5 runs") {
			t.Fatalf("report does not say it compared medians:\n%s", sb.String())
		}
	}
}
