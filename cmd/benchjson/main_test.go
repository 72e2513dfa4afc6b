package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFigure3MatmulBaseline-4    3  46143907 ns/op  207.2 sim-GFLOPS  0 sim-preemptions  222306 B/op  3750 allocs/op
BenchmarkZZZ-4  1  5 ns/op
PASS
ok  	repro	1.923s
pkg: repro/internal/sim
BenchmarkTimerChurn-4  10398724  115.1 ns/op  0 B/op  0 allocs/op
some noise line
ok  	repro/internal/sim	8.417s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	// Sorted by (package, name).
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkFigure3MatmulBaseline" || b.Package != "repro" {
		t.Fatalf("first = %+v", b)
	}
	if b.Iterations != 3 || b.NsPerOp != 46143907 {
		t.Fatalf("ns/op: %+v", b)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 3750 {
		t.Fatalf("allocs/op: %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 222306 {
		t.Fatalf("B/op: %+v", b)
	}
	if b.Metrics["sim-GFLOPS"] != 207.2 || b.Metrics["sim-preemptions"] != 0 {
		t.Fatalf("metrics: %+v", b.Metrics)
	}
	churn := rep.Benchmarks[2]
	if churn.Name != "BenchmarkTimerChurn" || churn.Package != "repro/internal/sim" {
		t.Fatalf("third = %+v", churn)
	}
	if churn.AllocsPerOp == nil || *churn.AllocsPerOp != 0 {
		t.Fatalf("churn allocs: %+v", churn)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkBroken-4 notanumber ns/op\nhello\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed garbage: %+v", rep.Benchmarks)
	}
}

// countSample is `go test -count 3` output: three runs of each
// benchmark, one of them an outlier.
const countSample = `pkg: repro
BenchmarkFigure3-4  1  300 ns/op  207.2 sim-GFLOPS  12 events/op  900 B/op  7 allocs/op
BenchmarkFigure3-4  1  100 ns/op  207.2 sim-GFLOPS  10 events/op  500 B/op  5 allocs/op
BenchmarkFigure3-4  1  200 ns/op  207.2 sim-GFLOPS  11 events/op  700 B/op  6 allocs/op
BenchmarkOnce-4  1  5 ns/op
`

func TestParseMergesRepeatedRuns(t *testing.T) {
	rep, err := parse(strings.NewReader(countSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkFigure3" || b.Runs != 3 || b.Iterations != 3 {
		t.Fatalf("merged record: %+v", b)
	}
	if b.NsPerOp != 200 || *b.AllocsPerOp != 6 || *b.BytesPerOp != 700 {
		t.Fatalf("medians: ns/op %v allocs/op %v B/op %v", b.NsPerOp, *b.AllocsPerOp, *b.BytesPerOp)
	}
	if b.Metrics["sim-GFLOPS"] != 207.2 || b.Metrics["events/op"] != 11 {
		t.Fatalf("metrics: %+v", b.Metrics)
	}
	if len(b.NsPerOpRuns) != 3 || b.NsPerOpRuns[0] != 300 || b.NsPerOpRuns[2] != 200 {
		t.Fatalf("runs: %v", b.NsPerOpRuns)
	}
	if once := rep.Benchmarks[1]; once.Runs != 0 || once.NsPerOpRuns != nil || once.NsPerOp != 5 {
		t.Fatalf("single run: %+v", once)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}

// TestParseRejectsDivergentSimMetric: simulated outcomes cannot differ
// between runs of one binary; if they do, the run is not deterministic
// and no median means anything.
func TestParseRejectsDivergentSimMetric(t *testing.T) {
	for _, in := range []string{
		"BenchmarkA-4 1 10 ns/op 3 sim-preemptions\nBenchmarkA-4 1 11 ns/op 4 sim-preemptions\n",
		"BenchmarkA-4 1 10 ns/op 3 sim-preemptions\nBenchmarkA-4 1 11 ns/op\n",
	} {
		if _, err := parse(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "sim-preemptions") {
			t.Fatalf("%q: err = %v, want a sim-preemptions mismatch", in, err)
		}
	}
}
