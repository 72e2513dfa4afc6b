// Command benchjson converts `go test -bench` output into a
// machine-readable JSON perf trajectory. It reads benchmark text from
// stdin (or -in FILE) and writes a JSON document (to stdout or -out
// FILE) with one record per benchmark: iterations, ns/op, B/op,
// allocs/op, and any custom metrics (the sim-* values the paper
// benchmarks report). CI runs it after the bench job so every PR leaves
// a BENCH_*.json artifact to diff against.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -benchmem -run='^$' ./... | benchjson -out BENCH_PR4.json
//
// The input may repeat each benchmark (go test -count N): the record
// then holds the median ns/op, B/op, allocs/op and host-side metrics of
// the runs, their count, and each run's ns/op. The sim-* metrics must be
// equal in every run (they are simulated outcomes); a difference is an
// error.
//
// It can also gate a fresh run against a committed baseline:
//
//	benchjson -diff BENCH_PR5.json BENCH_CI.json
//
// which prints a per-benchmark comparison and exits non-zero if any
// benchmark's allocs/op increased or its ns/op regressed by more than
// 10% (wall time is noisy; allocation counts are near-exact — see the
// noise band in diff.go).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's result: one parsed result line, or the
// medians of its repeated runs.
type Benchmark struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Iterations  int64              `json:"iterations"` // summed over runs
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"b_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Runs and NsPerOpRuns are set for a repeated benchmark: the number
	// of runs and each run's ns/op, in input order.
	Runs        int       `json:"runs,omitempty"`
	NsPerOpRuns []float64 `json:"ns_per_op_runs,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "", "read benchmark output from `file` instead of stdin")
	out := flag.String("out", "", "write JSON to `file` instead of stdout")
	diff := flag.Bool("diff", false, "compare two BENCH_*.json files: benchjson -diff OLD NEW")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two arguments: OLD NEW")
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), os.Stdout, os.Stderr))
	}

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		defer f.Close()
		r = f
	}
	rep, err := parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
}

// parse consumes `go test -bench` text output. Unknown lines are
// ignored, so interleaved test output ("ok repro 1.2s", PASS) is
// harmless. Repeated runs of a benchmark merge into one record (merge).
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		b.Package = pkg
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	merged, err := mergeRuns(rep.Benchmarks)
	if err != nil {
		return nil, err
	}
	rep.Benchmarks = merged
	sort.SliceStable(rep.Benchmarks, func(i, j int) bool {
		if rep.Benchmarks[i].Package != rep.Benchmarks[j].Package {
			return rep.Benchmarks[i].Package < rep.Benchmarks[j].Package
		}
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	return rep, nil
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkTimerChurn-4  10398724  115.1 ns/op  0 B/op  0 allocs/op  3.2 sim-GFLOPS
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so names are stable across hosts.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	seenNs := false
	// The remainder alternates value / unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
			seenNs = true
		case "B/op":
			vv := v
			b.BytesPerOp = &vv
		case "allocs/op":
			vv := v
			b.AllocsPerOp = &vv
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, seenNs
}

// mergeRuns merges the runs of each repeated benchmark (same package
// and name) into one record at the first run's position: the median of
// every per-op figure and host-side metric, iterations summed. A sim-*
// metric that differs between runs, or that only some runs report, is
// an error.
func mergeRuns(runs []Benchmark) ([]Benchmark, error) {
	byKey := make(map[string][]Benchmark)
	var order []string
	for _, b := range runs {
		key := b.Package + "." + b.Name
		if _, ok := byKey[key]; !ok {
			order = append(order, key)
		}
		byKey[key] = append(byKey[key], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, key := range order {
		rs := byKey[key]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		m := Benchmark{Name: rs[0].Name, Package: rs[0].Package, Runs: len(rs)}
		var ns, bytes, allocs []float64
		metrics := make(map[string][]float64)
		for _, r := range rs {
			m.Iterations += r.Iterations
			ns = append(ns, r.NsPerOp)
			if r.BytesPerOp != nil {
				bytes = append(bytes, *r.BytesPerOp)
			}
			if r.AllocsPerOp != nil {
				allocs = append(allocs, *r.AllocsPerOp)
			}
			for name, v := range r.Metrics {
				metrics[name] = append(metrics[name], v)
			}
		}
		m.NsPerOpRuns = ns
		m.NsPerOp = median(ns)
		if len(bytes) == len(rs) {
			v := median(bytes)
			m.BytesPerOp = &v
		}
		if len(allocs) == len(rs) {
			v := median(allocs)
			m.AllocsPerOp = &v
		}
		names := make([]string, 0, len(metrics))
		for name := range metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vs := metrics[name]
			if strings.HasPrefix(name, "sim-") {
				if len(vs) != len(rs) {
					return nil, fmt.Errorf("%s: %s reported by %d of %d runs", key, name, len(vs), len(rs))
				}
				for _, v := range vs[1:] {
					if v != vs[0] {
						return nil, fmt.Errorf("%s: %s differs between runs: %g and %g", key, name, vs[0], v)
					}
				}
			}
			if m.Metrics == nil {
				m.Metrics = make(map[string]float64)
			}
			m.Metrics[name] = median(vs)
		}
		out = append(out, m)
	}
	return out, nil
}

// median returns the median of vs (the mean of the middle two for an
// even count), leaving vs unsorted.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
