package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// The -diff mode: compare two BENCH_*.json perf trajectories and turn
// the committed baseline into a gate (ROADMAP item 5b). A benchmark
// recorded from repeated runs (go test -count N) is compared by its
// medians, against the same thresholds. Allocs/op
// increases fail — the engine core earned its 0 allocs/op and keeps
// it — and ns/op may drift up at most nsTolerance before it counts as
// a regression, because wall-time is noisy across hosts while alloc
// counts are nearly exact: benchmarks that run whole simulations at
// -benchtime=1x pick up a couple of stray runtime/GC allocations
// attributed to their single iteration, so the alloc gate tolerates
// allocSlackAbs or allocSlackRel·old, whichever is larger. A real
// per-op leak scales with the simulation's event count and blows
// through both; 0 -> 1 on an alloc-free microbenchmark still fails.
//
// The sim-* metrics (simulated GFLOPS, latencies, preemption counts,
// ...) are outcomes of the simulation, not of the host, so they are
// identical on every machine: any change to one, or a sim-* metric that
// only one side reports, fails the gate. That makes the diff a
// byte-level determinism check for the benchmarked configurations that
// no `uschedsim` scenario runs (the affinity and quantum ablations).

// nsTolerance is the fractional ns/op increase tolerated as noise.
const nsTolerance = 0.10

// allocSlackAbs/allocSlackRel bound the allocs/op noise band.
const (
	allocSlackAbs = 0.5
	allocSlackRel = 0.005
)

// benchDelta is one benchmark's old-vs-new comparison.
type benchDelta struct {
	key        string
	oldNs      float64
	newNs      float64
	oldAllocs  *float64
	newAllocs  *float64
	nsRatio    float64 // new/old, 0 when old ns/op is 0
	nsRegress  bool
	allocs     bool     // allocs/op increased
	simDiffs   []string // changed sim-* metrics, "name old -> new"
	missingNew bool
	missingOld bool
	runs       [2]int // old and new Runs, for the report
}

func benchKey(b Benchmark) string {
	if b.Package == "" {
		return b.Name
	}
	return b.Package + "." + b.Name
}

// diffReports compares old and new, returning per-benchmark deltas in
// the old report's (package, name) order with new-only benchmarks
// appended.
func diffReports(old, new *Report) []benchDelta {
	newByKey := make(map[string]Benchmark, len(new.Benchmarks))
	for _, b := range new.Benchmarks {
		newByKey[benchKey(b)] = b
	}
	var deltas []benchDelta
	seen := make(map[string]bool, len(old.Benchmarks))
	for _, ob := range old.Benchmarks {
		key := benchKey(ob)
		seen[key] = true
		nb, ok := newByKey[key]
		if !ok {
			deltas = append(deltas, benchDelta{key: key, oldNs: ob.NsPerOp, missingNew: true})
			continue
		}
		d := benchDelta{
			key:       key,
			oldNs:     ob.NsPerOp,
			newNs:     nb.NsPerOp,
			oldAllocs: ob.AllocsPerOp,
			newAllocs: nb.AllocsPerOp,
			runs:      [2]int{ob.Runs, nb.Runs},
		}
		if ob.NsPerOp > 0 {
			d.nsRatio = nb.NsPerOp / ob.NsPerOp
			d.nsRegress = d.nsRatio > 1+nsTolerance
		}
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil {
			slack := allocSlackAbs
			if rel := allocSlackRel * *ob.AllocsPerOp; rel > slack {
				slack = rel
			}
			d.allocs = *nb.AllocsPerOp > *ob.AllocsPerOp+slack
		}
		d.simDiffs = simMetricDiffs(ob.Metrics, nb.Metrics)
		deltas = append(deltas, d)
	}
	for _, nb := range new.Benchmarks {
		if key := benchKey(nb); !seen[key] {
			deltas = append(deltas, benchDelta{key: key, newNs: nb.NsPerOp, missingOld: true})
		}
	}
	return deltas
}

// simMetricDiffs lists, in name order, the sim-* metrics whose values
// differ between old and new, a missing metric counting as a change.
func simMetricDiffs(old, new map[string]float64) []string {
	var names []string
	for name := range old {
		names = append(names, name)
	}
	for name := range new {
		if _, ok := old[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var diffs []string
	for _, name := range names {
		if !strings.HasPrefix(name, "sim-") {
			continue
		}
		ov, inOld := old[name]
		nv, inNew := new[name]
		switch {
		case !inNew:
			diffs = append(diffs, fmt.Sprintf("%s %g -> missing", name, ov))
		case !inOld:
			diffs = append(diffs, fmt.Sprintf("%s missing -> %g", name, nv))
		case ov != nv:
			diffs = append(diffs, fmt.Sprintf("%s %g -> %g", name, ov, nv))
		}
	}
	return diffs
}

// writeDiff renders the deltas and reports whether the comparison
// fails the gate (any allocs/op increase, >nsTolerance ns/op
// regression or changed sim-* metric). Benchmarks present on only one
// side are informational.
func writeDiff(w io.Writer, deltas []benchDelta) (failed bool) {
	for _, d := range deltas {
		switch {
		case d.missingNew:
			fmt.Fprintf(w, "?  %-60s only in OLD\n", d.key)
		case d.missingOld:
			fmt.Fprintf(w, "?  %-60s only in NEW (%.1f ns/op)\n", d.key, d.newNs)
		default:
			mark := "ok"
			if d.nsRegress || d.allocs || len(d.simDiffs) > 0 {
				mark = "RE"
				failed = true
			} else if d.nsRatio != 0 && d.nsRatio < 1-nsTolerance {
				mark = "im" // improvement beyond the noise band
			}
			line := fmt.Sprintf("%s %-60s %12.1f -> %12.1f ns/op (%+.1f%%)",
				mark, d.key, d.oldNs, d.newNs, 100*(d.nsRatio-1))
			if d.oldAllocs != nil && d.newAllocs != nil {
				line += fmt.Sprintf("  %6.0f -> %6.0f allocs/op", *d.oldAllocs, *d.newAllocs)
				if d.allocs {
					line += "  ALLOC REGRESSION"
				}
			}
			if d.nsRegress {
				line += fmt.Sprintf("  NS REGRESSION (> %+.0f%%)", 100*nsTolerance)
			}
			for _, sd := range d.simDiffs {
				line += "  SIM METRIC CHANGED: " + sd
			}
			if d.runs[0] > 1 || d.runs[1] > 1 {
				line += fmt.Sprintf("  [medians of %d -> %d runs]", max(d.runs[0], 1), max(d.runs[1], 1))
			}
			fmt.Fprintln(w, line)
		}
	}
	return failed
}

// readReport loads one BENCH_*.json file.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}

// runDiff implements `benchjson -diff OLD NEW`: exit 0 when NEW holds
// the line against OLD, 1 on any regression, 2 on usage/IO errors.
func runDiff(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	new, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	deltas := diffReports(old, new)
	if writeDiff(stdout, deltas) {
		fmt.Fprintf(stderr, "benchjson: %s regressed against %s (allocs/op increase, ns/op > +%.0f%% or a changed sim-* metric)\n",
			newPath, oldPath, 100*nsTolerance)
		return 1
	}
	fmt.Fprintf(stdout, "benchjson: %s holds the line against %s\n", newPath, oldPath)
	return 0
}
