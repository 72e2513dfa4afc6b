// Command scenariobench is the repository's benchmark. It measures the
// host cost of whole simulator workloads (cells of registered
// scenarios, run one after another through their public entry points),
// checks every cell's output against golden or repeated results, and
// prints the metrics as one JSON line. With -trace 1 it alternates
// plain passes with CPU- and block-profiled ones and charges host time
// to the repo's layers instead. See README.md for the metrics and
// workloads.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
)

// minPasses is the fewest passes a run makes, however short: repeated
// passes are what a non-golden seed is checked against.
const minPasses = 2

// setupProbesPerPass is how many times a plain run times the workload's
// set-up in a fresh process before each pass.
const setupProbesPerPass = 5

// blockProfileRate samples blocking events of about this many
// nanoseconds in traced passes (shorter ones proportionally, with the
// runtime correcting the bias).
const blockProfileRate = 10000

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenariobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper, chaos or chaos_sharded")
	seed := fs.Uint64("seed", goldenSeed, "workload seed; 0 keeps each scenario's paper seed, at which the golden files were recorded")
	seconds := fs.Float64("seconds", 20, "measure for this many seconds (at least two passes run)")
	traceMode := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 alternates plain and profiled passes and reports per-layer metrics")
	probe := fs.Bool("setup-probe", false, "expand the workload, print \"ready\" and exit (how set-up is timed)")
	goldenDir := fs.String("write-golden", "", "run one pass at the golden seed and write the workload's golden file into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "scenariobench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "scenariobench:", err)
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "scenariobench: -trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	}
	switch {
	case *probe:
		if _, err := w.expand(*seed); err != nil {
			fmt.Fprintln(stderr, "scenariobench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	case *goldenDir != "":
		if err := recordGolden(w, *goldenDir); err != nil {
			fmt.Fprintln(stderr, "scenariobench:", err)
			return 1
		}
		return 0
	}
	res, err := bench(w, *seed, *seconds, *traceMode == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "scenariobench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "scenariobench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is one run of every cell of a workload.
type pass struct {
	traced bool
	// expand, wall and cpu are host seconds: expanding the cells, then
	// running them (wall clock, and user+system CPU of the process).
	expand, wall, cpu float64
	runs              []cellRun
	mem               memDelta
	checks            []cellCheck
	// rendered holds the rendered tables and tables their digest, both
	// empty when a cell panicked.
	rendered, tables string
	// cpuProfile holds a traced pass's CPU samples.
	cpuProfile []stackSample
}

// memDelta is the Go runtime's allocation and collection work over a
// pass.
type memDelta struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU                         float64
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	d := memDelta{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: uint64(ms.NumGC)}
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		d.gcCPU = s[0].Value.Float64()
	}
	return d
}

func (a memDelta) sub(b memDelta) memDelta {
	return memDelta{
		allocBytes: a.allocBytes - b.allocBytes,
		mallocs:    a.mallocs - b.mallocs,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}

// rusage returns the process's user+system CPU seconds and peak
// resident set in MiB.
func rusage() (cpu, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// runPass expands and runs every cell once, profiling the CPU when
// traced.
func runPass(w workload, seed uint64, traced bool) (*pass, error) {
	p := &pass{traced: traced}
	t := time.Now()
	x, err := w.expand(seed)
	if err != nil {
		return nil, err
	}
	p.expand = time.Since(t).Seconds()
	var prof bytes.Buffer
	memBefore := readMem()
	cpuBefore, _ := rusage()
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		runtime.SetBlockProfileRate(blockProfileRate)
	}
	start := time.Now()
	p.runs = runCells(x.jobs)
	p.wall = time.Since(start).Seconds()
	if traced {
		pprof.StopCPUProfile()
		runtime.SetBlockProfileRate(0)
	}
	cpuAfter, _ := rusage()
	p.cpu = cpuAfter - cpuBefore
	p.mem = readMem().sub(memBefore)
	if traced {
		if p.cpuProfile, err = parseProfile(prof.Bytes(), "cpu"); err != nil {
			return nil, err
		}
	}
	outs := make([]harness.Output, len(p.runs))
	ok := true
	for i, r := range p.runs {
		outs[i] = r.out
		c := cellCheck{Name: x.jobs[i].Name, TimedOut: r.out.TimedOut}
		if r.err != nil {
			ok = false
			c.Fingerprint = "panic"
		} else {
			c.Fingerprint = fingerprint(r.out.Value)
		}
		p.checks = append(p.checks, c)
	}
	if ok {
		p.rendered = x.render(outs)
		p.tables = tablesDigest(p.rendered)
	}
	return p, nil
}

// reference is what a run's passes are checked against.
type reference struct {
	cells  []cellCheck
	tables string
}

// referenceFor returns the golden output at the golden seed and the
// first pass's output at any other seed. The golden tables of a
// workload with a reference workload are its reference's (a test keeps
// the golden files so).
func referenceFor(w workload, seed uint64, first *pass) (reference, error) {
	if seed != goldenSeed {
		return reference{cells: first.checks, tables: first.tables}, nil
	}
	g, err := loadGolden(w.name)
	if err != nil {
		return reference{}, err
	}
	return reference{cells: g.Cells, tables: g.Tables}, nil
}

// divergentLines runs the workload's reference workload once at seed
// and counts the lines of its rendered tables that differ from p's. The
// simulator keeps sharded tables identical only while no two cross-shard
// sends share a nanosecond, and some seeds break that, so a non-zero
// count away from the golden seed is reported, not failed.
func divergentLines(w workload, seed uint64, p *pass) (int, error) {
	rw, err := lookupWorkload(w.reference)
	if err != nil {
		return 0, err
	}
	rp, err := runPass(rw, seed, false)
	if err != nil {
		return 0, err
	}
	if rp.rendered == "" || p.rendered == "" {
		return 0, fmt.Errorf("reference workload %s: a cell panicked", rw.name)
	}
	a, b := strings.Split(p.rendered, "\n"), strings.Split(rp.rendered, "\n")
	n := 0
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			n++
		}
	}
	return n, nil
}

// failures counts the pass's failed cells: a cell fails when it
// panicked or its fingerprint or horizon flag differs from the
// reference. Tables that differ from the reference fail every cell of
// the pass.
func (ref reference) failures(p *pass) int {
	if p.tables != ref.tables || len(p.checks) != len(ref.cells) {
		return len(p.checks)
	}
	n := 0
	for i, c := range p.checks {
		if c != ref.cells[i] {
			n++
		}
	}
	return n
}

// bench runs the workload for the given time and returns its metrics.
func bench(w workload, seed uint64, seconds float64, traced bool, log io.Writer) (*result, error) {
	// setup, walls and cpus are scaled to the reference host speed by
	// the calibration taken just before each pass (see calibrate.go).
	var setup, walls, cpus, cals []float64
	var passes []*pass
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < seconds; i++ {
		cal := calibrate()
		scale := calibrationRef / cal
		cals = append(cals, cal)
		if !traced {
			// Probing before every pass samples set-up across the whole
			// run, not only the host's state at its start.
			ds, err := timeSetup(w, seed, setupProbesPerPass)
			if err != nil {
				return nil, err
			}
			for _, d := range ds {
				setup = append(setup, d*scale)
			}
		}
		p, err := runPass(w, seed, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if !p.traced {
			walls = append(walls, p.wall*scale)
			cpus = append(cpus, p.cpu*scale)
		}
		fmt.Fprintf(log, "pass %d traced=%t: calibration %.5f s; raw wall %.4f s, cpu %.4f s; %d GC cycles\n",
			i, p.traced, cal, p.wall, p.cpu, p.mem.gcCycles)
	}
	_, rss := rusage()
	ref, err := referenceFor(w, seed, passes[0])
	if err != nil {
		return nil, err
	}
	divergent := 0
	if w.reference != "" && seed != goldenSeed {
		if divergent, err = divergentLines(w, seed, passes[0]); err != nil {
			return nil, err
		}
		if divergent > 0 {
			fmt.Fprintf(log, "%s seed %d: %d table lines differ from %s's\n", w.name, seed, divergent, w.reference)
		}
	}
	res := &result{Metrics: map[string]metric{}}
	for _, p := range passes {
		res.Attempted += len(p.checks)
		res.Failed += ref.failures(p)
	}
	res.Correct = res.Failed == 0
	if traced {
		res.Metrics["pdes.divergent_lines"] = metric{float64(divergent), "count"}
		res.Metrics["host.calibration_s"] = metric{median(cals), "s"}
		if err := layerMetrics(res.Metrics, passes); err != nil {
			return nil, err
		}
	} else {
		res.Metrics["wall_s"] = metric{median(walls), "s"}
		res.Metrics["cpu_s"] = metric{median(cpus), "s"}
		res.Metrics["max_rss_mb"] = metric{rss, "MB"}
		res.Metrics["setup_s"] = metric{median(setup), "s"}
		res.Metrics["pass_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "frac"}
		fmt.Fprintf(log, "%s seed %d: %d passes, scaled wall_s median %.4f (quartile spread %.3f), calibration median %.5f s; setup_s median of %d probes\n",
			w.name, seed, len(passes), median(walls), spread(walls), median(cals), len(setup))
	}
	fmt.Fprintf(log, "%s seed %d: %d of %d cells failed\n", w.name, seed, res.Failed, res.Attempted)
	return res, nil
}

// timeSetup starts this program n times in set-up probe mode and
// returns the seconds from each start until the probe has expanded the
// workload's cells, ready to run the first.
func timeSetup(w workload, seed uint64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var ds []float64
	for i := 0; i < n; i++ {
		d, err := probeOnce(exe, w.name, seed)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		ds = append(ds, d)
	}
	return ds, nil
}

func probeOnce(exe, name string, seed uint64) (float64, error) {
	cmd := exec.Command(exe, "-setup-probe", "-workload", name, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if readErr != nil || line != "ready\n" {
		return 0, errors.New("probe did not report ready")
	}
	return d, nil
}

// recordGolden runs one pass at the golden seed and writes its output
// as the workload's golden file.
func recordGolden(w workload, dir string) error {
	p, err := runPass(w, goldenSeed, false)
	if err != nil {
		return err
	}
	if p.tables == "" {
		return errors.New("a cell panicked; not recording")
	}
	return writeGolden(dir, &golden{Workload: w.name, Seed: goldenSeed, Tables: p.tables, Cells: p.checks})
}
