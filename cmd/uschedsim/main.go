// Command uschedsim runs the paper's experiments on the simulated stack
// and prints paper-style tables.
//
// Usage:
//
//	uschedsim machine                 # print the Table 1 machine model
//	uschedsim matmul [-quick]         # Figure 3 heatmaps
//	uschedsim cholesky [-quick]       # Table 2
//	uschedsim microservices [-quick]  # Figure 4
//	uschedsim lammps [-quick]         # Figure 5 (+ bandwidth trace)
//	uschedsim schedcmp [-quick]       # kernel-scheduler ablation (classes × oversubscription)
//	uschedsim tailload [-quick]       # tail latency under load (arrival shapes × schemes, SLO knee)
//	uschedsim cluster [-quick]        # multi-node fleet (routers × schemes × shapes × load)
//	uschedsim chaos [-quick]          # fault injection (node kill & brownout × retry policies × routers)
//	uschedsim all -quick              # everything, small instances
//
// Flags may appear before or after the subcommand:
//
//	-quick      run small, fast instances instead of the scaled sweep
//	-par N      run N sim cells concurrently (default GOMAXPROCS)
//	-seed N     replace each scenario's default RNG seed so sweeps can
//	            be replicated under independent random streams (0, the
//	            default, keeps the paper seeds: output stays
//	            byte-identical run to run)
//	-shards N   spread each fleet cell (the cluster and chaos scenarios)
//	            over N engine shards advanced in conservative lockstep
//	            windows; tables are byte-identical for any N (0 or 1,
//	            the default 0 included, runs one engine per cell; N < 0
//	            is a usage error; scenarios without a fleet ignore the
//	            flag)
//	-json       print the per-cell metrics report as JSON instead of tables
//	-out FILE   also write the metrics report to FILE (.csv selects CSV)
//	-metrics FILE
//	            collect simulated-time telemetry (meter, admission,
//	            kernel, and router series scraped on the virtual
//	            timeline) in scenarios that support it and write the
//	            long-format rows to FILE (.csv selects CSV, otherwise
//	            JSON); the file is byte-identical for any -par or
//	            -shards value
//	-spans FILE record per-request hop spans (client → router → network →
//	            node queue → service → reply) in fleet scenarios and
//	            write them to FILE (.csv selects CSV); byte-identical
//	            for any -par or -shards value
//	-v          print one progress line per completed cell to stderr, with
//	            its engine events and events per host second when it
//	            reports them (completion order; table output is
//	            unaffected)
//	-trace FILE instead of sweeping, run one representative cell of the
//	            scenario with kernel event tracing and write Chrome
//	            trace-event JSON (chrome://tracing, Perfetto) to FILE;
//	            events are tagged with the scheduling class. -trace runs
//	            the cell on one shared engine and cannot be combined
//	            with -shards, -metrics, or -spans
//	-cpuprofile FILE
//	            write a pprof CPU profile of the run to FILE, so any
//	            scenario can be profiled directly (go tool pprof)
//	-memprofile FILE
//	            write a pprof heap profile taken at exit to FILE
//
// Experiments are resolved against the internal/harness scenario
// registry; their independent cells fan out over a bounded worker pool
// and are reassembled in declaration order, so table output is
// byte-identical for any -par value (timing goes to stderr). Full-size
// sweeps (-quick omitted) run the scaled paper configurations and can
// take many minutes of host time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	_ "repro/internal/experiments" // register the experiment scenarios
	"repro/internal/harness"
	"repro/internal/hw"
	"repro/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uschedsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run small, fast instances instead of the scaled paper sweep")
	par := fs.Int("par", 0, "sim cells to run concurrently (0 means GOMAXPROCS)")
	asJSON := fs.Bool("json", false, "print the metrics report as JSON instead of tables")
	outPath := fs.String("out", "", "write the metrics report to `file` (.csv selects CSV, otherwise JSON)")
	metricsPath := fs.String("metrics", "", "collect simulated-time telemetry and write the rows to `file` (.csv selects CSV, otherwise JSON)")
	spansPath := fs.String("spans", "", "record per-request spans in fleet scenarios and write them to `file` (.csv selects CSV, otherwise JSON)")
	verbose := fs.Bool("v", false, "print one progress line per completed cell to stderr")
	tracePath := fs.String("trace", "", "run one representative traced cell and write Chrome trace-event JSON to `file` (single shared engine: cannot be combined with -shards, -metrics, or -spans)")
	seed := fs.Uint64("seed", 0, "replace each scenario's default RNG seed (0 keeps the paper seeds; output is then byte-identical)")
	shards := fs.Int("shards", 0, "spread each fleet cell over `N` conservative-parallel engine shards (0 or 1: one engine; tables are byte-identical for any N)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to `file`")
	fs.Usage = func() { usage(fs) }
	parse := func(args []string) (int, bool) {
		switch err := fs.Parse(args); {
		case err == nil:
			return 0, true
		case errors.Is(err, flag.ErrHelp):
			return 0, false
		default:
			return 2, false
		}
	}
	if code, ok := parse(args); !ok {
		return code
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprintln(stderr, "uschedsim: missing subcommand")
		fs.Usage()
		return 2
	}
	cmd := rest[0]
	// Flags may follow the subcommand too: `uschedsim all -quick` and
	// `uschedsim -quick all` are equivalent.
	if code, ok := parse(rest[1:]); !ok {
		return code
	}
	if extra := fs.Args(); len(extra) > 0 {
		fmt.Fprintf(stderr, "uschedsim: unexpected arguments %q\n", extra)
		fs.Usage()
		return 2
	}
	if *shards < 0 {
		fmt.Fprintf(stderr, "uschedsim: -shards must be >= 0, got %d\n", *shards)
		return 2
	}

	// Profiling wraps everything below, so any scenario (or the whole
	// sweep) can be profiled directly: the CPU profile covers the run,
	// the heap profile is a snapshot at exit.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "uschedsim:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "uschedsim:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		// Fail fast on an unwritable path before minutes of simulation.
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(stderr, "uschedsim:", err)
			return 2
		}
		defer func() {
			runtime.GC() // surface live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "uschedsim:", err)
			}
			f.Close()
		}()
	}

	var scenarios []*harness.Scenario
	switch cmd {
	case "machine":
		if *asJSON || *outPath != "" || *tracePath != "" || *metricsPath != "" || *spansPath != "" {
			fmt.Fprintln(stderr, "uschedsim: machine does not support -json, -out, -metrics, -spans, or -trace")
			return 2
		}
		machineCmd(stdout)
		return 0
	case "all":
		scenarios = harness.Scenarios()
	default:
		s, ok := harness.Lookup(cmd)
		if !ok {
			fmt.Fprintf(stderr, "uschedsim: unknown subcommand %q\n", cmd)
			fs.Usage()
			return 2
		}
		scenarios = []*harness.Scenario{s}
	}

	opt := harness.Opts{
		Quick:       *quick,
		Seed:        *seed,
		Shards:      *shards,
		Metrics:     *metricsPath != "",
		SpanRecords: *spansPath != "",
	}
	if *verbose {
		opt.Progress = func(done, total int, m metrics.CellMetric) {
			fmt.Fprintf(stderr, "[%d/%d] %s/%s: sim %.1fs host %.2fs",
				done, total, m.Scenario, m.Cell, m.SimSeconds, m.HostSeconds)
			if m.Events > 0 {
				// The cell's work: engine events, and their rate per
				// host second.
				fmt.Fprintf(stderr, " events %d", m.Events)
				if m.HostSeconds > 0 {
					fmt.Fprintf(stderr, " (%.3gM/s)", float64(m.Events)/m.HostSeconds/1e6)
				}
			}
			fmt.Fprintln(stderr)
		}
	}
	if *tracePath != "" {
		if *shards > 1 {
			// Traced cells run on one shared engine: a sharded fleet's
			// events interleave across engines, which would scramble the
			// single flight-recorder ring.
			fmt.Fprintln(stderr, "uschedsim: -trace cannot be combined with -shards (traced cells run on one shared engine)")
			return 2
		}
		if *metricsPath != "" || *spansPath != "" {
			fmt.Fprintln(stderr, "uschedsim: -trace cannot be combined with -metrics or -spans")
			return 2
		}
		return traceCmd(scenarios, cmd, opt, *asJSON || *outPath != "", *tracePath, stderr)
	}

	// Open a temp file next to each output target before the sweep: a bad
	// path must fail fast, not after minutes of simulation, and a crash
	// or interrupt mid-sweep must not clobber a previous report. The
	// publish below renames it into place only on success.
	outFile, ok := openTarget(*outPath, stderr)
	if !ok {
		return 2
	}
	defer outFile.cleanup()
	metricsFile, ok := openTarget(*metricsPath, stderr)
	if !ok {
		return 2
	}
	defer metricsFile.cleanup()
	spansFile, ok := openTarget(*spansPath, stderr)
	if !ok {
		return 2
	}
	defer spansFile.cleanup()

	sweep := harness.RunScenarios(scenarios, opt, *par)
	report := sweep.Report()
	if *asJSON {
		b, err := report.JSON()
		if err != nil {
			fmt.Fprintln(stderr, "uschedsim:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
	} else if err := sweep.RenderTables(stdout); err != nil {
		fmt.Fprintln(stderr, "uschedsim:", err)
		return 1
	}
	fmt.Fprintf(stderr, "(%d cells, %d workers, sim time %.1fs, host time %.2fs, wall %.2fs)\n",
		sweep.Cells(), sweep.Par, report.TotalSimSeconds, report.TotalHostSeconds, report.WallSeconds)
	if !outFile.publish(stderr, report.Write) {
		return 1
	}
	if !metricsFile.publish(stderr, sweep.WriteMetrics) {
		return 1
	}
	if !spansFile.publish(stderr, sweep.WriteSpans) {
		return 1
	}
	return 0
}

// outTarget is one pending output file: a temp file next to the target
// path, renamed into place only after a successful write.
type outTarget struct {
	path string
	f    *os.File
	done bool
}

// openTarget opens a temp file next to path (nil target when path is
// empty). Reports false after printing the error.
func openTarget(path string, stderr io.Writer) (*outTarget, bool) {
	if path == "" {
		return nil, true
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".uschedsim-out-*")
	if err != nil {
		fmt.Fprintln(stderr, "uschedsim:", err)
		return nil, false
	}
	return &outTarget{path: path, f: f}, true
}

// cleanup removes the temp file unless publish renamed it into place.
func (t *outTarget) cleanup() {
	if t == nil || t.done {
		return
	}
	t.f.Close()
	os.Remove(t.f.Name())
}

// publish writes via write (CSV when the target path ends in .csv) and
// renames the temp file into place. Reports success; errors go to
// stderr.
func (t *outTarget) publish(stderr io.Writer, write func(w io.Writer, csv bool) error) bool {
	if t == nil {
		return true
	}
	if err := write(t.f, harness.CSVPath(t.path)); err != nil {
		fmt.Fprintln(stderr, "uschedsim:", err)
		return false
	}
	// CreateTemp made the file 0600; publish it world-readable like a
	// plain create would.
	if err := t.f.Chmod(0o644); err != nil {
		fmt.Fprintln(stderr, "uschedsim:", err)
		return false
	}
	if err := t.f.Close(); err != nil {
		fmt.Fprintln(stderr, "uschedsim:", err)
		return false
	}
	if err := os.Rename(t.f.Name(), t.path); err != nil {
		fmt.Fprintln(stderr, "uschedsim:", err)
		return false
	}
	t.done = true
	return true
}

// traceCmd runs the scenario's representative traced cell and writes the
// Chrome trace-event JSON. It replaces the sweep: the traced cell runs
// serially (traces from a pooled sweep would interleave engines).
func traceCmd(scenarios []*harness.Scenario, cmd string, opt harness.Opts, withReport bool, path string, stderr io.Writer) int {
	if withReport {
		fmt.Fprintln(stderr, "uschedsim: -trace cannot be combined with -json or -out")
		return 2
	}
	if len(scenarios) != 1 {
		fmt.Fprintln(stderr, "uschedsim: -trace needs a single scenario subcommand")
		return 2
	}
	s := scenarios[0]
	if s.Trace == nil {
		fmt.Fprintf(stderr, "uschedsim: scenario %q does not support tracing\n", s.Name)
		return 2
	}
	buf := s.Trace(opt)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "uschedsim:", err)
		return 2
	}
	if err := buf.WriteChromeTrace(f); err != nil {
		f.Close()
		fmt.Fprintln(stderr, "uschedsim:", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(stderr, "uschedsim:", err)
		return 1
	}
	fmt.Fprintf(stderr, "(%s: %d trace events written to %s, %d dropped)\n",
		cmd, buf.Len(), path, buf.Dropped)
	return 0
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), "usage: uschedsim [flags] {machine|%s|all} [flags]\n",
		strings.Join(harness.Names(), "|"))
	fs.PrintDefaults()
}

func machineCmd(w io.Writer) {
	cfg := hw.MareNostrum5()
	fmt.Fprintf(w, "Machine: %s (paper Table 1)\n", cfg.Name)
	fmt.Fprintf(w, "  Sockets:          %d\n", cfg.Topo.Sockets)
	fmt.Fprintf(w, "  Cores/socket:     %d (total %d)\n", cfg.Topo.CoresPerSocket, cfg.Topo.Cores())
	fmt.Fprintf(w, "  NUMA nodes:       %d\n", cfg.Topo.NUMANodes())
	fmt.Fprintf(w, "  Socket bandwidth: %.0f GB/s\n", cfg.Mem.SocketBandwidth)
	fmt.Fprintf(w, "  Core dgemm rate:  %.0f GFLOP/s\n", cfg.CoreGFLOPS)
	fmt.Fprintf(w, "  Context switch:   %v\n", cfg.Costs.ContextSwitch)
	fmt.Fprintf(w, "  Migration (socket): %v\n", cfg.Costs.MigrationCrossSocket)
}
