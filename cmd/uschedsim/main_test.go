package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestMachineSmoke(t *testing.T) {
	code, out, _ := runCLI(t, "machine")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"Machine:", "Sockets:", "Core dgemm rate:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("machine output missing %q:\n%s", want, out)
		}
	}
	// machine has no cells, so asking for a metrics report is an error,
	// not silently ignored.
	code, _, errOut := runCLI(t, "machine", "-json")
	if code != 2 || !strings.Contains(errOut, "machine does not support") {
		t.Fatalf("machine -json: exit %d, stderr:\n%s", code, errOut)
	}
}

func TestQuickSweepFlagsEitherPosition(t *testing.T) {
	// `-quick` before the subcommand (the form that used to exit 2).
	code, before, errOut := runCLI(t, "-quick", "-par", "2", "cholesky")
	if code != 0 {
		t.Fatalf("flags-first exit %d: %s", code, errOut)
	}
	// Same flags after the subcommand, different pool width.
	code, after, _ := runCLI(t, "cholesky", "-quick", "-par", "4")
	if code != 0 {
		t.Fatalf("flags-last exit %d", code)
	}
	if before != after {
		t.Fatalf("tables differ between -par 2 and -par 4:\n%s\n---\n%s", before, after)
	}
	for _, want := range []string{"Table 2: Cholesky runtime compositions", "tbb", "blis"} {
		if !strings.Contains(before, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, before)
		}
	}
}

func TestUnknownSubcommandNamed(t *testing.T) {
	code, _, errOut := runCLI(t, "bogus", "-quick")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, `unknown subcommand "bogus"`) {
		t.Fatalf("usage error does not name the subcommand:\n%s", errOut)
	}
	if code, _, errOut = runCLI(t); code != 2 || !strings.Contains(errOut, "missing subcommand") {
		t.Fatalf("no-arg run: exit %d, stderr:\n%s", code, errOut)
	}
}

func TestNegativeShardsRejected(t *testing.T) {
	code, out, errOut := runCLI(t, "chaos", "-quick", "-shards", "-1")
	if code != 2 || !strings.Contains(errOut, "-shards must be >= 0") {
		t.Fatalf("-shards -1: exit %d, stderr:\n%s", code, errOut)
	}
	if out != "" {
		t.Fatalf("-shards -1 ran anyway:\n%s", out)
	}
}

func TestJSONReportRoundTripAndOutFile(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "cells.CSV") // extension match is case-insensitive
	code, out, errOut := runCLI(t, "-quick", "-json", "-par", "64", "-out", csvPath, "lammps")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var rep harness.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output does not round-trip: %v\n%s", err, out)
	}
	if len(rep.Cells) != 7 { // seven Fig. 5 scenarios
		t.Fatalf("cells = %d, want 7", len(rep.Cells))
	}
	if rep.Workers != 7 { // -par 64 must be clamped to the cell count
		t.Fatalf("workers = %d, want 7", rep.Workers)
	}
	// A bad -out path must fail before the sweep runs.
	if code, _, errOut = runCLI(t, "-quick", "-out", "/nonexistent-dir/x.csv", "lammps"); code != 2 {
		t.Fatalf("bad -out path: exit %d, stderr:\n%s", code, errOut)
	}
	for _, c := range rep.Cells {
		if c.Scenario != "lammps" || c.SimSeconds <= 0 || c.HostSeconds <= 0 {
			t.Fatalf("bad cell metric: %+v", c)
		}
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 8 || !strings.HasPrefix(lines[0], "scenario,cell,") {
		t.Fatalf("-out csv:\n%s", data)
	}
}

func TestSchedCmpSubcommand(t *testing.T) {
	code, out, errOut := runCLI(t, "schedcmp", "-quick", "-par", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"Kernel-scheduler ablation", "fair", "rr", "fifo", "batch", "speedup vs fair"} {
		if !strings.Contains(out, want) {
			t.Fatalf("schedcmp output missing %q:\n%s", want, out)
		}
	}
	// Determinism across pool widths, like every other scenario.
	code, out2, _ := runCLI(t, "-par", "5", "schedcmp", "-quick")
	if code != 0 || out != out2 {
		t.Fatalf("schedcmp tables differ between -par 2 and -par 5 (exit %d)", code)
	}
}

func TestChaosSubcommand(t *testing.T) {
	code, out, errOut := runCLI(t, "chaos", "-quick", "-par", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{
		"fault: kill", "fault: brownout", "goodput", "ttr_s", "never",
		"rr/unlimited", "rr/budgeted", "p2c/hedged",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos output missing %q:\n%s", want, out)
		}
	}
	// Determinism across pool widths and shard counts: a retry storm
	// renders the same tables on any host configuration.
	code, out2, _ := runCLI(t, "-par", "5", "chaos", "-quick", "-shards", "2")
	if code != 0 || out != out2 {
		t.Fatalf("chaos tables differ between -par 2 and -par 5 -shards 2 (exit %d)", code)
	}
}

func TestTailLoadSubcommand(t *testing.T) {
	code, out, errOut := runCLI(t, "tailload", "-quick", "-par", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{
		"Tail latency under load", "arrivals: poisson", "arrivals: bursty",
		"p99 latency", "goodput", "SLO violation fraction",
		"Max sustainable load", "sched_coop", "fair", "rr", "fifo", "batch",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("tailload output missing %q:\n%s", want, out)
		}
	}
	// Determinism across pool widths, like every other scenario.
	code, out2, _ := runCLI(t, "-par", "5", "tailload", "-quick")
	if code != 0 || out != out2 {
		t.Fatalf("tailload tables differ between -par 2 and -par 5 (exit %d)", code)
	}
}

func TestTailLoadJSONReport(t *testing.T) {
	code, out, errOut := runCLI(t, "tailload", "-quick", "-json", "-par", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var rep harness.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output does not round-trip: %v\n%s", err, out)
	}
	// 2 shapes x 5 schemes x 4 loads in the quick config.
	if len(rep.Cells) != 40 {
		t.Fatalf("cells = %d, want 40", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Scenario != "tailload" || c.SimSeconds <= 0 || c.HostSeconds <= 0 {
			t.Fatalf("bad cell metric: %+v", c)
		}
	}
	if rep.Seed != 0 {
		t.Fatalf("default run must record seed 0, got %d", rep.Seed)
	}
}

func TestSeedFlagReplicatesSweeps(t *testing.T) {
	// The override must be recorded in the report and perturb results;
	// the same override twice must agree exactly.
	code, def, _ := runCLI(t, "microservices", "-quick")
	if code != 0 {
		t.Fatal("default run failed")
	}
	code, seeded, errOut := runCLI(t, "microservices", "-quick", "-seed", "12345")
	if code != 0 {
		t.Fatalf("seeded run failed: %s", errOut)
	}
	if def == seeded {
		t.Fatal("-seed 12345 produced byte-identical output to the default seeds")
	}
	code, seeded2, _ := runCLI(t, "-seed", "12345", "microservices", "-quick")
	if code != 0 || seeded != seeded2 {
		t.Fatalf("same -seed not reproducible (exit %d)", code)
	}
	code, out, _ := runCLI(t, "microservices", "-quick", "-json", "-seed", "12345")
	if code != 0 {
		t.Fatal("seeded -json run failed")
	}
	var rep harness.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 12345 {
		t.Fatalf("report seed = %d, want 12345", rep.Seed)
	}
}

func TestShardsFlagRecordedAndInert(t *testing.T) {
	// -shards must be recorded in the report, and scenarios without a
	// fleet must ignore it entirely: same tables, byte for byte. (The
	// cluster scenario's byte-identity across shard counts is covered in
	// internal/experiments and internal/cluster.)
	code, def, _ := runCLI(t, "cholesky", "-quick")
	if code != 0 {
		t.Fatal("default run failed")
	}
	code, sharded, errOut := runCLI(t, "cholesky", "-quick", "-shards", "3")
	if code != 0 {
		t.Fatalf("sharded run failed: %s", errOut)
	}
	if def != sharded {
		t.Fatal("-shards changed a scenario with no fleet")
	}
	code, out, _ := runCLI(t, "cholesky", "-quick", "-json", "-shards", "3")
	if code != 0 {
		t.Fatal("sharded -json run failed")
	}
	var rep harness.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 3 {
		t.Fatalf("report shards = %d, want 3", rep.Shards)
	}
}

func TestTraceFlagWritesChromeJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, out, errOut := runCLI(t, "schedcmp", "-quick", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if out != "" {
		t.Fatalf("-trace must not print tables, got:\n%s", out)
	}
	if !strings.Contains(errOut, "trace events written") {
		t.Fatalf("missing trace summary on stderr:\n%s", errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace file is not a JSON event array: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("trace file holds no events")
	}
	// Dispatch slices carry the scheduling-class tag.
	tagged := false
	for _, e := range evs {
		if e["ph"] == "B" {
			if args, ok := e["args"].(map[string]any); ok && args["class"] != nil {
				tagged = true
				break
			}
		}
	}
	if !tagged {
		t.Fatal("no run-start event carries a scheduling-class tag")
	}
}

func TestTraceFlagErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	// cholesky has no tracer hookup.
	if code, _, errOut := runCLI(t, "cholesky", "-quick", "-trace", path); code != 2 ||
		!strings.Contains(errOut, "does not support tracing") {
		t.Fatalf("cholesky -trace: exit %d, stderr:\n%s", code, errOut)
	}
	// -trace is a single-scenario mode.
	if code, _, errOut := runCLI(t, "all", "-quick", "-trace", path); code != 2 ||
		!strings.Contains(errOut, "single scenario") {
		t.Fatalf("all -trace: exit %d, stderr:\n%s", code, errOut)
	}
	// ...and excludes the metrics report.
	if code, _, errOut := runCLI(t, "matmul", "-quick", "-trace", path, "-json"); code != 2 ||
		!strings.Contains(errOut, "cannot be combined") {
		t.Fatalf("-trace -json: exit %d, stderr:\n%s", code, errOut)
	}
}

func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, out, errOut := runCLI(t, "cholesky", "-quick", "-par", "1",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "Table 2") {
		t.Fatalf("profiled run lost its table output:\n%s", out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// An unwritable profile path must fail fast, before the sweep.
	code, _, _ = runCLI(t, "cholesky", "-quick",
		"-cpuprofile", filepath.Join(dir, "no/such/dir/cpu.pprof"))
	if code != 2 {
		t.Fatalf("bad -cpuprofile path: exit %d, want 2", code)
	}
}

func TestTraceShardsExclusion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	// Traced cells run on one shared engine; a sharded fleet would
	// scramble the single flight-recorder ring.
	if code, _, errOut := runCLI(t, "schedcmp", "-quick", "-trace", path, "-shards", "2"); code != 2 ||
		!strings.Contains(errOut, "-trace cannot be combined with -shards") {
		t.Fatalf("-trace -shards: exit %d, stderr:\n%s", code, errOut)
	}
	// -shards 1 is the shared-engine degenerate case and stays allowed.
	if code, _, errOut := runCLI(t, "schedcmp", "-quick", "-trace", path, "-shards", "1"); code != 0 {
		t.Fatalf("-trace -shards 1: exit %d, stderr:\n%s", code, errOut)
	}
}

func TestTelemetryFlagExclusions(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	mfile := filepath.Join(dir, "m.csv")
	// -trace replaces the sweep, so there is no telemetry to export.
	if code, _, errOut := runCLI(t, "schedcmp", "-quick", "-trace", trace, "-metrics", mfile); code != 2 ||
		!strings.Contains(errOut, "-trace cannot be combined with -metrics or -spans") {
		t.Fatalf("-trace -metrics: exit %d, stderr:\n%s", code, errOut)
	}
	if code, _, errOut := runCLI(t, "schedcmp", "-quick", "-trace", trace, "-spans", mfile); code != 2 ||
		!strings.Contains(errOut, "-trace cannot be combined with -metrics or -spans") {
		t.Fatalf("-trace -spans: exit %d, stderr:\n%s", code, errOut)
	}
	// machine has no cells to scrape.
	if code, _, errOut := runCLI(t, "machine", "-metrics", mfile); code != 2 ||
		!strings.Contains(errOut, "machine does not support") {
		t.Fatalf("machine -metrics: exit %d, stderr:\n%s", code, errOut)
	}
	// A bad telemetry path must fail before the sweep runs.
	if code, _, _ := runCLI(t, "cholesky", "-quick", "-metrics", "/nonexistent-dir/m.csv"); code != 2 {
		t.Fatalf("bad -metrics path: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "cholesky", "-quick", "-spans", "/nonexistent-dir/s.csv"); code != 2 {
		t.Fatalf("bad -spans path: exit %d, want 2", code)
	}
}

func TestMetricsAndSpansExport(t *testing.T) {
	dir := t.TempDir()
	mfile := filepath.Join(dir, "metrics.csv")
	sfile := filepath.Join(dir, "spans.csv")
	code, out, errOut := runCLI(t, "cluster", "-quick", "-metrics", mfile, "-spans", sfile)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	// With spans on, the cluster scenario renders its hop-attribution
	// table.
	if !strings.Contains(out, "where does p99 live") {
		t.Fatalf("-spans did not render the tail-attribution table:\n%s", out)
	}
	m, err := os.ReadFile(mfile)
	if err != nil {
		t.Fatal(err)
	}
	mLines := strings.Split(strings.TrimSpace(string(m)), "\n")
	if mLines[0] != "scenario,cell,series,node,at_ns,value" || len(mLines) < 2 {
		t.Fatalf("metrics csv header/rows:\n%s", mLines[0])
	}
	if !strings.HasPrefix(mLines[1], "cluster,") {
		t.Fatalf("metrics row: %q", mLines[1])
	}
	s, err := os.ReadFile(sfile)
	if err != nil {
		t.Fatal(err)
	}
	sLines := strings.Split(strings.TrimSpace(string(s)), "\n")
	if sLines[0] != "scenario,cell,id,node,submit_ns,arrive_ns,start_ns,done_ns,reply_ns,network_ns,queue_ns,service_ns,outcome,attempts" || len(sLines) < 2 {
		t.Fatalf("spans csv header/rows:\n%s", sLines[0])
	}
	// JSON export round-trips.
	mjson := filepath.Join(dir, "metrics.json")
	if code, _, errOut := runCLI(t, "tailload", "-quick", "-metrics", mjson); code != 0 {
		t.Fatalf("json metrics run: exit %d: %s", code, errOut)
	}
	var rows []harness.MetricRow
	data, err := os.ReadFile(mjson)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	if len(rows) == 0 || rows[0].Scenario != "tailload" {
		t.Fatalf("metrics json rows: %d", len(rows))
	}
}

func TestVerboseProgress(t *testing.T) {
	code, out, errOut := runCLI(t, "cholesky", "-quick", "-v", "-par", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	// Progress goes to stderr only; the tables are untouched.
	if !strings.Contains(out, "Table 2") {
		t.Fatalf("verbose run lost its table output:\n%s", out)
	}
	if !strings.Contains(errOut, "[1/") || !strings.Contains(errOut, "cholesky/") {
		t.Fatalf("no per-cell progress on stderr:\n%s", errOut)
	}
	code, quiet, _ := runCLI(t, "cholesky", "-quick", "-par", "2")
	if code != 0 || quiet != out {
		t.Fatal("-v changed the table output")
	}
}
