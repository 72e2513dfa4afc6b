package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

// pbw writes protobuf wire format, for hand-built test profiles.
type pbw struct{ b []byte }

func (w *pbw) varint(x uint64) {
	for x >= 0x80 {
		w.b = append(w.b, byte(x)|0x80)
		x >>= 7
	}
	w.b = append(w.b, byte(x))
}

func (w *pbw) uint(num int, x uint64) {
	w.varint(uint64(num) << 3)
	w.varint(x)
}

func (w *pbw) bytes(num int, b []byte) {
	w.varint(uint64(num)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbw) packed(num int, xs []uint64) {
	var p pbw
	for _, x := range xs {
		p.varint(x)
	}
	w.bytes(num, p.b)
}

// handProfile encodes a gzipped CPU profile with one sample per stack.
// A stack lists locations innermost first and a location lists its
// functions innermost first, so a location with several functions is a
// frame with calls inlined into it. Every other sample writes its
// repeated fields unpacked, as the runtime does for short lists.
func handProfile(stacks [][][]string, nanos []int64) []byte {
	strs := []string{""}
	index := map[string]uint64{}
	str := func(s string) uint64 {
		i, ok := index[s]
		if !ok {
			i = uint64(len(strs))
			index[s] = i
			strs = append(strs, s)
		}
		return i
	}
	var out pbw
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbw
		m.uint(valueTypeType, str(vt[0]))
		m.uint(2, str(vt[1]))
		out.bytes(profSampleType, m.b)
	}
	funcIDs := map[string]uint64{}
	var nextLoc uint64
	for i, stack := range stacks {
		var locs []uint64
		for _, frame := range stack {
			nextLoc++
			var loc pbw
			loc.uint(locationID, nextLoc)
			for _, fn := range frame {
				id, ok := funcIDs[fn]
				if !ok {
					id = uint64(len(funcIDs) + 1)
					funcIDs[fn] = id
					var f pbw
					f.uint(functionID, id)
					f.uint(functionName, str(fn))
					out.bytes(profFunction, f.b)
				}
				var line pbw
				line.uint(lineFunctionID, id)
				loc.bytes(locationLine, line.b)
			}
			out.bytes(profLocation, loc.b)
			locs = append(locs, nextLoc)
		}
		values := []uint64{1, uint64(nanos[i])}
		var s pbw
		if i%2 == 0 {
			s.packed(sampleLocationID, locs)
			s.packed(sampleValue, values)
		} else {
			for _, l := range locs {
				s.uint(sampleLocationID, l)
			}
			for _, v := range values {
				s.uint(sampleValue, v)
			}
		}
		out.bytes(profSample, s.b)
	}
	for _, s := range strs {
		out.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(out.b)
	zw.Close()
	return gz.Bytes()
}

// frames gives each function a location of its own, innermost first.
func frames(fns ...string) [][]string {
	var st [][]string
	for _, fn := range fns {
		st = append(st, []string{fn})
	}
	return st
}

func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		name  string
		stack [][]string
		layer string
	}{
		{"runtime work is charged to the module calling it",
			frames("runtime.mallocgc", "repro/internal/cluster.(*Cluster).dispatch", "repro/internal/sim.(*Engine).fire"), "cluster"},
		{"the innermost repo frame wins",
			frames("repro/internal/kernel.(*Kernel).Compute", "repro/internal/rt/omp.(*Team).run", "repro/internal/sim.(*Engine).Spawn.func1"), "kernel"},
		{"engine side of the handoff",
			frames("runtime.chansend1", "repro/internal/sim.(*Engine).dispatch", "repro/internal/sim.dispatchProc", "repro/internal/sim.(*Engine).fire"), "handoff"},
		{"proc side of the handoff",
			frames("runtime.chanrecv1", "repro/internal/sim.(*Proc).Park", "repro/internal/kernel.(*Kernel).Block"), "handoff"},
		{"the Spawn goroutine wrapper",
			frames("runtime.chanrecv1", "repro/internal/sim.(*Engine).Spawn.func1"), "handoff"},
		{"the wrapper's deferred hand-back",
			frames("runtime.chansend1", "repro/internal/sim.(*Engine).Spawn.func1.1", "runtime.deferreturn", "repro/internal/sim.(*Engine).Spawn.func1"), "handoff"},
		{"the event queue",
			frames("repro/internal/sim.(*Engine).peekNext", "repro/internal/sim.(*Engine).Run"), "sim"},
		{"pdes is a layer of its own",
			frames("runtime.selectgo", "repro/internal/sim/pdes.(*Group).window"), "pdes"},
		{"nested directories collapse to their module",
			frames("repro/internal/workloads/matmul.Run"), "workloads"},
		{"inlined calls count innermost first",
			[][]string{{"repro/internal/sim.(*heap4).up", "repro/internal/cluster.(*Cluster).submit"}, {"repro/internal/harness.runOne"}}, "sim"},
		{"the benchmark's own code",
			frames("main.runCells", "main.main"), "bench"},
		{"other repo packages",
			frames("repro.NewSystem"), "other"},
		{"GC workers",
			frames("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "go.gc"},
		{"the scheduler on the system stack",
			frames("runtime.futex", "runtime.schedule", "runtime.park_m", "runtime.mcall"), "go.sched"},
	}
	var stacks [][][]string
	var nanos []int64
	want := map[string]int64{}
	var total int64
	for i, c := range cases {
		ns := int64(i+1) * 10_000_000
		stacks = append(stacks, c.stack)
		nanos = append(nanos, ns)
		want[c.layer] += ns
		total += ns
	}
	samples, err := parseProfile(handProfile(stacks, nanos), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(cases) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(cases))
	}
	for i, c := range cases {
		if samples[i].value != nanos[i] {
			t.Errorf("%s: value %d, want %d", c.name, samples[i].value, nanos[i])
		}
		if got := layerOf(samples[i].funcs); got != c.layer {
			t.Errorf("%s: charged to %s, want %s (stack %v)", c.name, got, c.layer, samples[i].funcs)
		}
	}
	byLayer, gotTotal := bucket(samples)
	if gotTotal != total {
		t.Errorf("total %d, want %d", gotTotal, total)
	}
	var sum int64
	for _, l := range layers {
		sum += byLayer[l]
		if byLayer[l] != want[l] {
			t.Errorf("layer %s: %d, want %d", l, byLayer[l], want[l])
		}
	}
	if sum != total {
		t.Errorf("reported layers sum to %d of %d", sum, total)
	}
}

func TestParseProfileErrors(t *testing.T) {
	if _, err := parseProfile(handProfile(nil, nil), "delay"); err == nil {
		t.Error("a profile without the sample type parsed")
	}
	if _, err := parseProfile([]byte{0x0a, 0x05}, "cpu"); err == nil {
		t.Error("a truncated profile parsed")
	}
}

var spinSink int

// Profiles the runtime writes decode, and their samples bucket to the
// profile's total.
func TestRuntimeProfilesBucketToTheirTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler in use:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		spinSink++
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes(), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	byLayer, total := bucket(samples)
	if total == 0 {
		t.Fatal("no CPU samples in 300ms of spinning")
	}
	var sum int64
	for _, l := range layers {
		sum += byLayer[l]
	}
	if sum != total {
		t.Errorf("reported layers sum to %d of %d", sum, total)
	}
	var blk bytes.Buffer
	if err := pprof.Lookup("block").WriteTo(&blk, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(blk.Bytes(), "delay"); err != nil {
		t.Error(err)
	}
}
