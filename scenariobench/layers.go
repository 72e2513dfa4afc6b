package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
)

// layerMetricName is the per-layer self-time metric of layer l.
func layerMetricName(l string) string {
	switch l {
	case layerGoSched:
		return "go.sched_s"
	case layerGoGC:
		return "go.gc_s"
	}
	return l + ".self_s"
}

// layerMetrics fills m with the per-layer metrics of a traced run:
// profile time per layer per traced pass, the block-profile wait in
// pdes, the work counters (which repeat exactly, so the first pass's are
// reported), runtime allocation and collection work, per-cell host
// times, and the tracing overhead.
func layerMetrics(m map[string]metric, passes []*pass) error {
	var plain, traced []*pass
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("traced run needs plain and traced passes, have %d and %d", len(plain), len(traced))
	}
	nt := float64(len(traced))

	var cpu []stackSample
	for _, p := range traced {
		cpu = append(cpu, p.cpuProfile...)
	}
	byLayer, total := bucket(cpu)
	for _, l := range layers {
		m[layerMetricName(l)] = metric{float64(byLayer[l]) / 1e9 / nt, "s"}
	}
	m["profile.total_s"] = metric{float64(total) / 1e9 / nt, "s"}

	var blk bytes.Buffer
	if err := pprof.Lookup("block").WriteTo(&blk, 0); err != nil {
		return fmt.Errorf("block profile: %w", err)
	}
	blocked, err := parseProfile(blk.Bytes(), "delay")
	if err != nil {
		return err
	}
	waits, _ := bucket(blocked)
	m["pdes.wait_s"] = metric{float64(waits["pdes"]) / 1e9 / nt, "s"}

	c := collect(passes[0].runs)
	m["sim.events"] = metric{float64(c.events), "count"}
	m["pdes.windows"] = metric{float64(c.windows), "count"}
	m["pdes.mean_window_ms"] = metric{ratio(c.windowWidth.Seconds()*1e3, float64(c.windows)), "ms"}
	m["pdes.events_per_window"] = metric{ratio(float64(c.events), float64(c.windows)), "count"}
	m["kernel.preemptions"] = metric{float64(c.preemptions), "count"}
	m["kernel.context_switches"] = metric{float64(c.contextSwitches), "count"}
	m["kernel.migrations"] = metric{float64(c.migrations), "count"}
	m["cluster.attempts"] = metric{float64(c.attempts), "count"}
	m["cluster.retries"] = metric{float64(c.retries), "count"}
	m["cluster.hedges"] = metric{float64(c.hedges), "count"}
	m["cluster.timeouts"] = metric{float64(c.timeouts), "count"}
	m["cluster.goodput_ratio"] = metric{ratio(float64(c.completed), float64(c.attempts)), "ratio"}

	var nsPerEvent, allocMB, mallocs, gcCycles, gcCPU, expand, walls, cellMs []float64
	for _, p := range plain {
		pc := collect(p.runs)
		nsPerEvent = append(nsPerEvent, ratio(float64(pc.eventHost.Nanoseconds()), float64(pc.events)))
		allocMB = append(allocMB, float64(p.mem.allocBytes)/(1<<20))
		mallocs = append(mallocs, float64(p.mem.mallocs))
		gcCycles = append(gcCycles, float64(p.mem.gcCycles))
		gcCPU = append(gcCPU, p.mem.gcCPU)
		walls = append(walls, p.wall)
		for _, r := range p.runs {
			cellMs = append(cellMs, r.host.Seconds()*1e3)
		}
	}
	for _, p := range passes {
		expand = append(expand, p.expand)
	}
	m["sim.ns_per_event"] = metric{median(nsPerEvent), "ns/event"}
	m["go.alloc_mb"] = metric{median(allocMB), "MB"}
	m["go.mallocs"] = metric{median(mallocs), "count"}
	m["go.gc_cycles"] = metric{median(gcCycles), "count"}
	m["go.gc_cpu_s"] = metric{median(gcCPU), "s"}

	pct, tailMs := tail(cellMs)
	m["harness.cells"] = metric{float64(len(passes[0].runs)), "count"}
	m["harness.passes"] = metric{float64(len(plain)), "count"}
	m["harness.cell_samples"] = metric{float64(len(cellMs)), "count"}
	m["harness.cell_p50_ms"] = metric{median(cellMs), "ms"}
	m["harness.cell_tail_ms"] = metric{tailMs, "ms"}
	m["harness.cell_tail_pct"] = metric{pct, "%"}
	m["harness.expand_s"] = metric{median(expand), "s"}

	var tracedWalls []float64
	for _, p := range traced {
		tracedWalls = append(tracedWalls, p.wall)
	}
	m["trace.overhead_frac"] = metric{median(tracedWalls)/median(walls) - 1, "frac"}
	return nil
}

// ratio is a/b, or 0 when b is 0 (a counter the workload never moves).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
