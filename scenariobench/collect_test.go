package main

import (
	"testing"

	"repro/internal/harness"
)

// The work counters are the benchmark's deterministic units of work:
// two runs of one seed must report them exactly, or counts and host
// time per event would not compare across commits.
func TestCountsRepeatForASeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs quick sweeps twice")
	}
	for _, c := range []struct {
		w       workload
		nonzero func(counts) bool
	}{
		{
			workload{name: "paper-quick", scenarios: []string{"matmul", "microservices"}, opt: harness.Opts{Quick: true}},
			func(c counts) bool { return c.events > 0 && c.contextSwitches > 0 && c.preemptions > 0 },
		},
		{
			workload{name: "chaos-quick", scenarios: []string{"chaos"}, opt: harness.Opts{Quick: true}},
			func(c counts) bool { return c.events > 0 && c.attempts > 0 && c.retries > 0 && c.timeouts > 0 },
		},
		{
			workload{name: "chaos-quick-sharded", scenarios: []string{"chaos"}, opt: harness.Opts{Quick: true, Shards: 2}},
			func(c counts) bool { return c.windows > 0 && c.windowWidth > 0 && c.attempts > 0 },
		},
	} {
		x, err := c.w.expand(7)
		if err != nil {
			t.Fatal(err)
		}
		first, second := collect(runCells(x.jobs)), collect(runCells(x.jobs))
		first.eventHost, second.eventHost = 0, 0
		if first != second {
			t.Errorf("%s: counts differ between two runs of one seed:\n%+v\n%+v", c.w.name, first, second)
		}
		if !c.nonzero(first) {
			t.Errorf("%s: a counter the workload should move is zero: %+v", c.w.name, first)
		}
	}
}
