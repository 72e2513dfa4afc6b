package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/harness"
)

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "chaos", "-trace", "2"},
		{"-workload", "chaos", "extra"},
		{"-workload", "chaos", "-seconds", "soon"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

func TestSetupProbeReportsReady(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-setup-probe", "-workload", "paper", "-seed", "3"}, &out, io.Discard); code != 0 || out.String() != "ready\n" {
		t.Errorf("probe exited %d with %q", code, out.String())
	}
}

// A traced run reports exactly the per-layer metrics BENCHMARK.json
// declares, and its layer times add up to the profile's total.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick sharded chaos sweep twice")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	w := workload{name: "chaos-quick", scenarios: []string{"chaos"}, opt: harness.Opts{Quick: true, Shards: 2}}
	res, err := bench(w, 7, 0, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("%d of %d cells failed", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (reported %t), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
	var sum float64
	for _, l := range layers {
		sum += res.Metrics[layerMetricName(l)].Value
	}
	if total := res.Metrics["profile.total_s"].Value; math.Abs(sum-total) > 1e-9*math.Max(1, total) {
		t.Errorf("layer times sum to %v, profile total %v", sum, total)
	}
	if res.Metrics["pdes.windows"].Value == 0 || res.Metrics["cluster.attempts"].Value == 0 {
		t.Error("sharded chaos reported no windows or attempts")
	}
}
