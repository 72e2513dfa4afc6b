package lint

import "testing"

func TestIsDeterministic(t *testing.T) {
	tests := []struct {
		pkg  string
		want bool
	}{
		// The deterministic core and its subtrees.
		{"repro/internal/sim", true},
		{"repro/internal/kernel", true},
		{"repro/internal/glibc", true},
		{"repro/internal/nosv", true},
		{"repro/internal/usf", true},
		{"repro/internal/rt", true},
		{"repro/internal/rt/omp", true},
		{"repro/internal/rt/tbb", true},
		{"repro/internal/stack", true},
		{"repro/internal/load", true},
		{"repro/internal/cluster", true},
		{"repro/internal/obs", true},
		{"repro/internal/workloads", true},
		{"repro/internal/workloads/inference", true},

		// go vet test-variant decorations classify as the base package.
		{"repro/internal/sim [repro/internal/sim.test]", true},
		{"repro/internal/sim.test", true},

		// Host-side code may touch the wall clock and host concurrency.
		{"repro/internal/harness", false},
		{"repro/internal/metrics", false},
		{"repro/internal/experiments", false},
		{"repro/internal/lint", false},
		{"repro/cmd/uschedsim", false},
		{"repro/cmd/simlint", false},
		{"repro", false},
		{"repro/examples/quickstart", false},

		// Prefix matching is per path segment, not per byte.
		{"repro/internal/simulator", false},
		{"repro/internal/rtx", false},

		// Other modules are never ours to classify.
		{"time", false},
		{"example.com/internal/sim", false},
	}
	for _, tt := range tests {
		if got := IsDeterministic(tt.pkg); got != tt.want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", tt.pkg, got, tt.want)
		}
	}
}
