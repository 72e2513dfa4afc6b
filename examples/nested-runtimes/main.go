// Nested runtimes: the paper's §5.3 scenario in miniature. An OmpSs-2
// outer runtime creates matrix-block tasks; each task runs a BLIS dgemm
// parallelised with OpenMP, multiplying the thread count. The example
// prints the throughput of every stack (Fig. 2) on the same configuration.
package main

import (
	"fmt"

	usched "repro"
	"repro/internal/sim"
)

func main() {
	fmt.Println("Nested OmpSs-2 + BLIS/OpenMP matmul, 16 cores, 16 blocks x 8 OMP threads")
	fmt.Println("(the paper's Fig. 2 stacks on one oversubscribed configuration)")
	for _, mode := range []usched.Mode{usched.Original, usched.Baseline, usched.Manual, usched.SchedCoop} {
		sys := usched.NewSystem(usched.DualSocket16(), 7)
		res := usched.RunMatmul(sys, usched.MatmulConfig{
			Mode:       mode,
			N:          2048,
			TaskSize:   512,
			OMPThreads: 8,
			Reps:       1,
			Horizon:    10 * sim.Second,
		})
		if res.TimedOut {
			fmt.Printf("%-11s timed out (the paper's white squares)\n", mode)
			continue
		}
		fmt.Printf("%-11s %8.1f GFLOP/s   elapsed %7.2f ms   preemptions %5d\n",
			mode, res.GFLOPS, res.Elapsed.Seconds()*1000, res.Preemptions)
	}
}
