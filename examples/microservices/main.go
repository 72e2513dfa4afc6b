// Microservices: a scaled-down §5.5 run — a gateway plus three inference
// servers under a Poisson request stream, comparing all five resource
// management schemes at one rate.
package main

import (
	"fmt"

	usched "repro"
	"repro/internal/sim"
	"repro/internal/workloads/inference"
)

func main() {
	fmt.Println("AI microservices at 1.0 req/s (scaled 20%), 16 cores")
	models := []inference.Model{
		{Name: "llama", Work: 5770 * sim.Millisecond, SerialFrac: 0.06, Threads: 8, OptShare: 0.64},
		{Name: "gpt2", Work: 1010 * sim.Millisecond, SerialFrac: 0.06, Threads: 4, OptShare: 0.21},
		{Name: "roberta", Work: 676 * sim.Millisecond, SerialFrac: 0.06, Threads: 4, OptShare: 0.14},
	}
	for _, scheme := range []inference.Scheme{
		inference.BlEq, inference.BlOpt, inference.BlNone,
		inference.BlNoneSeq, inference.Coop,
	} {
		sys := usched.NewSystem(usched.DualSocket16(), 9)
		res := usched.RunMicroservices(sys, usched.MicroservicesConfig{
			Scheme:   scheme,
			Rate:     1.0,
			Requests: 10,
			Batches:  4,
			Scale:    0.2,
			Models:   models,
			Horizon:  4000 * sim.Second,
		})
		if res.TimedOut {
			fmt.Printf("%-12s timed out\n", scheme)
			continue
		}
		fmt.Printf("%-12s mean latency %7.2f s   p99 %7.2f s   throughput %6.3f req/s\n",
			scheme, res.Stats.Mean.Seconds(), res.Stats.P99.Seconds(), res.Throughput)
	}
}
