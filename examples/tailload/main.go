// Tailload: drive the §5.5 microservices stack at a fixed offered load
// under three different arrival shapes, judge each run against a
// latency SLO with the streaming load meter, and show what a concurrency
// limit in front of the gateway does to the burst case.
//
// The load subsystem separates three concerns: the arrival process
// (load.Source: who sends requests, when), the accounting
// (load.Meter: streaming p50..p99.9, goodput, SLO violations), and
// admission (load.Limiter: how many requests may be in flight).
package main

import (
	"fmt"

	usched "repro"
	"repro/internal/sim"
)

const slo = 800 * sim.Millisecond

var (
	rate  = 3.0 // offered load, req/s of unscaled paper time
	scale = 0.2 // work scale (rates scale by 1/scale, times by scale)
)

// sources returns fresh single-use arrival processes, all offering the
// same average load with very different shapes.
func sources() map[string]usched.LoadSource {
	return map[string]usched.LoadSource{
		"poisson": &usched.Poisson{Rate: rate / scale},
		"bursty": &usched.Bursty{
			Base:      0.4 * rate / scale,
			Burst:     1.6 * rate / scale,
			MeanDwell: sim.Duration(4.0 / rate * scale * 1e9),
		},
		"closed-loop": &usched.ClosedLoop{
			Clients: 4,
			Think:   sim.Duration(4.0 / rate * scale * 1e9),
		},
	}
}

func run(name string, src usched.LoadSource, maxInFlight int) {
	models := []usched.InferenceModel{
		{Name: "llama", Work: 5770 * sim.Millisecond, SerialFrac: 0.06, Threads: 8, OptShare: 0.64},
		{Name: "gpt2", Work: 1010 * sim.Millisecond, SerialFrac: 0.06, Threads: 4, OptShare: 0.21},
		{Name: "roberta", Work: 676 * sim.Millisecond, SerialFrac: 0.06, Threads: 4, OptShare: 0.14},
	}
	sys := usched.NewSystem(usched.DualSocket16(), 23)
	res := usched.RunMicroservices(sys, usched.MicroservicesConfig{
		Scheme:      0, // bl-none: stock scheduler, no partitioning
		Rate:        rate,
		Requests:    12,
		Batches:     4,
		Scale:       scale,
		Models:      models,
		Horizon:     4000 * sim.Second,
		Arrivals:    src,
		SLO:         slo,
		MaxInFlight: maxInFlight,
	})
	t := res.Tail
	limit := "none"
	if maxInFlight > 0 {
		limit = fmt.Sprintf("%d", maxInFlight)
	}
	fmt.Printf("%-12s limit %-5s p50 %6.2fs  p99 %6.2fs  goodput %5.2f req/s  SLO viol %3.0f%%\n",
		name, limit, t.P50.Seconds(), t.P99.Seconds(), t.Goodput, t.ViolationFrac*100)
}

func main() {
	fmt.Printf("microservices at %.1f req/s, SLO %.1fs, 16 cores\n\n", rate, slo.Seconds())
	for _, name := range []string{"poisson", "bursty", "closed-loop"} {
		run(name, sources()[name], 0)
	}
	fmt.Println()
	fmt.Println("same bursty traffic, with and without admission control:")
	run("bursty", sources()["bursty"], 0)
	run("bursty", sources()["bursty"], 4)
}
