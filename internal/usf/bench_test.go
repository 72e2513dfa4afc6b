package usf

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/nosv"
	"repro/internal/sim"
)

// BenchmarkCoopSelfYield measures SCHED_COOP's yield path in the case a
// busy-waiting thread hits on every poll: nothing else is queued, so the
// yielder is picked again. One op is yieldsPerOp nosv yields by a lone
// spinner on a one-core machine, with 4 or 64 processes registered in
// the rotation ring, so even -benchtime=1x times a steady state. The
// yield's cost must not grow with the ring, and it allocates nothing.
// Registration and teardown run outside the timer.
func BenchmarkCoopSelfYield(b *testing.B) {
	const yieldsPerOp = 1000
	for _, procs := range []int{4, 64} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			cfg := hw.SmallNode()
			cfg.Topo.CoresPerSocket = 1
			eng := sim.NewEngine(1)
			k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
			var pol *SchedCoop
			in, err := nosv.OpenSegment(k, "usf", k.NewProcess("boot"), func() nosv.Policy {
				pol = NewSchedCoop(DefaultCoopConfig())
				return pol
			})
			if err != nil {
				b.Fatal(err)
			}
			// Every process but the spinner's registers with one
			// yield and finishes.
			for i := 0; i < procs-1; i++ {
				p := k.NewProcess("idle")
				if _, err := nosv.OpenSegment(k, "usf", p, nil); err != nil {
					b.Fatal(err)
				}
				k.SpawnThread(p, "reg", func(kt *kernel.Thread) {
					task := in.Attach(kt, p.PID, "reg")
					in.Yield(task)
					in.Complete(task)
				})
			}
			p := k.NewProcess("spin")
			if _, err := nosv.OpenSegment(k, "usf", p, nil); err != nil {
				b.Fatal(err)
			}
			var selfYields int64
			k.SpawnThread(p, "spinner", func(kt *kernel.Thread) {
				kt.Nanosleep(100 * sim.Millisecond) // after every registration
				task := in.Attach(kt, p.PID, "spinner")
				in.Yield(task)
				// Stop takes effect when this event ends: park in a
				// burst on each side of the timed loop.
				eng.Stop()
				kt.Compute(sim.Nanosecond)
				self := in.Stats.SelfYields
				for i := 0; i < b.N*yieldsPerOp; i++ {
					in.Yield(task)
				}
				selfYields = in.Stats.SelfYields - self
				eng.Stop()
				kt.Compute(sim.Nanosecond)
				in.Complete(task)
			})
			if _, err := eng.RunAll(); err != nil {
				b.Fatal(err)
			}
			if len(pol.pids) != procs {
				b.Fatalf("%d processes registered, want %d", len(pol.pids), procs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := eng.RunAll(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if _, err := eng.RunAll(); err != nil {
				b.Fatal(err)
			}
			if selfYields != int64(b.N*yieldsPerOp) {
				b.Fatalf("%d of %d yields re-picked the spinner", selfYields, b.N*yieldsPerOp)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*yieldsPerOp), "ns/yield")
		})
	}
}
