package mpi

import (
	"fmt"
	"testing"

	"repro/internal/glibc"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// BenchmarkMPIBarrierWait measures the host cost of one lone MPI
// barrier wait: per op, rank 1 waits at a barrier (its own core, yield
// patch on) while rank 0 computes for work on the other core and then
// arrives. Polled, the wait would fire two events per 16µs burst, about
// 125 per millisecond of work; fast-forwarded, events/op is the same for
// every work length. Warm-up rounds run before the timer starts and
// teardown after it stops, so allocs/op is the steady-state per-wait
// figure, 0 by design, even at -benchtime=1x.
func BenchmarkMPIBarrierWait(b *testing.B) {
	for _, work := range []sim.Duration{sim.Millisecond, 50 * sim.Millisecond} {
		b.Run(fmt.Sprintf("work=%v", work), func(b *testing.B) { benchBarrierWait(b, work) })
	}
}

func benchBarrierWait(b *testing.B, work sim.Duration) {
	const warm = 3
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = 2
	eng := sim.NewEngine(1)
	// No periodic load balancer: its timer fires every balance interval
	// whatever the ranks do, which would make events/op grow with work.
	params := kernel.DefaultSchedParams()
	params.BalanceInterval = 0
	k := kernel.New(eng, cfg, params)
	w := NewWorld(2, true)
	for i := 0; i < 2; i++ {
		i := i
		_, err := glibc.StartProcess(k, "rank", glibc.Options{Affinity: kernel.NewMask(i)}, func(l *glibc.Lib) {
			r := w.Register(i, l)
			for round := 0; round < warm+b.N; round++ {
				if i == 0 {
					if round == warm {
						// Stop takes effect when this event ends, with
						// rank 0 parked in its burst and rank 1 waiting.
						eng.Stop()
					}
					l.Compute(work)
				}
				r.Barrier()
			}
			if i == 0 {
				// Stop as the last round passes: rank 1's exit, and
				// rank 0's after this burst, are teardown.
				eng.Stop()
				l.Compute(sim.Nanosecond)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
	before := eng.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	events := eng.Processed() - before
	if _, err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
	if w.barGen != warm+b.N {
		b.Fatalf("%d barriers passed, want %d", w.barGen, warm+b.N)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
