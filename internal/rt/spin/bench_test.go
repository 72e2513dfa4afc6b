package spin

import (
	"fmt"
	"testing"

	"repro/internal/glibc"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// pollBench is BenchmarkSpinPoll's shared state: the releaser bumps gen
// once per round, and the spinner's condition counts its polls.
type pollBench struct {
	gen   int
	polls int
}

func pollBenchCond(arg any, round int) bool {
	s := arg.(*pollBench)
	s.polls++
	return s.gen > round
}

// BenchmarkSpinPoll measures the host cost of one busy-wait poll: per
// op, an uncontended spinner (its own core, yield patch on) waits while
// a releaser on the other core computes 200µs, about 17 polls. Setup and
// warm-up rounds run before the timer starts and teardown after it
// stops, so allocs/op is the steady-state per-wait figure, 0 by design,
// even at -benchtime=1x.
func BenchmarkSpinPoll(b *testing.B) {
	const work, warm = 200 * sim.Microsecond, 3
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = 2
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	st := &pollBench{}
	_, err := glibc.StartProcess(k, "bench", glibc.Options{}, func(l *glibc.Lib) {
		rel := l.PthreadCreate("releaser", func() {
			for r := 0; r < warm+b.N; r++ {
				l.Compute(work)
				st.gen++
			}
			l.Compute(work) // still busy when the timed rounds end
		})
		for r := 0; r < warm; r++ {
			UntilFunc(l, pollBenchCond, st, r, true)
		}
		eng.Stop()
		for r := warm; r < warm+b.N; r++ {
			UntilFunc(l, pollBenchCond, st, r, true)
		}
		// Stop takes effect when this event ends: park in a burst, so
		// the join's bookkeeping runs after the timer stops.
		eng.Stop()
		l.Compute(sim.Nanosecond)
		l.PthreadJoin(rel)
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
	st.polls = 0
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	polls := st.polls
	if _, err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
	if st.gen != warm+b.N || polls < b.N {
		b.Fatalf("gen %d polls %d after %d rounds", st.gen, polls, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(polls), "ns/poll")
	b.ReportMetric(float64(polls)/float64(b.N), "polls/op")
}

// BenchmarkBLASBarrierWait measures the host cost of one BLAS team
// barrier wait: per op, member 0 computes for work on core 1 and arrives
// while member 1 waits on core 0 (yield patch on). In the competitor
// variant, member 0 first wakes a thread pinned to core 0, which stays
// queued there (no wake-up preemption) until the waiter's lazy-yield
// switch hands it the core, computes 10µs and sleeps again. Polled, the
// wait would fire two events per 16µs burst, about 125 per millisecond
// of work; fast-forwarded, events/op is the same for every work length.
// Warm-up rounds run before the timer starts and teardown after it
// stops, so allocs/op is the steady-state per-wait figure, 0 by design,
// even at -benchtime=1x.
func BenchmarkBLASBarrierWait(b *testing.B) {
	for _, comp := range []bool{false, true} {
		for _, work := range []sim.Duration{sim.Millisecond, 50 * sim.Millisecond} {
			name := fmt.Sprintf("lone/work=%v", work)
			if comp {
				name = fmt.Sprintf("competitor/work=%v", work)
			}
			b.Run(name, func(b *testing.B) { benchBLASBarrierWait(b, work, comp) })
		}
	}
}

func benchBLASBarrierWait(b *testing.B, work sim.Duration, comp bool) {
	const warm = 3
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = 2
	eng := sim.NewEngine(1)
	// No periodic load balancer, whose timer fires every balance
	// interval whatever the team does, and no wake-up preemption, so
	// the competitor waits for the switch.
	params := kernel.DefaultSchedParams()
	params.BalanceInterval = 0
	params.WakeupGranularity = sim.Second
	k := kernel.New(eng, cfg, params)
	var bar *Barrier
	_, err := glibc.StartProcess(k, "team", glibc.Options{}, func(l *glibc.Lib) {
		l.SetAffinity(l.Self(), kernel.NewMask(1))
		bar = NewBarrier(l, 2, true)
		f := l.K.NewFutex()
		quit := false
		if comp {
			l.PthreadCreate("competitor", func() {
				l.SetAffinity(l.Self(), kernel.NewMask(0))
				for !quit {
					f.Wait(l.Self().KT, 0, -1)
					f.Word = 0
					l.Compute(10 * sim.Microsecond)
				}
			})
		}
		waiter := l.PthreadCreate("waiter", func() {
			l.SetAffinity(l.Self(), kernel.NewMask(0))
			for r := 0; r < warm+b.N; r++ {
				bar.Wait()
			}
		})
		for r := 0; r < warm+b.N; r++ {
			if r == warm {
				// Stop takes effect when this event ends, with
				// member 0 parked in its burst and member 1 waiting.
				eng.Stop()
			}
			if comp {
				f.Word = 1
				f.Wake(1)
			}
			l.Compute(work)
			bar.Wait()
		}
		// Stop as the last round passes: the rest is teardown.
		eng.Stop()
		l.Compute(sim.Nanosecond)
		l.PthreadJoin(waiter)
		quit = true
		f.Word = 1
		f.Wake(1)
	})
	if err != nil {
		b.Fatal(err)
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
	if bar.gen != warm+b.N {
		b.Fatalf("%d barriers passed, want %d", bar.gen, warm+b.N)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
