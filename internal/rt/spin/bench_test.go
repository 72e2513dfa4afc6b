package spin

import (
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
