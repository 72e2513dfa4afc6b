// Engine microbenchmarks isolating the discrete-event hot paths the
// end-to-end figure benchmarks sit on: timer churn (schedule + fire),
// cancel-heavy timer traffic (futex timeouts, slice renewals), the
// chaos sweep's grid-aligned timer storm, the proc park/resume
// ping-pong behind every simulated context switch, and the proc
// lifecycle (spawn to exit) behind every simulated thread.
// All report allocations: the pooled closure-free paths are expected to
// allocate nothing in steady state.
package sim

import "testing"

// BenchmarkTimerChurn measures the closure-free schedule/fire cycle: one
// future timer per iteration, drained in batches.
func BenchmarkTimerChurn(b *testing.B) {
	e := NewEngine(1)
	nop := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		for i := 0; i < batch; i++ {
			e.AfterFunc(Duration(i%97), nop, nil)
		}
		if _, err := e.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimerChurnClosure is the closure path (Engine.After) for
// comparison: it pays one closure allocation per event.
func BenchmarkTimerChurnClosure(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		for i := 0; i < batch; i++ {
			e.After(Duration(i%97), func() {})
		}
		if _, err := e.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimerImmediate measures same-instant scheduling (the
// resume-event pattern: every park/dispatch schedules one of these):
// once the current tick has drained, each event joins the due run.
func BenchmarkTimerImmediate(b *testing.B) {
	e := NewEngine(1)
	nop := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		for i := 0; i < batch; i++ {
			e.AfterFunc(0, nop, nil)
		}
		if _, err := e.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCancelHeavy models timeout-style traffic: timers that are
// almost always cancelled before firing (futex timeouts, RR slice
// renewals, load.Limiter deadlines). One schedule + cancel per
// iteration against a standing population of pending timers.
func BenchmarkCancelHeavy(b *testing.B) {
	e := NewEngine(1)
	nop := func(any) {}
	// Standing population of future timers the cancelled ones must be
	// removed from between.
	for i := 0; i < 1024; i++ {
		e.AfterFunc(Duration(1000+i), nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ev := e.AfterFunc(Duration(500+n%400), nop, nil)
		ev.Cancel()
	}
	b.StopTimer()
	if _, err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParkResumePingPong measures the full proc context-switch
// machinery: two procs alternately readying each other, so every
// iteration is two park/dispatch cycles (four goroutine handoffs).
func BenchmarkParkResumePingPong(b *testing.B) {
	e := NewEngine(1)
	var a, c *Proc
	rounds := 0
	a = e.Spawn("a", func(p *Proc) {
		for rounds < b.N {
			e.Ready(c)
			p.Park()
		}
	})
	c = e.Spawn("c", func(p *Proc) {
		for rounds < b.N {
			rounds++
			e.Ready(a)
			p.Park()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Ready(a)
	// The first proc to observe rounds >= b.N exits with the other
	// parked, so RunAll reports the expected deadlock; KillAll releases
	// the survivor.
	_, _ = e.RunAll()
	b.StopTimer()
	e.KillAll()
}

// BenchmarkSpawnExit measures a proc's whole lifecycle: spawn, ready,
// and run to exit, one proc per op. It tracks the per-spawn cost of the
// proc coroutine (its goroutine, closures, and Proc record).
func BenchmarkSpawnExit(b *testing.B) {
	e := NewEngine(1)
	ran := 0
	body := func(*Proc) { ran++ }
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Ready(e.Spawn("p", body))
		if _, err := e.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ran != b.N {
		b.Fatalf("ran %d of %d procs", ran, b.N)
	}
}

// benchDenseFleetTimers models the fleet-scale inner loop the timing
// wheel exists for: `nodes` simulated nodes' worth of dense
// short-horizon timers (per node: slice expiries, quantum renewals, and
// a backlog of pending arrivals), spread over a few milliseconds on the
// 32.768µs quantised timeline grid from the resilience layer. Per
// benchmark op: one closure-free schedule plus its fire, against a
// standing population that scales with the node count — exactly where
// a heap's O(log n) would bite.
func benchDenseFleetTimers(b *testing.B, nodes int) {
	e := NewEngine(1)
	nop := func(any) {}
	const perNode = 48 // ~16 cores' slice+quantum timers plus a queue of arrivals
	const grid = 32768 * Nanosecond
	pop := nodes * perNode
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += pop {
		for i := 0; i < pop; i++ {
			e.AfterFunc(Duration(i%128+1)*grid, nop, nil)
		}
		if _, err := e.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDenseTimersNode1(b *testing.B)  { benchDenseFleetTimers(b, 1) }
func BenchmarkDenseTimersNode8(b *testing.B)  { benchDenseFleetTimers(b, 8) }
func BenchmarkDenseTimersNode64(b *testing.B) { benchDenseFleetTimers(b, 64) }

// BenchmarkCancelStorm models a fleet-wide timeout storm: a large
// standing population of pending retry/futex deadlines, with each op
// scheduling a new timeout and cancelling it before it fires (the
// overwhelmingly common case — timeouts exist to not expire). Wheel
// insert and cancel are both O(1); a heap would pay O(log n) twice
// against the full population.
func BenchmarkCancelStorm(b *testing.B) {
	e := NewEngine(1)
	nop := func(any) {}
	const grid = 32768 * Nanosecond
	for i := 0; i < 8192; i++ {
		e.AfterFunc(Duration(i%512+1)*grid, nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ev := e.AfterFunc(Duration(n%256+1)*grid, nop, nil)
		ev.Cancel()
	}
	b.StopTimer()
	if _, err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSleep measures the sleep path: timer + resume event per
// iteration.
func BenchmarkProcSleep(b *testing.B) {
	e := NewEngine(1)
	p := e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Ready(p)
	if _, err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// stormTimer is one standing timer of BenchmarkGridStorm.
type stormTimer struct {
	s *gridStorm
	h Event
}

// gridStorm is the chaos workload's timer shape: a standing population
// of grid-aligned timers that re-arm as they fire, a quarter of them
// cancelled before they fire (a reply beating its deadline).
type gridStorm struct {
	e      *Engine
	timers []stormTimer
	rng    uint64
	prev   *stormTimer // the timer that fired last
	fires  int
	target int
	slots  int  // distinct firing instants, one per drained level-0 slot
	last   Time // instant of the previous fire
}

// delay draws a grid-aligned delay: seven in eight within level 0's
// 2ms horizon, the rest at level 1 (2-134ms) or level 2 (134-336ms),
// about 600 slots on average.
func (s *gridStorm) delay() Duration {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	r := s.rng >> 32
	var ticks uint64
	switch {
	case r%8 < 7:
		ticks = 1 + r>>3%wheelSlots
	case r%16 == 7:
		ticks = wheelSlots + r>>4%(wheelSlots*wheelSlots-wheelSlots)
	default:
		ticks = wheelSlots*wheelSlots + r>>4%(wheelSlots*wheelSlots*3/2)
	}
	return Duration(ticks << wheelShift)
}

func (s *gridStorm) arm(t *stormTimer) {
	t.h = s.e.AfterFunc(s.delay(), stormFire, t)
}

// stormFire re-arms the fired timer, and every third fire cancels the
// previous fire's fresh timer and arms it again, so one armed timer in
// four is cancelled before it fires.
func stormFire(arg any) {
	t := arg.(*stormTimer)
	s := t.s
	if now := s.e.Now(); now != s.last {
		s.last = now
		s.slots++
	}
	s.arm(t)
	if s.fires%3 == 0 && s.prev != nil {
		s.prev.h.Cancel()
		s.arm(s.prev)
	}
	s.prev = t
	s.fires++
	if s.fires == s.target {
		s.e.Stop()
	}
}

// BenchmarkGridStorm models the chaos sweep's engine traffic: about
// 1500 standing grid-aligned timers across wheel levels 0-2, about 2.7
// fires per drained level-0 slot, and one armed timer in four
// cancelled before it fires. One op is one fired event, so ns/op is ns
// per event; the events/slot metric reports the achieved density.
func BenchmarkGridStorm(b *testing.B) {
	s := &gridStorm{e: NewEngine(1), timers: make([]stormTimer, 1500), rng: 88172645463325252}
	for i := range s.timers {
		s.timers[i].s = s
		s.arm(&s.timers[i])
	}
	// Warm up into the steady state: pools, slot slices and the level-2
	// population filled.
	s.target = 1000000
	if _, err := s.e.RunAll(); err != nil {
		b.Fatal(err)
	}
	s.fires, s.slots = 0, 0
	s.target = b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := s.e.RunAll(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if s.fires != b.N {
		b.Fatalf("fired %d events, want %d", s.fires, b.N)
	}
	b.ReportMetric(float64(s.fires)/float64(s.slots), "events/slot")
}
