package spin

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/glibc"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/nosv"
	"repro/internal/sim"
	"repro/internal/usf"
)

// untilReference is the straight-line poll loop that Until replaced: one
// coroutine park and resume per poll. The differential tests below hold
// Until, UntilFunc and Barrier.Wait to it.
func untilReference(l *glibc.Lib, pred func() bool, yield bool) {
	spins := 0
	for !pred() {
		l.Compute(chunk(spins, yield))
		spins++
		if yield && spins%2 == 0 {
			l.SchedYield()
		}
	}
}

// refBarrierWait is Barrier.Wait over untilReference. It records the
// instant of each poll in w.polls, when set.
func refBarrierWait(w *world, b *Barrier) bool {
	gen := b.gen
	b.count++
	if b.count == b.N {
		b.count = 0
		b.gen++
		return true
	}
	untilReference(b.Lib, func() bool {
		if w.polls != nil {
			*w.polls = append(*w.polls, w.eng.Now())
		}
		return b.gen != gen
	}, b.Yield)
	return false
}

// loop is one poll-loop implementation under comparison.
type loop struct {
	until func(l *glibc.Lib, pred func() bool, yield bool)
	wait  func(w *world, b *Barrier) bool
}

// loops holds the loop under test first and the reference second.
var loops = [2]loop{
	{Until, func(_ *world, b *Barrier) bool { return b.Wait() }},
	{untilReference, refBarrierWait},
}

// world is one scripted simulation, run once per loop.
type world struct {
	loop
	eng  *sim.Engine
	k    *kernel.Kernel
	libs []*glibc.Lib
	coop *usf.SchedCoop
	log  []string
	// polls, when set, receives the reference loop's barrier polls.
	polls *[]sim.Time
}

// barrier waits at b under the world's loop.
func (w *world) barrier(b *Barrier) bool { return w.wait(w, b) }

func newWorld(lp loop, cores int, params func(*kernel.SchedParams)) *world {
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = cores
	p := kernel.DefaultSchedParams()
	if params != nil {
		params(&p)
	}
	eng := sim.NewEngine(7)
	return &world{loop: lp, eng: eng, k: kernel.New(eng, cfg, p)}
}

// note records a scenario observation, stamped with the virtual time.
func (w *world) note(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.eng.Now())+fmt.Sprintf(format, args...))
}

// start launches a process; under USF, every process shares the default
// nOS-V segment, whose policy the first one creates.
func (w *world) start(name string, opts glibc.Options, main func(l *glibc.Lib)) {
	l, err := glibc.StartProcess(w.k, name, opts, main)
	if err != nil {
		panic(err)
	}
	w.libs = append(w.libs, l)
}

func (w *world) coopOpts() glibc.Options {
	return glibc.Options{USF: true, Policy: func() nosv.Policy {
		w.coop = usf.NewSchedCoop(usf.DefaultCoopConfig())
		return w.coop
	}}
}

// snapshot is everything a poll loop can move: scheduler, library and
// policy counters, per-thread CPU time, the engine's clock and event
// count with every skipped poll's two events counted, and the
// scenario's own observations.
type snapshot struct {
	Kernel kernel.Counters
	CPU    []sim.Duration
	Libs   []glibc.Stats
	Nosv   nosv.Stats
	Coop   usf.CoopStats
	Events uint64
	Now    sim.Time
	Log    []string
}

func (w *world) snapshot() snapshot {
	s := snapshot{Kernel: w.k.Stats, Events: w.eng.Processed() + w.eng.Skipped(), Now: w.eng.Now(), Log: w.log}
	for tid := kernel.Tid(1); w.k.LookupThread(tid) != nil; tid++ {
		s.CPU = append(s.CPU, w.k.LookupThread(tid).CPUTime)
	}
	for _, l := range w.libs {
		s.Libs = append(s.Libs, l.Stats)
		if l.Inst != nil {
			s.Nosv = l.Inst.Stats
		}
	}
	if w.coop != nil {
		s.Coop = w.coop.Stats
	}
	return s
}

// runAll drives the world to completion, or to a one-second horizon
// that every scenario should finish far inside; a loop that hangs shows
// up as a divergent "horizon hit" observation, not as a stuck test.
func (w *world) runAll() {
	_, hit, err := w.eng.RunHorizon(sim.Second)
	if err != nil {
		panic(err)
	}
	if hit {
		w.note("horizon hit")
		w.eng.KillAll()
	}
}

// barrierScenario runs n threads on n cores through rounds of a spin
// barrier after uneven work.
func barrierScenario(yield bool) func(w *world) {
	return func(w *world) {
		const n, rounds = 4, 3
		w.start("app", glibc.Options{}, func(l *glibc.Lib) {
			b := NewBarrier(l, n, yield)
			var pts []*glibc.Pthread
			for i := 0; i < n-1; i++ {
				i := i
				pts = append(pts, l.PthreadCreate("w", func() {
					for r := 0; r < rounds; r++ {
						l.Compute(sim.Duration((i+1)*(r+2)*37) * sim.Microsecond)
						if w.barrier(b) {
							w.note("w%d released round %d", i, r)
						}
					}
				}))
			}
			for r := 0; r < rounds; r++ {
				l.Compute(sim.Duration(50*r) * sim.Microsecond)
				if w.barrier(b) {
					w.note("main released round %d", r)
				}
			}
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
		})
		w.runAll()
	}
}

// competitorScenario spins on the releaser's own core: the releaser only
// progresses when the spinner yields or is preempted.
func competitorScenario(w *world) {
	w.start("app", glibc.Options{}, func(l *glibc.Lib) {
		done := false
		rel := l.PthreadCreate("releaser", func() {
			l.Compute(3 * sim.Millisecond)
			done = true
			w.note("released")
		})
		w.until(l, func() bool { return done }, true)
		w.note("spinner passed")
		l.PthreadJoin(rel)
	})
	w.runAll()
}

// coopScenario: two SCHED_COOP processes share one core; while the
// spinner polls, the other process's task is queued, so the spinner's
// sched_yield hands the core away.
func coopScenario(w *world) {
	done := false
	opts := w.coopOpts()
	w.start("spinner", opts, func(l *glibc.Lib) {
		w.until(l, func() bool { return done }, true)
		w.note("spinner passed")
	})
	w.start("worker", opts, func(l *glibc.Lib) {
		l.Compute(300 * sim.Microsecond)
		done = true
		w.note("released")
		l.Compute(100 * sim.Microsecond)
	})
	w.runAll()
}

// fifoScenario: nosv.FIFOPolicy is not YieldAware, so every yield must
// go back to the spinning thread's own coroutine.
func fifoScenario(w *world) {
	w.start("app", glibc.Options{USF: true}, func(l *glibc.Lib) {
		done := false
		rel := l.PthreadCreate("releaser", func() {
			l.Compute(900 * sim.Microsecond)
			done = true
			w.note("released")
		})
		other := l.PthreadCreate("other", func() {
			for i := 0; i < 4; i++ {
				l.Compute(150 * sim.Microsecond)
				l.SchedYield()
			}
		})
		w.until(l, func() bool { return done }, true)
		w.note("spinner passed")
		l.PthreadJoin(rel)
		l.PthreadJoin(other)
	})
	w.runAll()
}

// recvScenario mirrors mpi.Recv: the receiver polls a mailbox and
// consumes the message the sender posts in the middle of its spin.
func recvScenario(yield bool) func(w *world) {
	return func(w *world) {
		type message struct{ tag, bytes int }
		var inbox []message
		w.start("app", glibc.Options{}, func(l *glibc.Lib) {
			snd := l.PthreadCreate("sender", func() {
				l.Compute(777 * sim.Microsecond)
				inbox = append(inbox, message{tag: 1, bytes: 10}, message{tag: 2, bytes: 20})
			})
			var got message
			w.until(l, func() bool {
				for i, m := range inbox {
					if m.tag == 2 {
						got = m
						inbox = append(inbox[:i], inbox[i+1:]...)
						return true
					}
				}
				return false
			}, yield)
			w.note("received %d bytes, %d left", got.bytes, len(inbox))
			l.PthreadJoin(snd)
		})
		w.runAll()
	}
}

// horizonScenario cuts a never-satisfied spin at a horizon and tears the
// world down, as a timed-out experiment does.
func horizonScenario(w *world) {
	w.start("app", glibc.Options{}, func(l *glibc.Lib) {
		l.PthreadCreate("hog", func() { l.Compute(100 * sim.Millisecond) })
		w.until(l, func() bool { return false }, true)
		w.note("spinner passed a false predicate")
	})
	if _, hit, err := w.eng.RunHorizon(5 * sim.Millisecond); err != nil || !hit {
		panic(fmt.Sprintf("horizon not hit: %v %v", hit, err))
	}
	w.eng.KillAll()
	w.note("killed, %d live", w.eng.Live())
}

// reschedScenario runs a spinner on one core with an RR thread parked on
// a futex. An event at kick wakes the RR thread through a same-instant
// follow-up event: when kick is the end of a spin burst, the follow-up
// fires after the burst ends but before the spinner resumes, so the
// wake-up preemption finds the spinner at a poll boundary and leaves a
// resched request that the next burst's start must honour. A poll at
// the follow-up's instant proves the boundary case and bumps *hits.
func reschedScenario(kick sim.Time, polls *[]sim.Time, hits *int) func(w *world) {
	return func(w *world) {
		done := false
		var f *kernel.Futex
		n, kickedAt, pollsAtKick := 0, sim.Time(-1), -1
		w.start("app", glibc.Options{}, func(l *glibc.Lib) {
			f = l.K.NewFutex()
			rt := l.PthreadCreate("rt", func() {
				l.Self().KT.SetRR(10)
				f.Wait(l.Self().KT, 0, -1)
				l.Compute(20 * sim.Microsecond)
				done = true
			})
			w.until(l, func() bool {
				now := w.eng.Now()
				if polls != nil {
					*polls = append(*polls, now)
				}
				if n == pollsAtKick && now == kickedAt {
					w.note("poll %d at the kick instant", n)
					*hits++
				}
				n++
				return done
			}, false)
			w.note("spinner passed after %d polls", n)
			l.PthreadJoin(rt)
		})
		w.eng.At(kick, func() {
			w.eng.After(0, func() {
				kickedAt, pollsAtKick = w.eng.Now(), n
				w.note("kick after %d polls", n)
				f.Word = 1
				f.Wake(1)
			})
		})
		w.runAll()
	}
}

// barrierCompetitorScenario: one core; the main thread waits at a
// two-party barrier while the releaser, queued behind it, needs the core
// to arrive. With yield the main thread's armed lazy-yield switch hands
// the core over, without it the slice expiry does.
func barrierCompetitorScenario(yield bool) func(w *world) {
	return func(w *world) {
		w.start("app", glibc.Options{}, func(l *glibc.Lib) {
			b := NewBarrier(l, 2, yield)
			rel := l.PthreadCreate("releaser", func() {
				l.Compute(300 * sim.Microsecond)
				w.note("releaser arrives")
				w.barrier(b)
			})
			w.barrier(b)
			w.note("main passed")
			l.PthreadJoin(rel)
		})
		w.runAll()
	}
}

// barrierStealScenario: two cores; the main thread waits at a two-party
// barrier with the releaser queued on its core and its lazy-yield switch
// armed, until the blocker on the other core exits and that core steals
// the releaser: the switch then finds no competitor, and the release
// ends the wait.
func barrierStealScenario(w *world) {
	w.start("app", glibc.Options{}, func(l *glibc.Lib) {
		b := NewBarrier(l, 2, true)
		blk := l.PthreadCreate("blocker", func() { l.Compute(200 * sim.Microsecond) })
		rel := l.PthreadCreate("releaser", func() {
			w.note("releaser runs on core %d", l.Self().KT.CurrentCore())
			l.Compute(2 * sim.Millisecond)
			w.barrier(b)
		})
		w.barrier(b)
		w.note("main passed")
		l.PthreadJoin(blk)
		l.PthreadJoin(rel)
	})
	w.runAll()
}

// barrierKickScenario: two cores; the main thread waits at a barrier on
// core 0 while the releaser computes on core 1. An RR thread pinned to
// core 0, blocked on a futex, is woken from a same-instant follow-up of
// an event at kick: the wake-up preemption takes the core at once inside
// a burst, or leaves a resched request when kick is a burst's end.
func barrierKickScenario(kick sim.Time, yield bool) func(w *world) {
	return func(w *world) {
		var f *kernel.Futex
		w.start("app", glibc.Options{}, func(l *glibc.Lib) {
			l.SetAffinity(l.Self(), kernel.NewMask(0))
			f = l.K.NewFutex()
			b := NewBarrier(l, 2, yield)
			rt := l.PthreadCreate("rt", func() {
				self := l.Self()
				self.KT.SetRR(10)
				l.SetAffinity(self, kernel.NewMask(0))
				f.Wait(self.KT, 0, -1)
				w.note("rt runs on core %d", self.KT.CurrentCore())
				l.Compute(20 * sim.Microsecond)
			})
			rel := l.PthreadCreate("releaser", func() {
				l.SetAffinity(l.Self(), kernel.NewMask(1))
				l.Compute(6 * sim.Millisecond)
				w.barrier(b)
			})
			w.barrier(b)
			w.note("main passed")
			l.PthreadJoin(rt)
			l.PthreadJoin(rel)
		})
		w.eng.At(kick, func() {
			w.eng.After(0, func() {
				w.note("kick")
				f.Word = 1
				f.Wake(1)
			})
		})
		w.runAll()
	}
}

// barrierRoundsScenario: n threads on cores cores pass rounds of a
// barrier in which one thread in turn is late and the others do no work
// between rounds, so each generation's waits join the barrier's watch
// while the last generation's waiters are still leaving it.
func barrierRoundsScenario(n int, yield bool) func(w *world) {
	return func(w *world) {
		const rounds = 5
		w.start("app", glibc.Options{}, func(l *glibc.Lib) {
			b := NewBarrier(l, n, yield)
			body := func(i int) {
				for r := 0; r < rounds; r++ {
					if r%n == i {
						l.Compute(sim.Duration(400+100*r) * sim.Microsecond)
					}
					if w.barrier(b) {
						w.note("%d released round %d", i, r)
					}
				}
			}
			var pts []*glibc.Pthread
			for i := 1; i < n; i++ {
				i := i
				pts = append(pts, l.PthreadCreate("w", func() { body(i) }))
			}
			body(0)
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
		})
		w.runAll()
	}
}

// barrierPolls runs sc over the reference loop and returns the instants
// of its barrier polls.
func barrierPolls(sc func(w *world), cores int, params func(*kernel.SchedParams)) []sim.Time {
	var polls []sim.Time
	w := newWorld(loops[1], cores, params)
	w.polls = &polls
	sc(w)
	return polls
}

// checkSame runs a scenario under both loops and requires identical
// snapshots, event counts included (fired plus skipped under the step
// loop, fired under the reference, which skips none). It returns the
// events the step loop skipped.
func checkSame(t *testing.T, name string, run func(w *world), cores int, params func(*kernel.SchedParams)) (skipped uint64) {
	t.Helper()
	var snaps [2]snapshot
	var skips [2]uint64
	for i, lp := range loops {
		w := newWorld(lp, cores, params)
		run(w)
		snaps[i], skips[i] = w.snapshot(), w.eng.Skipped()
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatalf("%s: step and reference loops diverge:\nstep:      %+v\nreference: %+v", name, snaps[0], snaps[1])
	}
	if snaps[0].Events == 0 || len(snaps[0].Log) == 0 || snaps[0].Log[len(snaps[0].Log)-1] == "horizon hit" {
		t.Fatalf("%s: scenario did nothing: %+v", name, snaps[0])
	}
	if skips[1] != 0 {
		t.Fatalf("%s: the reference loop skipped %d events", name, skips[1])
	}
	return skips[0]
}

// checkLulls is checkSame for a scenario whose watched waits must (lull)
// or must not fast-forward: the step loop fires fewer events than the
// reference exactly when it skips some.
func checkLulls(t *testing.T, name string, run func(w *world), cores int, params func(*kernel.SchedParams), lull bool) {
	t.Helper()
	if skipped := checkSame(t, name, run, cores, params); (skipped > 0) != lull {
		t.Fatalf("%s: step loop skipped %d events; want skips: %v", name, skipped, lull)
	}
}

// TestUntilMatchesReferenceLoop runs each scripted scenario under the
// resume-step poll loop and under the straight-line reference loop and
// requires identical counters, CPU times, event counts and clocks. The
// barriers' watched waits fire fewer events, the unwatched Until waits
// skip none.
func TestUntilMatchesReferenceLoop(t *testing.T) {
	immediate := func(p *kernel.SchedParams) { p.YieldImmediate = true }
	for _, sc := range []struct {
		name   string
		run    func(w *world)
		cores  int
		params func(*kernel.SchedParams)
		lull   bool
	}{
		{"barrier-yield", barrierScenario(true), 4, nil, true},
		{"barrier-noyield", barrierScenario(false), 4, nil, false}, // waits too short for full bursts
		{"competitor-lazy-yield", competitorScenario, 1, nil, false},
		{"yield-immediate", competitorScenario, 1, immediate, false},
		{"sched-coop-handoff", coopScenario, 1, nil, false},
		{"nosv-fifo", fifoScenario, 2, nil, false},
		{"recv-mid-spin", recvScenario(true), 2, nil, false},
		{"recv-mid-spin-noyield", recvScenario(false), 2, nil, false},
		{"horizon-kill", horizonScenario, 1, nil, false},
		{"barrier-competitor-lazy-yield", barrierCompetitorScenario(true), 1, nil, true},
		{"barrier-competitor-slice-expiry", barrierCompetitorScenario(false), 1, nil, true},
		{"barrier-competitor-yield-immediate", barrierCompetitorScenario(true), 1, immediate, false},
		{"barrier-competitor-noyield-immediate", barrierCompetitorScenario(false), 1, immediate, false},
		{"barrier-steal", barrierStealScenario, 2, nil, true},
		{"barrier-rounds-oversubscribed-yield", barrierRoundsScenario(3, true), 2, nil, true},
		{"barrier-rounds-oversubscribed-noyield", barrierRoundsScenario(3, false), 2, nil, true},
		{"barrier-rounds-yield", barrierRoundsScenario(4, true), 4, nil, true},
	} {
		t.Run(sc.name, func(t *testing.T) { checkLulls(t, sc.name, sc.run, sc.cores, sc.params, sc.lull) })
	}
}

// TestBarrierStealPremise pins barrier-steal's premise: the releaser,
// queued on the spinner's core, first runs on the other core, which
// stole it.
func TestBarrierStealPremise(t *testing.T) {
	w := newWorld(loops[0], 2, nil)
	barrierStealScenario(w)
	if w.k.Stats.Steals == 0 || !strings.Contains(strings.Join(w.log, "\n"), "releaser runs on core 1") {
		t.Fatalf("releaser not stolen: %d steals, log %q", w.k.Stats.Steals, w.log)
	}
}

// TestBarrierLullMeetsKernelTimers moves the kernel timers that hand a
// lulled spinner's core to its queued competitor onto the spinner's
// skipped burst ends and between them: the lazy-yield switch (by the
// tick length) and the slice expiry (by the target latency).
func TestBarrierLullMeetsKernelTimers(t *testing.T) {
	for _, yield := range []bool{true, false} {
		sc := barrierCompetitorScenario(yield)
		polls := barrierPolls(sc, 1, nil)
		n := len(polls)
		if n < 20 {
			t.Fatalf("yield %v: probe found %d polls", yield, n)
		}
		// The last polls are skipped ones, after the bursts reach
		// their full length: two neighbours and one more.
		for _, i := range []int{n - 6, n - 5, n - 3} {
			for _, off := range []sim.Duration{0, 3} {
				at := polls[i].Add(off)
				var params func(*kernel.SchedParams)
				if yield {
					// The first yield poll, polls[2], arms the switch.
					tick := at.Sub(polls[2])
					params = func(p *kernel.SchedParams) { p.TickInterval = tick }
				} else {
					// The releaser's enqueue arms the expiry at
					// half the target latency after the main
					// thread's dispatch at 0.
					params = func(p *kernel.SchedParams) {
						p.TargetLatency = 2 * sim.Duration(at)
						p.MinGranularity = 100 * sim.Microsecond
					}
				}
				checkLulls(t, fmt.Sprintf("yield %v, timer at poll %d%+d", yield, i, off), sc, 1, params, true)
			}
		}
	}
}

// TestBarrierLullMeetsWakeupPreemption wakes an RR thread onto a lulled
// spinner's core inside a skipped burst and exactly at skipped bursts'
// ends, where the wake-up preemption leaves a resched request that the
// next poll must honour instead of lulling.
func TestBarrierLullMeetsWakeupPreemption(t *testing.T) {
	for _, yield := range []bool{true, false} {
		polls := barrierPolls(barrierKickScenario(sim.Time(sim.Second), yield), 2, nil)
		n := len(polls)
		if n < 20 {
			t.Fatalf("yield %v: probe found %d polls", yield, n)
		}
		for _, i := range []int{n - 6, n - 5, n - 3} {
			for _, at := range []sim.Time{polls[i], polls[i] - 99} {
				checkLulls(t, fmt.Sprintf("yield %v, kick at %v", yield, at), barrierKickScenario(at, yield), 2, nil, true)
			}
		}
	}
}

// TestUntilHonoursReschedAtPollBoundary kicks the spinner exactly at
// the end of each of its first bursts (found by a probe run) and holds
// both loops to the same result; every kick must land on a poll
// boundary.
func TestUntilHonoursReschedAtPollBoundary(t *testing.T) {
	var polls []sim.Time
	probeHits := 0
	const probeKick = sim.Time(sim.Millisecond)
	reschedScenario(probeKick, &polls, &probeHits)(newWorld(loops[1], 1, nil))
	var ends []sim.Time
	for _, at := range polls {
		if at > 0 && at < probeKick && len(ends) < 6 {
			ends = append(ends, at)
		}
	}
	if len(ends) < 3 {
		t.Fatalf("probe found %d burst ends before the kick: %v", len(ends), polls)
	}
	for _, at := range ends {
		hits := 0
		checkLulls(t, fmt.Sprintf("kick at %v", at), reschedScenario(at, nil, &hits), 1, nil, false)
		if hits != len(loops) {
			t.Fatalf("kick at %v: %d of %d runs polled at the kick instant; the kick missed the boundary", at, hits, len(loops))
		}
	}
}
