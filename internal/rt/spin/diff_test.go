package spin

import (
	"fmt"
	"reflect"
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

// refBarrierWait is Barrier.Wait over untilReference.
func refBarrierWait(b *Barrier) bool {
	gen := b.gen
	b.count++
	if b.count == b.N {
		b.count = 0
		b.gen++
		return true
	}
	untilReference(b.Lib, func() bool { return b.gen != gen }, b.Yield)
	return false
}

// loop is one poll-loop implementation under comparison.
type loop struct {
	until func(l *glibc.Lib, pred func() bool, yield bool)
	wait  func(b *Barrier) bool
}

// loops holds the loop under test first and the reference second.
var loops = [2]loop{
	{Until, (*Barrier).Wait},
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
}

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
// policy counters, per-thread CPU time, the engine's event count and
// clock, and the scenario's own observations.
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
	s := snapshot{Kernel: w.k.Stats, Events: w.eng.Processed(), Now: w.eng.Now(), Log: w.log}
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
						if w.wait(b) {
							w.note("w%d released round %d", i, r)
						}
					}
				}))
			}
			for r := 0; r < rounds; r++ {
				l.Compute(sim.Duration(50*r) * sim.Microsecond)
				if w.wait(b) {
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

func checkSame(t *testing.T, name string, run func(w *world), cores int, params func(*kernel.SchedParams)) {
	t.Helper()
	var snaps [2]snapshot
	for i, lp := range loops {
		w := newWorld(lp, cores, params)
		run(w)
		snaps[i] = w.snapshot()
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatalf("%s: step and reference loops diverge:\nstep:      %+v\nreference: %+v", name, snaps[0], snaps[1])
	}
	if snaps[0].Events == 0 || len(snaps[0].Log) == 0 || snaps[0].Log[len(snaps[0].Log)-1] == "horizon hit" {
		t.Fatalf("%s: scenario did nothing: %+v", name, snaps[0])
	}
}

// TestUntilMatchesReferenceLoop runs each scripted scenario under the
// resume-step poll loop and under the straight-line reference loop and
// requires identical counters, CPU times, event counts and clocks.
func TestUntilMatchesReferenceLoop(t *testing.T) {
	immediate := func(p *kernel.SchedParams) { p.YieldImmediate = true }
	for _, sc := range []struct {
		name   string
		run    func(w *world)
		cores  int
		params func(*kernel.SchedParams)
	}{
		{"barrier-yield", barrierScenario(true), 4, nil},
		{"barrier-noyield", barrierScenario(false), 4, nil},
		{"competitor-lazy-yield", competitorScenario, 1, nil},
		{"yield-immediate", competitorScenario, 1, immediate},
		{"sched-coop-handoff", coopScenario, 1, nil},
		{"nosv-fifo", fifoScenario, 2, nil},
		{"recv-mid-spin", recvScenario(true), 2, nil},
		{"recv-mid-spin-noyield", recvScenario(false), 2, nil},
		{"horizon-kill", horizonScenario, 1, nil},
	} {
		t.Run(sc.name, func(t *testing.T) { checkSame(t, sc.name, sc.run, sc.cores, sc.params) })
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
		checkSame(t, fmt.Sprintf("kick at %v", at), reschedScenario(at, nil, &hits), 1, nil)
		if hits != len(loops) {
			t.Fatalf("kick at %v: %d of %d runs polled at the kick instant; the kick missed the boundary", at, hits, len(loops))
		}
	}
}
