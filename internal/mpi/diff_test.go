package mpi

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

// The differential oracle for fast-forwarded waits: every scenario runs
// once over World/Rank, whose waits fast-forward while their threads
// keep their cores, and once over refWorld/refRank below, a test-only
// copy of the same protocol over the straight-line poll loop (one park
// and resume per poll). Everything must agree, the event count as
// fired plus skipped events.

// refChunk is package spin's burst schedule.
func refChunk(i int, yield bool) sim.Duration {
	c := 500 * sim.Nanosecond << uint(i)
	max := 512 * sim.Microsecond
	if yield {
		max = 16 * sim.Microsecond
	}
	if c > max || c <= 0 {
		return max
	}
	return c
}

// untilReference is the straight-line busy-wait: burst, count, yield
// every other poll, test. polls, when non-nil, receives each poll's
// instant.
func untilReference(l *glibc.Lib, pred func() bool, yield bool, polls *[]sim.Time) {
	spins := 0
	for !pred() {
		l.Compute(refChunk(spins, yield))
		spins++
		if yield && spins%2 == 0 {
			l.SchedYield()
		}
		if polls != nil {
			*polls = append(*polls, l.K.Eng.Now())
		}
	}
}

// endpoint is what a scenario drives: a Rank or a refRank.
type endpoint interface {
	Send(dst, tag int, bytes int64)
	Recv(src, tag int) int64
	Barrier()
	Allreduce(bytes int64)
}

type refWorld struct {
	size     int
	ranks    []*refRank
	yield    bool
	barCount int
	barGen   int
	// polls records the poll instants of rank probe's waits.
	probe int
	polls []sim.Time
}

type refRank struct {
	w     *refWorld
	rank  int
	lib   *glibc.Lib
	inbox [][]message
}

func (r *refRank) until(pred func() bool) {
	var polls *[]sim.Time
	if r.rank == r.w.probe {
		polls = &r.w.polls
	}
	untilReference(r.lib, pred, r.w.yield, polls)
}

func (r *refRank) Send(dst, tag int, bytes int64) {
	r.lib.Compute(sendOverhead + sim.Duration(float64(bytes)/copyBytesPerNs))
	r.w.post(r.rank, dst, tag, bytes)
}

func (w *refWorld) post(src, dst, tag int, bytes int64) {
	d := w.ranks[dst]
	d.inbox[src] = append(d.inbox[src], message{src: src, tag: tag, bytes: bytes})
}

func (r *refRank) Recv(src, tag int) int64 {
	var got message
	r.until(func() bool {
		q := r.inbox[src]
		for i, m := range q {
			if m.tag == tag {
				got = m
				copy(q[i:], q[i+1:])
				r.inbox[src] = q[:len(q)-1]
				return true
			}
		}
		return false
	})
	r.lib.Compute(recvOverhead + sim.Duration(float64(got.bytes)/copyBytesPerNs))
	return got.bytes
}

func (r *refRank) Barrier() {
	w := r.w
	gen := w.barGen
	w.barCount++
	if w.barCount == w.size {
		w.barCount = 0
		w.barGen++
		return
	}
	r.until(func() bool { return w.barGen != gen })
}

func (r *refRank) Allreduce(bytes int64) {
	r.lib.Compute(sim.Duration(2 * float64(bytes) / copyBytesPerNs))
	r.Barrier()
	log2 := 0
	for n := 1; n < r.w.size; n <<= 1 {
		log2++
	}
	r.lib.Compute(sim.Duration(log2) * 2 * sim.Microsecond)
	r.Barrier()
}

// mode is one scheduler and yield-patch combination.
type mode struct {
	coop, yield bool
	quantum     sim.Duration // SCHED_COOP process quantum; 0 = default
}

func (m mode) String() string {
	s := "kernel"
	if m.coop {
		s = "coop"
	}
	if m.yield {
		s += "-yield"
	}
	if m.quantum > 0 {
		s += fmt.Sprintf("-q%v", m.quantum)
	}
	return s
}

// run is one simulation of a scenario.
type run struct {
	mode
	ff     bool
	eng    *sim.Engine
	k      *kernel.Kernel
	libs   []*glibc.Lib
	policy *usf.SchedCoop
	log    []string

	world *World
	ref   *refWorld
	// width is how many cores, from its own, a process may use under
	// the kernel scheduler; 0 means one.
	width int
}

func newRun(m mode, ff bool, cores, size, probe int) *run {
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = cores
	eng := sim.NewEngine(3)
	r := &run{mode: m, ff: ff, eng: eng, k: kernel.New(eng, cfg, kernel.DefaultSchedParams())}
	if ff {
		r.world = NewWorld(size, m.yield)
	} else {
		r.ref = &refWorld{size: size, ranks: make([]*refRank, size), yield: m.yield, probe: probe}
	}
	return r
}

func (r *run) note(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("%v ", r.eng.Now())+fmt.Sprintf(format, args...))
}

// opts returns a process's options: under SCHED_COOP every process
// shares the default segment; otherwise the process is pinned to core
// (and width-1 more).
func (r *run) opts(core int) glibc.Options {
	if !r.coop {
		return glibc.Options{Affinity: kernel.RangeMask(core, core+max(r.width, 1))}
	}
	return glibc.Options{USF: true, Policy: func() nosv.Policy {
		cfg := usf.DefaultCoopConfig()
		if r.quantum > 0 {
			cfg.ProcessQuantum = r.quantum
		}
		r.policy = usf.NewSchedCoop(cfg)
		return r.policy
	}}
}

// start launches a process on core.
func (r *run) start(name string, core int, main func(l *glibc.Lib)) {
	l, err := glibc.StartProcess(r.k, name, r.opts(core), main)
	if err != nil {
		panic(err)
	}
	r.libs = append(r.libs, l)
}

// rank launches rank i as its own process on core i running body.
func (r *run) rank(i int, body func(ep endpoint, l *glibc.Lib)) {
	r.start(fmt.Sprintf("rank%d", i), i, func(l *glibc.Lib) {
		if r.ff {
			body(r.world.Register(i, l), l)
			return
		}
		rr := &refRank{w: r.ref, rank: i, lib: l, inbox: make([][]message, r.ref.size)}
		r.ref.ranks[i] = rr
		body(rr, l)
	})
}

// post delivers a message from event context: the tail of Send (the
// mailbox append and its notify) without the sender's compute.
func (r *run) post(src, dst, tag int, bytes int64) {
	if !r.ff {
		r.ref.post(src, dst, tag, bytes)
		return
	}
	d := r.world.ranks[dst]
	d.inbox[src] = append(d.inbox[src], message{src: src, tag: tag, bytes: bytes})
	if d.recvSrc == src {
		d.watch.Notify()
	}
}

// arrive makes rank i's barrier arrival from event context; it must be
// the last one, so it does not wait.
func (r *run) arrive(i int) {
	if r.ff {
		r.world.ranks[i].Barrier()
	} else {
		r.ref.ranks[i].Barrier()
	}
}

// competitor is a thread that becomes runnable on core when kick is
// called: under the kernel scheduler a thread pinned there, woken from a
// futex; under SCHED_COOP a task of another process, woken from a long
// nosv_waitfor while every core is taken, so it queues. It then computes
// for d.
type competitor struct {
	r    *run
	f    *kernel.Futex
	task *nosv.Task
	inst *nosv.Instance
}

func (r *run) competitor(core int, d sim.Duration) *competitor {
	c := &competitor{r: r}
	r.start("competitor", core, func(l *glibc.Lib) {
		if r.coop {
			c.task, c.inst = l.Self().Task(), l.Inst
			l.Sleep(sim.Second)
		} else {
			c.f = l.K.NewFutex()
			c.f.Wait(l.Self().KT, 0, -1)
		}
		r.note("competitor runs")
		l.Compute(d)
		r.note("competitor done")
	})
	return c
}

func (c *competitor) kick() {
	c.r.note("competitor kicked")
	if c.task != nil {
		c.inst.Submit(c.task)
		return
	}
	c.f.Word = 1
	c.f.Wake(1)
}

// finish drives the run to the end or to horizon, and tears a timed-out
// run down.
func (r *run) finish(horizon sim.Duration) {
	_, hit, err := r.eng.RunHorizon(horizon)
	if err != nil {
		panic(err)
	}
	if hit {
		r.note("horizon hit")
		r.eng.KillAll()
	}
}

// snapshot is everything a run's waits can move except the event count.
type snapshot struct {
	Kernel kernel.Counters
	CPU    []sim.Duration
	Libs   []glibc.Stats
	Nosv   nosv.Stats
	Coop   usf.CoopStats
	Now    sim.Time
	Live   int
	Log    []string
}

func (r *run) snapshot() snapshot {
	s := snapshot{Kernel: r.k.Stats, Now: r.eng.Now(), Live: r.eng.Live(), Log: r.log}
	for tid := kernel.Tid(1); r.k.LookupThread(tid) != nil; tid++ {
		s.CPU = append(s.CPU, r.k.LookupThread(tid).CPUTime)
	}
	for _, l := range r.libs {
		s.Libs = append(s.Libs, l.Stats)
		if l.Inst != nil {
			s.Nosv = l.Inst.Stats
		}
	}
	if r.policy != nil {
		s.Coop = r.policy.Stats
	}
	return s
}

// scenario builds a run's world and drives it.
type scenario func(r *run)

// compare runs sc with and without the fast-forward and requires equal
// snapshots, the fired plus skipped events of the one equal to the
// fired events of the other, and fewer fired events with the
// fast-forward when lone is set.
func compare(t *testing.T, name string, m mode, cores, size, probe int, sc scenario, lone bool) {
	t.Helper()
	var snaps [2]snapshot
	var fired, skipped [2]uint64
	for i, ff := range []bool{true, false} {
		r := newRun(m, ff, cores, size, probe)
		sc(r)
		snaps[i], fired[i], skipped[i] = r.snapshot(), r.eng.Processed(), r.eng.Skipped()
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatalf("%s %v: fast-forward and reference diverge:\nff:        %+v\nreference: %+v", name, m, snaps[0], snaps[1])
	}
	if len(snaps[0].Log) == 0 {
		t.Fatalf("%s %v: scenario observed nothing", name, m)
	}
	if skipped[1] != 0 || fired[0]+skipped[0] != fired[1] {
		t.Fatalf("%s %v: %d fired + %d skipped events with the fast-forward, %d fired without", name, m, fired[0], skipped[0], fired[1])
	}
	if lone && fired[0] >= fired[1] {
		t.Fatalf("%s %v: %d events with the fast-forward, %d without: no wait fast-forwarded", name, m, fired[0], fired[1])
	}
}

// pollsOf runs sc over the reference and returns the poll instants of
// rank probe.
func pollsOf(m mode, cores, size, probe int, sc scenario) []sim.Time {
	r := newRun(m, false, cores, size, probe)
	sc(r)
	return r.ref.polls
}

// recvScenario: rank 0 computes 20ms and sends; rank 1 receives. at
// schedules, from an event at from, an action at instant at: a
// competitor kicked onto rank 1's core ("compete"), rank 1's thread
// moved onto rank 0's core ("migrate", kernel scheduler only), or the
// message posted from event context instead of sent ("post"). The
// action runs after a chain of follow same-instant follow-up events. A
// burst's end at at orders before the first follow-up exactly when its
// end event was scheduled before the event at at, and before the second
// exactly when its resume was, which the event at at precedes. A zero
// at schedules nothing.
func recvScenario(action string, at, from sim.Time, follow int) scenario {
	return func(r *run) {
		var comp *competitor
		if action == "compete" {
			comp = r.competitor(1, 50*sim.Microsecond)
		}
		r.rank(0, func(ep endpoint, l *glibc.Lib) {
			l.Compute(20 * sim.Millisecond)
			if action != "post" {
				ep.Send(1, 0, 4096)
			}
			r.note("rank 0 done")
		})
		var spinner *kernel.Thread
		r.rank(1, func(ep endpoint, l *glibc.Lib) {
			spinner = l.Self().KT
			n := ep.Recv(0, 0)
			r.note("rank 1 received %d", n)
		})
		act := func() {
			r.note("%s", action)
			switch action {
			case "compete":
				comp.kick()
			case "migrate":
				spinner.SetAffinity(kernel.NewMask(0))
			default:
				r.post(0, 1, 0, 64)
			}
		}
		if at > 0 {
			r.eng.At(from, func() { r.eng.At(at, chain(r.eng, follow, act)) })
		}
		r.finish(sim.Second)
	}
}

// chain returns fn behind n same-instant follow-up events.
func chain(eng *sim.Engine, n int, fn func()) func() {
	for ; n > 0; n-- {
		next := fn
		fn = func() { eng.After(0, next) }
	}
	return fn
}

// tagScenario: rank 1 waits for tag 2 while rank 0 sends tag 1 first
// (a notify that changes nothing), then tag 2, then receives tag 1.
func tagScenario(r *run) {
	r.rank(0, func(ep endpoint, l *glibc.Lib) {
		l.Compute(700 * sim.Microsecond)
		ep.Send(1, 1, 100)
		l.Compute(900 * sim.Microsecond)
		ep.Send(1, 2, 200)
	})
	r.rank(1, func(ep endpoint, l *glibc.Lib) {
		a := ep.Recv(0, 2)
		b := ep.Recv(0, 1)
		r.note("rank 1 received %d then %d", a, b)
	})
	r.finish(sim.Second)
}

// barrierScenario: four ranks, three of them with equal work so their
// lone waits share a grid, run rounds of barriers and allreduces.
func barrierScenario(r *run) {
	for i := 0; i < 4; i++ {
		i := i
		r.rank(i, func(ep endpoint, l *glibc.Lib) {
			for round := 0; round < 3; round++ {
				w := 300 * sim.Microsecond
				if i == round%4 {
					w = sim.Duration(900+200*round) * sim.Microsecond
				}
				l.Compute(w)
				ep.Barrier()
				r.note("rank %d passed barrier %d", i, round)
				ep.Allreduce(1024)
			}
		})
	}
	r.finish(sim.Second)
}

// barrierTimerScenario: ranks 1 and 2 wait at a barrier whose last
// arrival, rank 0's, is made at instant at from a same-instant follow-up
// of an event scheduled from an event at from.
func barrierTimerScenario(at, from sim.Time) scenario {
	return func(r *run) {
		r.rank(0, func(ep endpoint, l *glibc.Lib) {
			l.Compute(30 * sim.Millisecond)
			ep.Barrier()
		})
		for i := 1; i < 3; i++ {
			i := i
			r.rank(i, func(ep endpoint, l *glibc.Lib) {
				l.Compute(sim.Duration(i*50) * sim.Microsecond)
				ep.Barrier()
				r.note("rank %d passed", i)
			})
		}
		r.eng.At(from, func() {
			r.eng.At(at, chain(r.eng, 1, func() {
				r.note("arrive")
				r.arrive(0)
			}))
		})
		r.finish(sim.Second)
	}
}

// quantumScenario: a SCHED_COOP quantum shorter than rank 1's lone wait
// expires several times inside it; a competitor arriving late makes the
// wait's quantum bookkeeping decide the next pick.
func quantumScenario(r *run) {
	comp := r.competitor(1, 40*sim.Microsecond)
	r.rank(0, func(ep endpoint, l *glibc.Lib) {
		l.Compute(5 * sim.Millisecond)
		ep.Send(1, 0, 64)
	})
	r.rank(1, func(ep endpoint, l *glibc.Lib) {
		r.note("rank 1 received %d", ep.Recv(0, 0))
	})
	r.eng.At(sim.Time(4300*sim.Microsecond+123), comp.kick)
	r.finish(sim.Second)
}

// killScenario: a rank's helper thread waits forever for a message; the
// rank's main thread returns, and process exit kills the lone spinner.
func killScenario(r *run) {
	r.width = 2
	r.rank(0, func(ep endpoint, l *glibc.Lib) {
		l.PthreadCreate("helper", func() {
			ep.Recv(0, 9)
			r.note("helper received")
		})
		l.Compute(1500 * sim.Microsecond)
		r.note("rank 0 exits")
	})
	r.finish(sim.Second)
}

// horizonScenario: a wait that never ends is cut by the horizon.
func horizonScenario(r *run) {
	r.rank(0, func(ep endpoint, l *glibc.Lib) {
		ep.Recv(0, 9)
		r.note("received")
	})
	r.finish(3*sim.Millisecond + 777)
}

var modes = []mode{{}, {yield: true}, {coop: true}, {coop: true, yield: true}}

// TestLoneWaitsMatchReferenceLoop holds the fast-forwarded MPI waits to
// the straight-line loop: counters, CPU times, observations, clocks and
// fired plus skipped events agree under both schedulers, yield patch on
// and off, and the fast path fired fewer events.
func TestLoneWaitsMatchReferenceLoop(t *testing.T) {
	for _, m := range modes {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			compare(t, "recv", m, 2, 2, 1, recvScenario("", 0, 0, 0), true)
			compare(t, "tag", m, 2, 2, 1, tagScenario, true)
			compare(t, "barrier", m, 4, 4, 1, barrierScenario, true)
			compare(t, "kill", m, 2, 1, 0, killScenario, true)
			compare(t, "horizon", m, 1, 1, 0, horizonScenario, true)

			// Actions at exactly a skipped poll's instant and in the
			// middle of a burst, scheduled long before (a tie with
			// the skipped burst end), at the previous poll, and
			// inside the burst in flight (the guard).
			polls := pollsOf(m, 2, 2, 1, recvScenario("", 0, 0, 0))
			if len(polls) < 40 {
				t.Fatalf("probe found %d polls", len(polls))
			}
			n := len(polls)
			for _, i := range []int{n / 3, n/3 + 1, 2 * n / 3} {
				at, prev := polls[i], polls[i-1]
				for _, from := range []sim.Time{0, prev, prev + 1, at - 1} {
					actions := []string{"compete", "post"}
					if !m.coop {
						actions = append(actions, "migrate")
					}
					for _, action := range actions {
						for follow := 0; follow < 3; follow++ {
							name := fmt.Sprintf("%s at poll %d from %v after %d follow-ups", action, i, from, follow)
							compare(t, name, m, 2, 2, 1, recvScenario(action, at, from, follow), true)
						}
					}
				}
				compare(t, "compete mid-burst", m, 2, 2, 1, recvScenario("compete", at-99, prev, 0), true)
			}
			bpolls := pollsOf(m, 3, 3, 1, barrierTimerScenario(sim.Time(30*sim.Millisecond), 0))
			n = len(bpolls)
			for _, i := range []int{n / 2, n/2 + 1} {
				at := bpolls[i]
				for _, from := range []sim.Time{0, bpolls[i-1], at - 1} {
					compare(t, fmt.Sprintf("barrier release at poll %d from %v", i, from), m, 3, 3, 1, barrierTimerScenario(at, from), true)
				}
			}
		})
	}
	for _, q := range []sim.Duration{sim.Millisecond, 700 * sim.Microsecond} {
		for _, yield := range []bool{true, false} {
			m := mode{coop: true, yield: yield, quantum: q}
			compare(t, "quantum", m, 2, 2, 1, quantumScenario, true)
		}
	}
}
