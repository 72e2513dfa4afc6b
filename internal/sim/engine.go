package sim

import "fmt"

// Engine is the discrete-event simulation driver. It owns the virtual clock
// and the event queue, and it schedules procs (coroutines, see Spawn)
// one at a time: at any instant exactly one proc — or the engine itself —
// is executing, so simulations are race-free and deterministic without
// locks.
type Engine struct {
	now  Time
	seq  uint64
	rng  *Rand
	free []*event // recycled event storage; steady-state At allocates nothing

	// wheel holds every event whose tick it has not yet drained, with
	// O(1) insert/cancel. When its leading level-0 slot becomes current,
	// the slot's events are sorted by (at, seq) into the due run
	// (due[dueHead:]) and fire from there; later inserts for a drained
	// tick — the current instant's proc resumes and After(0) chains
	// included — join the run in order. See wheel.go.
	wheel   timerWheel
	due     []*event
	dueHead int

	// pending counts live queued events in both tiers (wheel and due
	// run): incremented at enqueue, decremented at fire and at Cancel,
	// so Pending is O(1).
	pending int

	cur     *Proc
	nextPID int
	live    int // procs spawned and not yet exited
	procs   []*Proc

	panicVal any // panic propagated out of a proc
	stopped  bool

	// processed counts events fired over the engine's lifetime, for run
	// profiling (events/s, events-per-window). One integer increment in
	// fire — no allocation, no observable effect on the simulation.
	processed uint64

	// lulls are the procs whose periodic activity the engine skips (see
	// lull.go), in lullBuf until there are more than fit. lullNext and
	// lullMax bound their Next fields, lullNext Forever when there is
	// none, so AtFunc's guard is one comparison while no lull is active.
	// lullFree holds the woken Lulls for reuse; skipped counts the
	// events lulls skipped.
	lulls    []*Lull
	lullBuf  [16]*Lull
	lullNext Time
	lullMax  Time
	lullReg  uint64
	lullFree *Lull
	skipped  uint64
}

// NewEngine returns an engine whose RNG streams derive from seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rng: NewRand(seed), lullNext: Forever}
	e.lulls = e.lullBuf[:0]
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns an independent RNG stream for the given label.
func (e *Engine) Rand(label string) *Rand { return e.rng.Stream(label) }

// eventSlab is how many events refill allocates at once: an engine's
// event population grows to its peak in a few dozen allocations
// instead of one per event.
const eventSlab = 64

// refill stocks the empty free list with eventSlab fresh events.
func (e *Engine) refill() {
	slab := make([]event, eventSlab)
	for i := range slab {
		slab[i].eng = e
		e.free = append(e.free, &slab[i])
	}
}

// invalidate retires an event's callbacks and outstanding handles
// (generation bump) without touching its queue linkage.
func (e *Engine) invalidate(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.arg = nil
}

// recycle returns invalidated, unlinked event storage to the free list.
func (e *Engine) recycle(ev *event) {
	ev.idx = idxFree
	e.free = append(e.free, ev)
}

// enqueue routes a freshly allocated event to the timing wheel (a tick
// at or past the cursor) or the due run (a tick the wheel has already
// drained).
func (e *Engine) enqueue(ev *event) {
	e.pending++
	if uint64(ev.at)>>wheelShift >= e.wheel.pos {
		e.wheel.place(ev)
		e.wheel.inserts++
		return
	}
	e.joinDue(ev)
}

// joinDue inserts a late event into the due run in (at, seq) order: an
// append when it is not before the run's tail, otherwise a binary search
// and one copy to open the gap (a resume at the current instant lands
// before the later instants of its slot). A full array first drops its
// fired prefix: when every firing run entry schedules a late insert, the
// run never empties, and without the compaction its array would grow for
// as long as that lasts.
func (e *Engine) joinDue(ev *event) {
	ev.idx = idxDue
	run := e.due
	if len(run) == cap(run) && e.dueHead > 0 {
		run = run[:copy(run, run[e.dueHead:])]
		e.dueHead = 0
	}
	run = append(run, ev)
	if n := len(run) - 1; n > e.dueHead && before(ev, run[n-1]) {
		lo, hi := e.dueHead, n-1
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); before(ev, run[m]) {
				hi = m
			} else {
				lo = m + 1
			}
		}
		copy(run[lo+1:], run[lo:n])
		run[lo] = ev
	}
	e.due = run
}

// At schedules fn to run at virtual time t (>= now). It returns a handle
// that may be used to cancel the event.
func (e *Engine) At(t Time, fn func()) Event { return e.AtFunc(t, callFunc, fn) }

// callFunc is At's trampoline: the event carries the func() as its arg.
func callFunc(fn any) { fn.(func())() }

// AtFunc schedules fn(arg) to run at virtual time t (>= now). It is the
// closure-free counterpart of At: hot call sites pass a long-lived
// function and the receiver as arg, so scheduling allocates nothing.
func (e *Engine) AtFunc(t Time, fn func(any), arg any) Event {
	if t < e.now {
		t = e.now
	}
	if t >= e.lullNext {
		e.guard(t)
	}
	if len(e.free) == 0 {
		e.refill()
	}
	n := len(e.free) - 1
	ev := e.free[n]
	e.free[n] = nil
	e.free = e.free[:n]
	e.seq++
	ev.at, ev.seq = t, e.seq
	ev.fn, ev.arg = fn, arg
	e.enqueue(ev)
	return Event{e: ev, gen: ev.gen}
}

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// AfterFunc schedules fn(arg) to run d from now, without allocating a
// closure.
func (e *Engine) AfterFunc(d Duration, fn func(any), arg any) Event {
	if d < 0 {
		d = 0
	}
	return e.AtFunc(e.now.Add(d), fn, arg)
}

// Live reports the number of procs that have been spawned and not yet
// exited. After Run returns, a non-zero value with an empty queue usually
// indicates a deadlock in the simulated system.
func (e *Engine) Live() int { return e.live }

// Pending reports the number of queued events — O(1), from a live-event
// counter maintained at schedule, fire, and cancel. Cancelled events
// never count: wheel events are removed eagerly, run events are
// invalidated (and uncounted) at cancel and their storage dropped at
// peek.
func (e *Engine) Pending() int { return e.pending }

// Stop makes Run return after the current event completes. The request
// is sticky until a Run call consumes it: a Stop issued while no Run is
// in progress (including before the first Run) makes the next Run return
// immediately, at its current time, without processing any events.
func (e *Engine) Stop() { e.stopped = true }

// peekNext returns the next event to fire — the due run's head — or nil
// when no live event remains. Dead (cancelled) run entries reaching the
// head are dropped here. Every wheel-resident event sits at a tick at or
// past the cursor and every run entry below it (see wheel.go), so only
// an exhausted run makes the wheel's next slot drain into a fresh one.
func (e *Engine) peekNext() *event {
	for e.dueHead < len(e.due) && e.due[e.dueHead].idx == idxDead {
		e.recycle(e.due[e.dueHead])
		e.dueHead++
	}
	if e.dueHead == len(e.due) {
		if e.wheel.count == 0 {
			return nil
		}
		e.wheel.drainNextSlot(e)
	}
	return e.due[e.dueHead]
}

// fire unlinks the due run's head, which peekNext returned, and runs its
// callback, recycling the storage first so the callback itself may
// schedule (and the pool may reuse) it.
func (e *Engine) fire(ev *event) {
	e.dueHead++
	e.pending--
	e.now = ev.at
	e.processed++
	fn, arg := ev.fn, ev.arg
	e.invalidate(ev)
	e.recycle(ev)
	fn(arg)
}

// Run processes events until the queue drains, the horizon passes, or Stop
// is called. It returns the time at which processing stopped and an error
// if the simulated system deadlocked (no events left but live procs
// remain parked). A Run cut short by Stop consumes the stop request;
// calling Run again resumes event processing.
func (e *Engine) Run(until Time) (Time, error) {
	return e.run(until, false)
}

// RunWindow processes events with at <= until exactly like Run, but an
// empty queue means "window exhausted", not deadlock: parked procs may
// be waiting on events another engine will inject at the next shard
// barrier (see sim/pdes). The clock always ends at until, keeping shard
// clocks in lockstep, so a window with no events is a pure clock
// advance. A window never reports deadlock, so there is no error.
func (e *Engine) RunWindow(until Time) Time {
	now, _ := e.run(until, true)
	return now
}

func (e *Engine) run(until Time, window bool) (Time, error) {
	for !e.stopped {
		ev := e.peekNext()
		if ev == nil || ev.at > until {
			if len(e.lulls) > 0 {
				// The run ends here, its lulls' grid instants up to
				// until passed; a queue drained with no horizon
				// keeps going.
				asOf := until
				if asOf == Forever || asOf < e.now {
					asOf = e.now
				}
				e.endLulls(asOf)
				continue
			}
			if ev == nil {
				break
			}
			// Leave the event queued, untouched, for a later Run call.
			// The clock only moves forward: a horizon in the past
			// returns immediately at the current time.
			if until > e.now {
				e.now = until
			}
			return e.now, nil
		}
		e.fire(ev)
		if e.panicVal != nil {
			panic(e.panicVal)
		}
	}
	if e.stopped {
		e.stopped = false
		e.endLulls(-1)
		return e.now, nil
	}
	if window {
		if until > e.now {
			e.now = until
		}
		return e.now, nil
	}
	if e.live > 0 {
		return e.now, fmt.Errorf("sim: deadlock at %v: %d procs parked with no pending events", e.now, e.live)
	}
	return e.now, nil
}

// Processed returns the number of events the engine has fired over its
// lifetime — the profiling denominator for events-per-host-second and
// the pdes per-shard events-per-window accounting.
func (e *Engine) Processed() uint64 { return e.processed }

// WheelInserts returns the number of events the engine has routed into
// the timing wheel over its lifetime (schedule-time placements only;
// cascades and late inserts are not counted). Like Processed, it is a
// per-engine profiling quantity, and so shard-dependent in a pdes fleet.
func (e *Engine) WheelInserts() uint64 { return e.wheel.inserts }

// NextEventTime returns the instant of the earliest queued live event
// and whether one exists. Shard coordinators use it to derive the next
// safe window bound without disturbing the queue.
func (e *Engine) NextEventTime() (Time, bool) {
	e.catchUp()
	ev := e.peekNext()
	if ev == nil || ev.at > e.lullNext {
		if len(e.lulls) > 0 {
			return e.lullNext, true
		}
		return 0, false
	}
	return ev.at, true
}

// RunAll runs with no horizon.
func (e *Engine) RunAll() (Time, error) { return e.Run(Forever) }

// RunHorizon drives the engine with an optional horizon (non-positive
// means none) and additionally reports whether the horizon was reached.
// Callers that model timed-out simulations combine `hit` with their own
// work-remaining predicate and then tear the engine down (KillAll) —
// see stack.System.Run and cluster.Cluster.Run.
func (e *Engine) RunHorizon(horizon Duration) (end Time, hit bool, err error) {
	until := Forever
	if horizon > 0 {
		until = e.now.Add(horizon)
	}
	end, err = e.Run(until)
	return end, err == nil && end >= until, err
}
