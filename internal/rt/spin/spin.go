// Package spin provides the custom busy-wait synchronisation used inside
// BLAS libraries and MPI progress engines — the constructs §5.2 of the
// paper identifies as the main hazard under oversubscription. A Barrier
// spins on a generation counter; the optional Yield flag is the paper's
// one-line `sched_yield()` patch applied to OpenBLAS, BLIS and MPICH.
//
// Under the standard scheduler, spinning burns time slices and delays the
// releasing thread (Fig. 3d's collapse); with Yield, threads relinquish
// early. Under glibcv, sched_yield becomes a nOS-V yield, giving exact,
// targeted handoffs; without Yield a spinning task can hold its core
// forever (§4.4's documented limitation — experiments then hit their
// timeout horizon, the paper's white squares).
//
// A wait parks its thread once, not once per poll. Each poll is a
// Compute burst, and the poll that follows a burst runs as the thread's
// resume step (sim.Proc.ParkStep) on the engine stack, inside the
// burst's resume event: it makes exactly the calls the straight-line
// loop would make there, in the same order (count the poll, the
// every-other-poll sched_yield, the condition, the next burst's start),
// so every counter and random draw is unchanged. The step hands
// control back to the thread only when the condition holds or when a
// poll's sched_yield could park, which the thread then makes itself.
// The step is the one place where this package's code runs on the
// engine stack, and it must never park.
//
// A watched wait (UntilWatched: the MPI progress engine's, and every
// Barrier's, whose conditions change only where their owners notify)
// stops firing polls while its thread keeps its core: once the bursts
// reach their full length, a poll that finds the condition false lulls
// the thread (sim.Lull) instead of starting the next burst if nothing
// but an event already queued can take the core away before the next
// burst ends. That is, nothing queued on the core competes, or the
// competitors must wait for the core's slice-expiry timer or, if the
// thread yields, its armed lazy-yield switch (kernel.Thread.KeepsCore:
// YieldImmediate off, no resched request pending); and, under glibcv
// with yield, each sched_yield is a self-yield. The skipped polls then
// sit on a fixed grid, the burst plus the kernel entry of every other
// poll's sched_yield, and affect nothing but counters. A notify, any
// kernel or nOS-V interaction with the thread or its core (an enqueue
// or a stop there, the slice-expiry timer, the lazy-yield switch), the
// end of the run, or an event scheduled for exactly the end of the
// burst in flight wakes the lull: the skipped polls' bookkeeping (Spins
// and the yield parity, the yield counters, under SCHED_COOP the
// policy's picks and process quantum) is applied at once, and the burst
// in flight gets its end event, from which the next poll runs exactly
// as it would have. Tables and counters are unchanged; only the fired
// event count drops, by two per skipped poll (sim.Engine.Skipped). Until
// and UntilFunc, whose conditions nobody notifies, fire every poll.
package spin

import (
	"repro/internal/glibc"
	"repro/internal/sim"
)

// baseChunk is the smallest simulated spin burst.
const baseChunk = 500 * sim.Nanosecond

// maxChunkYield caps spin bursts when yielding (to keep yields frequent);
// maxChunkNoYield caps them otherwise (to bound event counts).
const (
	maxChunkYield   = 16 * sim.Microsecond
	maxChunkNoYield = 512 * sim.Microsecond
)

// chunk returns the spin burst for the i-th iteration (exponential
// back-off of the simulation granularity, not of the spinning itself).
func chunk(i int, yield bool) sim.Duration {
	c := baseChunk << uint(i)
	max := maxChunkNoYield
	if yield {
		max = maxChunkYield
	}
	if c > max || c <= 0 {
		return max
	}
	return c
}

// Until busy-waits until pred() holds, charging CPU the whole time. If
// yield is true, a sched_yield is issued every other burst. A capturing
// pred costs one allocation per wait; UntilFunc is the allocation-free
// form.
func Until(l *glibc.Lib, pred func() bool, yield bool) {
	UntilFunc(l, callPred, pred, 0, yield)
}

// callPred adapts Until's closure to UntilFunc's condition form.
func callPred(arg any, _ int) bool { return arg.(func() bool)() }

// UntilFunc is Until with the condition in closure-free form: it
// busy-waits until cond(arg, n) holds. With a package-level cond and a
// pointer arg, a wait allocates nothing.
func UntilFunc(l *glibc.Lib, cond func(arg any, n int) bool, arg any, n int, yield bool) {
	until(l, cond, arg, n, yield, nil)
}

// A Watch is the notify side of watched waits (see UntilWatched): it
// lists the waits in progress on it, linked through their threads' busy-
// wait slots, so watching allocates nothing. The zero Watch is ready for
// use.
type Watch struct{ waits *glibc.SpinWait }

// Notify tells every wait in progress on x that its condition may have
// changed. A watched wait's polls stop firing while its thread keeps its
// core, so its condition's every change must be notified; a notify that
// changes nothing only costs the wait its fast-forward.
func (x *Watch) Notify() {
	for w := x.waits; w != nil; w = w.Next {
		w.WakeLull()
	}
}

// release is Notify for a change that ends every wait on x: the waits
// leave the list at once, and their own removal later finds nothing.
func (x *Watch) release() {
	ws := *x
	*x = Watch{}
	ws.Notify()
}

// add puts w on x's list.
func (x *Watch) add(w *glibc.SpinWait) { w.Next, x.waits = x.waits, w }

// remove takes w off x's list, if it is there.
func (x *Watch) remove(w *glibc.SpinWait) {
	for p := &x.waits; *p != nil; p = &(*p).Next {
		if *p == w {
			*p = w.Next
			return
		}
	}
}

// UntilWatched is UntilFunc for a condition that changes only where
// its owner calls x.Notify: while the waiting thread keeps its core,
// its polls are fast-forwarded instead of fired, exactly (see the
// package comment).
func UntilWatched(l *glibc.Lib, cond func(arg any, n int) bool, arg any, n int, yield bool, x *Watch) {
	until(l, cond, arg, n, yield, x)
}

func until(l *glibc.Lib, cond func(arg any, n int) bool, arg any, n int, yield bool, x *Watch) {
	if cond(arg, n) {
		return
	}
	w := l.BindSpinWait(glibc.SpinWait{Cond: cond, Arg: arg, N: n, Yield: yield, Watched: x != nil})
	if x != nil {
		x.add(w)
	}
	w.StartCompute(chunk(0, yield))
	for {
		w.ParkStep(pollStep)
		if w.Done || !poll(w, false) {
			break
		}
	}
	if x != nil {
		x.remove(w)
	}
	*w = glibc.SpinWait{}
}

// pollStep is the resume step of a spinning thread: one poll on the
// engine stack. It keeps the thread parked while the next burst runs.
func pollStep(arg any) bool { return poll(arg.(*glibc.SpinWait), true) }

// poll is the loop body from a burst's end to the next burst's start,
// shared by the resume step (inStep) and the thread itself. It reports
// whether it started the next burst (or lulled instead); when it did
// not, the wait is over (w.Done) or, in a step, a sched_yield that could
// park is due (w.YieldDue) and the thread must make it itself.
func poll(w *glibc.SpinWait, inStep bool) bool {
	if !w.YieldDue {
		w.Spins++
		w.YieldDue = w.Yield && w.Spins%2 == 0
	}
	yielded := w.YieldDue
	if w.YieldDue {
		if inStep && w.SchedYieldWouldPark() {
			return false
		}
		w.YieldDue = false
		w.SchedYield()
	}
	if w.Cond(w.Arg, w.N) {
		w.Done = true
		return false
	}
	c := chunk(w.Spins, w.Yield)
	if w.Watched && c == chunk(w.Spins+1, w.Yield) && w.KeepsCore() {
		pen := sim.Duration(0)
		if yielded {
			pen = w.YieldPenalty()
		}
		if w.PendingPenalty() == pen {
			lull(w, c, pen)
			return true
		}
	}
	// Bursts are never empty, so a burst always starts and the thread
	// parks until it ends.
	w.StartCompute(c)
	return true
}

// lull fast-forwards a watched wait from the poll that just ran, Spins
// w.Spins, whose burst would be c of work after pen of yield overhead:
// the polls to come are the lull's grid instants. The bursts alternate
// between one after a yield poll (even Spins with yield set), c plus
// the yield's overhead, and one after a plain poll, c.
func lull(w *glibc.SpinWait, c, pen sim.Duration) {
	a, b := c+pen, c
	if w.Yield {
		b = c + w.YieldPenalty() - pen
	}
	w.StartLull(a, b, wake)
}

// wake ends a wait's lull l, whose gap in flight ends at l.Next(),
// Steps grid instants after the lull's start poll: it applies the
// skipped polls' bookkeeping (Spins with the yield parity, and every
// even-Spins poll's sched_yield) and re-creates the burst in flight, so
// the next poll runs exactly as if none had been skipped.
func wake(l *sim.Lull, arg any) {
	w := arg.(*glibc.SpinWait)
	s0 := w.Spins
	k := l.Steps()
	last := s0 + int(k) - 1
	w.Spins = last
	pen := sim.Duration(0)
	if w.Yield {
		// Skipped polls s0+1 .. last; the even ones yielded. The
		// first of them is poll i1 of the grid, the rest two apart.
		i1 := int64(2 - s0%2)
		if n := int(k-i1+1) / 2; k > i1 && n > 0 {
			w.SkipYields(l.At(i1), l.At(i1+2).Sub(l.At(i1)), n)
		}
		if last%2 == 0 {
			pen = w.YieldPenalty()
		}
	}
	if end := w.ResumeCompute(l.At(k-1), chunk(last, w.Yield), pen); end != l.Next() {
		panic("spin: re-created burst misses its grid instant")
	}
}

// Barrier is a centralized sense-reversing busy-wait barrier, the shape
// used by OpenBLAS/BLIS thread teams. Its waits are watched: the
// releasing arrival notifies the waiters of its generation.
type Barrier struct {
	// Lib is the C library of the participating threads.
	Lib *glibc.Lib
	// N is the participant count.
	N int
	// Yield enables the sched_yield patch.
	Yield bool

	count int
	gen   int
	watch Watch // the waits of generation gen
}

// NewBarrier returns a busy-wait barrier for n threads.
func NewBarrier(l *glibc.Lib, n int, yield bool) *Barrier {
	return &Barrier{Lib: l, N: n, Yield: yield}
}

// Wait blocks (spinning) until all N participants arrive. The releasing
// participant returns true.
func (b *Barrier) Wait() bool {
	gen := b.gen
	b.count++
	if b.count == b.N {
		b.count = 0
		b.gen++
		b.watch.release()
		return true
	}
	UntilWatched(b.Lib, barrierPassed, b, gen, b.Yield, &b.watch)
	return false
}

// barrierPassed is Wait's condition: the barrier left generation gen.
func barrierPassed(arg any, gen int) bool { return arg.(*Barrier).gen != gen }
