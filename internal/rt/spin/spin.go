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
// so every event, counter and random draw is unchanged. The step hands
// control back to the thread only when the condition holds or when a
// poll's sched_yield could park, which the thread then makes itself.
// The step is the one place where this package's code runs on the
// engine stack, and it must never park.
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
	if cond(arg, n) {
		return
	}
	w := l.SpinWait()
	*w = glibc.SpinWait{Lib: l, Cond: cond, Arg: arg, N: n, Yield: yield}
	l.StartCompute(chunk(0, yield))
	for {
		l.ParkStep(pollStep, w)
		if w.Done || !poll(w, false) {
			break
		}
	}
	*w = glibc.SpinWait{}
}

// pollStep is the resume step of a spinning thread: one poll on the
// engine stack. It keeps the thread parked while the next burst runs.
func pollStep(arg any) bool { return poll(arg.(*glibc.SpinWait), true) }

// poll is the loop body from a burst's end to the next burst's start,
// shared by the resume step (inStep) and the thread itself. It reports
// whether it started the next burst; when it did not, the wait is over
// (w.Done) or, in a step, a sched_yield that could park is due
// (w.YieldDue) and the thread must make it itself.
func poll(w *glibc.SpinWait, inStep bool) bool {
	if !w.YieldDue {
		w.Spins++
		w.YieldDue = w.Yield && w.Spins%2 == 0
	}
	if w.YieldDue {
		if inStep && w.Lib.SchedYieldWouldPark() {
			return false
		}
		w.YieldDue = false
		w.Lib.SchedYield()
	}
	if w.Cond(w.Arg, w.N) {
		w.Done = true
		return false
	}
	// Bursts are never empty, so a burst always starts and the thread
	// parks until it ends.
	w.Lib.StartCompute(chunk(w.Spins, w.Yield))
	return true
}

// Barrier is a centralized sense-reversing busy-wait barrier, the shape
// used by OpenBLAS/BLIS thread teams.
type Barrier struct {
	// Lib is the C library of the participating threads.
	Lib *glibc.Lib
	// N is the participant count.
	N int
	// Yield enables the sched_yield patch.
	Yield bool

	count int
	gen   int
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
		return true
	}
	UntilFunc(b.Lib, barrierPassed, b, gen, b.Yield)
	return false
}

// barrierPassed is Wait's condition: the barrier left generation gen.
func barrierPassed(arg any, gen int) bool { return arg.(*Barrier).gen != gen }
