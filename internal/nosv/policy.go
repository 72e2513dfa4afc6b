package nosv

import "repro/internal/sim"

// Policy decides which ready task runs on which core. It is the extension
// point of USF: the instance owns the mechanics (worker parking, core
// slots, the one-runner-per-core invariant) and delegates every choice to
// the policy. Implementations live outside nosv (package usf provides
// SCHED_COOP); a minimal global-FIFO policy is included here for tests and
// as the simplest example.
//
// All methods run inside the single-threaded simulation, so policies need
// no locking, but they must be deterministic.
type Policy interface {
	// Name identifies the policy ("sched_coop", ...).
	Name() string
	// Bind attaches the policy to its instance before first use.
	Bind(in *Instance)
	// Ready offers a ready task. Return a core id to place the task
	// immediately on that idle core, or -1 to keep it queued inside the
	// policy. yield is true when the task comes from nosv_yield (it
	// should requeue behind its siblings rather than get placed back).
	Ready(t *Task, yield bool) int
	// Next picks a task for core (which just went idle), or nil.
	Next(core int) *Task
	// Remove withdraws a queued task (its process is shutting down).
	Remove(t *Task)
}

// YieldAware is an optional Policy extension: when a task yields, the
// instance asks the policy for the next task with the yielder identified,
// so the policy can prefer any other queued work over immediately
// re-running the (probably busy-waiting) yielder. The yielder has already
// been queued via Ready(t, true); if the policy returns a different task
// it must leave the yielder queued, and if it returns the yielder it must
// have popped it.
//
// YieldRepicks answers, without side effects, whether a yield by the
// running task yielder on core would re-pick it (NextAfterYield would
// return the yielder or nil). It may answer false when unsure, never
// true for a yield that hands the core away: the instance relies on it
// to know that a yield will not park.
type YieldAware interface {
	NextAfterYield(core int, yielder *Task) *Task
	YieldRepicks(core int, yielder *Task) bool
}

// YieldSkipper is an optional YieldAware extension for yields nobody
// observes: SkipSelfYields applies the policy's bookkeeping of n yields
// by t, running on core, at the instants first, first+step, ... as if
// each had been made while YieldRepicks held and the core was t's
// throughout, so each re-picked t. A busy-wait fast-forwarding a
// stretch nobody observes (package spin) calls it when the stretch ends.
type YieldSkipper interface {
	SkipSelfYields(core int, t *Task, first sim.Time, step sim.Duration, n int)
}

// FIFOPolicy is the trivial built-in policy: one global FIFO, any idle
// core, no affinity, no process quantum. It exists for unit tests and as
// the "hello world" of USF policies.
type FIFOPolicy struct {
	in *Instance
	q  []*Task
}

// NewFIFO returns a FIFOPolicy.
func NewFIFO() *FIFOPolicy { return &FIFOPolicy{} }

// Name implements Policy.
func (p *FIFOPolicy) Name() string { return "fifo" }

// Bind implements Policy.
func (p *FIFOPolicy) Bind(in *Instance) { p.in = in }

// Ready implements Policy: place on the first idle core, else queue.
func (p *FIFOPolicy) Ready(t *Task, yield bool) int {
	if !yield {
		if c := p.in.FirstIdleCore(); c >= 0 {
			return c
		}
	}
	p.q = append(p.q, t)
	return -1
}

// Next implements Policy.
func (p *FIFOPolicy) Next(core int) *Task {
	if len(p.q) == 0 {
		return nil
	}
	t := p.q[0]
	p.q = p.q[1:]
	return t
}

// Remove implements Policy.
func (p *FIFOPolicy) Remove(t *Task) {
	for i, x := range p.q {
		if x == t {
			copy(p.q[i:], p.q[i+1:])
			p.q = p.q[:len(p.q)-1]
			return
		}
	}
}
