package kernel

import (
	"sort"

	"repro/internal/sim"
)

// Class is a pluggable kernel scheduling class, mirroring Linux's
// sched_class vtable. Each class owns its per-core runqueue type and all
// class-specific policy: pick order (Rank), time slicing, slice-expiry and
// wake-up preemption rules, runtime accounting, and whether load balancing
// may migrate its queued threads. Core dispatch (enqueue, pick, preempt,
// steal, balance) is class-agnostic and consults only this interface.
//
// Implementations embed ClassBase, which carries the kernel binding and
// queue slot the kernel assigns at construction time. Every kernel
// instantiates each class of the builtinClasses table; selection flows
// through SchedParams.DefaultClass and Thread.SetClass.
type Class interface {
	// Name is the class's key ("fair", "rr", "fifo", "batch").
	Name() string
	// Rank orders classes for picking and cross-class wake-up
	// preemption: a waking thread of a lower-ranked class preempts a
	// current thread of a higher-ranked one, and cores pick from queues
	// in ascending rank order.
	Rank() int
	// NewQueue returns an empty per-core runqueue for the class.
	NewQueue() RunQueue
	// Slice returns the time slice to grant t on core c given the
	// present queue depth; a non-positive slice means run-to-block (no
	// slice-expiry preemption, as in SCHED_FIFO).
	Slice(c *Core, t *Thread) sim.Duration
	// SliceShrinks reports whether a newly enqueued competitor
	// recomputes the current thread's slice end from the new queue
	// depth (CFS crowding) rather than leaving the granted quantum
	// intact (RR).
	SliceShrinks() bool
	// ExpirePreempts decides what an expired slice does while
	// competitors are queued: requeue the thread (true) or renew the
	// slice in place (false; RR with no equal-or-higher-priority
	// waiter).
	ExpirePreempts(c *Core, t *Thread) bool
	// WakeupPreempts decides whether freshly woken t preempts curr,
	// both of this class, on c.
	WakeupPreempts(c *Core, t, curr *Thread) bool
	// OnWake adjusts t's accounting before wake-up placement (CFS
	// sleeper placement).
	OnWake(c *Core, t *Thread)
	// OnDispatch runs as t becomes current on c.
	OnDispatch(c *Core, t *Thread)
	// Charge accounts wall time t consumed on c (vruntime for the
	// weighted-fair classes).
	Charge(c *Core, t *Thread, wall sim.Duration)
	// Stealable reports whether idle stealing and periodic balancing
	// may migrate this class's queued threads between cores.
	Stealable() bool

	bind(k *Kernel, slot int)
	slot() int
}

// RunQueue is one scheduling class's per-core queue of runnable threads.
// The class decides the ordering; core dispatch only enqueues, removes,
// and picks.
type RunQueue interface {
	// Len returns the number of queued threads.
	Len() int
	// Enqueue adds t.
	Enqueue(t *Thread)
	// Dequeue removes a specific queued thread (exit, affinity change,
	// class change), reporting whether it was present. Core dispatch
	// keeps incremental queue counters and must not decrement them on a
	// no-op removal.
	Dequeue(t *Thread) bool
	// Pick removes and returns the next thread to run, or nil.
	Pick() *Thread
	// Peek returns the next thread without removing it, or nil.
	Peek() *Thread
	// Steal removes and returns a queued thread whose affinity allows
	// core, or nil (idle stealing and periodic balancing).
	Steal(core int) *Thread
}

// ClassBase carries the kernel binding shared by every class
// implementation. Embed it (by pointer receiver semantics it must be
// embedded as a value in a type used via pointer) in a class struct.
type ClassBase struct {
	kern    *Kernel
	slotIdx int
}

func (b *ClassBase) bind(k *Kernel, slot int) { b.kern = k; b.slotIdx = slot }
func (b *ClassBase) slot() int                { return b.slotIdx }

// Kern returns the owning kernel (nil before the class is bound).
func (b *ClassBase) Kern() *Kernel { return b.kern }

// builtinClasses returns one unbound instance of every scheduling
// class, in ClassNames order. It is the fixed constructor table: a new
// class is one more entry here.
func builtinClasses() []Class {
	return []Class{&fairClass{}, &rrClass{}, &fifoClass{}, &batchClass{}}
}

// ClassNames returns the scheduling-class names: fair, rr, fifo, batch.
func ClassNames() []string {
	cs := builtinClasses()
	ns := make([]string, len(cs))
	for i, cl := range cs {
		ns[i] = cl.Name()
	}
	return ns
}

// newClasses instantiates every class for kernel k, ordered by
// ascending rank (stable on table order), and binds each to its queue
// slot.
func newClasses(k *Kernel) []Class {
	cs := builtinClasses()
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Rank() < cs[j].Rank() })
	for i, cl := range cs {
		cl.bind(k, i)
	}
	return cs
}
