//go:build go1.23

// The build line above lifts only this file's language version to 1.23,
// so vet's stdversion check accepts iter.Pull while go.mod stays at
// go 1.21: scenariobench/go.mod replaces this module at that directive,
// and raising ours would make its build demand a go.mod update.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// ProcState describes the lifecycle of a proc.
type ProcState int

// Proc lifecycle states.
const (
	ProcCreated ProcState = iota // spawned, never run
	ProcRunning                  // currently executing
	ProcParked                   // waiting for Ready
	ProcExited                   // function returned
)

func (s ProcState) String() string {
	switch s {
	case ProcCreated:
		return "created"
	case ProcRunning:
		return "running"
	case ProcParked:
		return "parked"
	case ProcExited:
		return "exited"
	}
	return "unknown"
}

// Proc is a simulated activity: a coroutine that runs only when the engine
// hands it control, and that returns control by parking or exiting. All
// simulated threads, interrupt handlers with complex logic, and workload
// drivers are procs. A parked proc may hold a resume step (ParkStep):
// the one place where its code runs on the engine stack instead of its
// coroutine, and code that must never park.
type Proc struct {
	ID   int
	Name string

	// Data is an upper-layer binding slot (e.g. the kernel thread driving
	// this proc). It replaces side-table map lookups on hot paths; the
	// engine itself never touches it.
	Data any

	eng *Engine
	// next resumes the body until it parks or exits; yield, called
	// from inside the body, hands control back to next's caller.
	next    func() (struct{}, bool)
	yield   func(struct{}) bool
	state   ProcState
	pending bool // a resume event is queued
	killed  bool
	// inStep marks that the resume step is executing, so Park can
	// refuse to run inside it.
	inStep bool

	// step, when armed by ParkStep, runs on the engine stack at each
	// resume before any coroutine switch (see ParkStep).
	step    func(any) bool
	stepArg any

	// lull is the proc's active lull, if any (see Engine.Lull).
	lull *Lull
}

// killSentinel unwinds a killed proc's goroutine from inside Park.
type killSentinel struct{}

// State returns the proc's lifecycle state.
func (p *Proc) State() ProcState { return p.state }

func (p *Proc) String() string { return fmt.Sprintf("proc %d (%s)", p.ID, p.Name) }

// Spawn creates a proc running fn. The proc does not start until Ready is
// called (typically immediately by the caller, or by a scheduler model when
// it dispatches the underlying thread).
//
// The body runs as an iter.Pull coroutine: dispatch calls next and Park
// calls yield, and each is a direct runtime goroutine switch that skips
// the Go scheduler. This is the ONE sanctioned use of host concurrency
// in the deterministic core. Control strictly alternates — exactly one
// of the engine and its procs ever runs — so the Go runtime makes no
// ordering choices that could leak into simulation output. Everything
// above this layer must use engine events; goleak enforces that.
//
// Body code runs on the coroutine stack with one exception: a resume
// step armed by ParkStep runs on the engine stack, on the proc's behalf,
// and must never park.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	e.nextPID++
	p := &Proc{ID: e.nextPID, Name: name, eng: e, state: ProcCreated}
	e.procs = append(e.procs, p)
	e.live++
	// stop is never needed: a proc leaves its coroutine by returning,
	// and Kill makes a parked proc return by unwinding from Park.
	//lint:allow goleak(proc coroutine: runs only inside dispatch's next call, strictly alternating with the engine)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, isKill := r.(killSentinel); !isKill {
					e.panicVal = fmt.Errorf("sim: panic in %v: %v\n%s", p, r, debug.Stack())
				}
			}
			p.state = ProcExited
			e.live--
			e.cur = nil
		}()
		if p.killed {
			return
		}
		fn(p)
	})
	return p
}

// dispatchProc is the resume-event callback: a single package-level
// function shared by every Ready call, so readying a proc allocates no
// closure.
func dispatchProc(arg any) {
	p := arg.(*Proc)
	p.eng.dispatch(p)
}

// readyProc is the sleep-expiry callback shared by every Proc.Sleep.
func readyProc(arg any) {
	p := arg.(*Proc)
	p.eng.Ready(p)
}

// Ready schedules p to resume at the current virtual time (after currently
// queued same-time events). Calling Ready on an exited or already-readied
// proc is a no-op. Calling it on the currently running proc is allowed: the
// resume event fires only once the proc has parked (control returns to the
// engine), which lets scheduler models re-dispatch a thread that is mid-way
// through voluntarily going off-CPU.
func (e *Engine) Ready(p *Proc) {
	if p.state == ProcExited || p.pending {
		return
	}
	p.pending = true
	e.AtFunc(e.now, dispatchProc, p)
}

// dispatch transfers control to p and blocks until p parks or exits.
func (e *Engine) dispatch(p *Proc) {
	p.pending = false
	if p.state == ProcExited {
		return
	}
	if p.state == ProcRunning {
		panic(fmt.Sprintf("sim: resume event fired while %v still running", p))
	}
	if e.cur != nil {
		panic(fmt.Sprintf("sim: dispatch of %v while %v is running", p, e.cur))
	}
	e.cur = p
	p.state = ProcRunning
	if p.step != nil && !p.killed && e.runStep(p) {
		p.state = ProcParked
		e.cur = nil
		return
	}
	p.next()
}

// runStep runs p's armed resume step and reports whether p stays
// parked. A step that returns false is disarmed. A panicking step is
// reported like a body panic, and the body is unwound as if killed, so
// the proc exits with its deferred functions run.
func (e *Engine) runStep(p *Proc) (stay bool) {
	defer func() {
		if r := recover(); r != nil {
			e.panicVal = fmt.Errorf("sim: panic in %v: %v\n%s", p, r, debug.Stack())
			p.inStep = false
			p.step, p.stepArg = nil, nil
			p.killed = true
			stay = false
		}
	}()
	p.inStep = true
	stay = p.step(p.stepArg)
	p.inStep = false
	if !stay {
		p.step, p.stepArg = nil, nil
	}
	return stay
}

// Park suspends the calling proc until Ready is invoked on it. It must be
// called from within the proc's own goroutine.
func (p *Proc) Park() {
	e := p.eng
	if e.cur != p {
		panic(fmt.Sprintf("sim: Park called on %v from outside its goroutine", p))
	}
	if p.inStep {
		panic(fmt.Sprintf("sim: Park called inside the resume step of %v (a step must never park)", p))
	}
	p.state = ProcParked
	e.cur = nil
	p.yield(struct{}{})
	if p.killed {
		panic(killSentinel{})
	}
}

// ParkStep parks the calling proc like Park, with step(arg) armed as its
// resume step. Each time the proc is resumed, the engine first runs the
// step on its own stack, inside the same resume event and with
// Current() == p. If the step returns true the proc stays parked and no
// coroutine switch happens; the next Ready resumes it, and runs the step,
// again. When the step returns false it is disarmed and ParkStep
// returns. This lets a proc that would otherwise park and resume many
// times in a row (a busy-wait's poll loop) pay one coroutine switch for
// the whole run instead of one per resume.
//
// The step is the one place where body code runs on the engine stack:
// it must never park (Park panics inside it), only do what the body
// would do between two parks. Kill skips the step, so a killed proc
// unwinds from ParkStep exactly as from Park. step should be a
// package-level function with its state in arg, in the AtFunc style, so
// arming it allocates nothing.
func (p *Proc) ParkStep(step func(any) bool, arg any) {
	p.step, p.stepArg = step, arg
	p.Park()
}

// Kill terminates a proc: the next time it would resume, its goroutine
// unwinds (running deferred functions) instead of continuing. Used to
// model process exit tearing down its remaining threads. Killing the
// currently running proc or an exited proc is not allowed / a no-op.
func (e *Engine) Kill(p *Proc) {
	if p.state == ProcExited || p.killed {
		return
	}
	if p.state == ProcRunning {
		panic(fmt.Sprintf("sim: Kill of running %v", p))
	}
	p.WakeLull()
	p.killed = true
	e.Ready(p)
}

// KillAll terminates every live proc and drains the resulting unwinding,
// releasing all goroutines. Used to abandon a timed-out experiment without
// leaking goroutines. The event queue may still hold (cancelled or inert)
// timers afterwards; the engine should be discarded.
func (e *Engine) KillAll() {
	e.endLulls(-1)
	for _, p := range e.procs {
		if p.state != ProcExited && p.state != ProcRunning {
			e.Kill(p)
		}
	}
	// Drain only the kill resumes: run until no live procs remain or
	// nothing more fires.
	for e.live > 0 {
		ev := e.peekNext()
		if ev == nil {
			break
		}
		e.fire(ev)
		if e.panicVal != nil {
			panic(e.panicVal)
		}
	}
}

// Current returns the proc currently executing, or nil when the engine
// itself (an event callback) is running.
func (e *Engine) Current() *Proc { return e.cur }

// Sleep parks the calling proc for d of virtual time. This is a low-level
// helper for drivers; simulated threads should sleep via their kernel.
func (p *Proc) Sleep(d Duration) {
	p.eng.AfterFunc(d, readyProc, p)
	p.Park()
}
