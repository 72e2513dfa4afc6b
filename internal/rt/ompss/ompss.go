// Package ompss models an OmpSs-2 runtime (Nanos6/NODES): task creation
// with in/out/inout region dependencies, a shared worker pool, and
// taskwait. It is the outer runtime of the paper's matmul and Cholesky
// benchmarks (Listing 2).
package ompss

import (
	"fmt"

	"repro/internal/glibc"
)

// Deps declares a task's data dependencies over opaque region keys.
type Deps struct {
	In    []any
	Out   []any
	InOut []any
}

// Config tunes the runtime. Workers wait passively, the paper's
// setting: a starved worker blocks at once.
type Config struct {
	// Workers is the pool width (default: all cores).
	Workers int
}

// Runtime is one process's OmpSs-2 runtime instance.
type Runtime struct {
	lib *glibc.Lib
	cfg Config

	ready   []*task
	regions map[any]*regionState
	pending int

	workers   []*worker
	stopped   bool
	twWaiters []*glibc.Sem
	twSemPool []*glibc.Sem
	TasksRun  int64
	TasksMade int64
}

type task struct {
	fn         func()
	nblocking  int
	dependents []*task
	done       bool
}

type regionState struct {
	lastWriter *task
	readers    []*task
}

type worker struct {
	r       *Runtime
	pt      *glibc.Pthread
	sem     *glibc.Sem
	blocked bool
}

// New creates the runtime and starts its worker pool.
func New(lib *glibc.Lib, cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = lib.K.NumCores()
	}
	r := &Runtime{lib: lib, cfg: cfg, regions: make(map[any]*regionState)}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{r: r, sem: lib.NewSem(0)}
		w.pt = lib.PthreadCreate(fmt.Sprintf("nanos6-w%d", i), w.loop)
		r.workers = append(r.workers, w)
	}
	return r
}

// Workers returns the pool width.
func (r *Runtime) Workers() int { return r.cfg.Workers }

// Task submits fn with the given dependencies ("#pragma oss task").
func (r *Runtime) Task(deps Deps, fn func()) {
	t := &task{fn: fn}
	r.TasksMade++
	r.pending++
	addDep := func(pred *task) {
		if pred == nil || pred.done || pred == t {
			return
		}
		pred.dependents = append(pred.dependents, t)
		t.nblocking++
	}
	for _, key := range deps.In {
		st := r.region(key)
		addDep(st.lastWriter)
		st.readers = append(st.readers, t)
	}
	for _, key := range append(append([]any{}, deps.Out...), deps.InOut...) {
		st := r.region(key)
		addDep(st.lastWriter)
		for _, rd := range st.readers {
			addDep(rd)
		}
		st.lastWriter = t
		st.readers = nil
	}
	if t.nblocking == 0 {
		r.enqueue(t)
	}
}

func (r *Runtime) region(key any) *regionState {
	st := r.regions[key]
	if st == nil {
		st = &regionState{}
		r.regions[key] = st
	}
	return st
}

func (r *Runtime) enqueue(t *task) {
	r.ready = append(r.ready, t)
	for _, w := range r.workers {
		if w.blocked {
			// Consume the flag here: the worker only clears it once it
			// actually runs, and the next enqueue must wake a
			// different worker.
			w.blocked = false
			w.sem.Post()
			break
		}
	}
}

// Taskwait blocks the caller until every submitted task has completed
// ("#pragma oss taskwait").
func (r *Runtime) Taskwait() {
	if r.pending == 0 {
		return
	}
	var sem *glibc.Sem
	if n := len(r.twSemPool); n > 0 {
		sem = r.twSemPool[n-1]
		r.twSemPool = r.twSemPool[:n-1]
	} else {
		sem = r.lib.NewSem(0)
	}
	r.twWaiters = append(r.twWaiters, sem)
	for r.pending > 0 {
		sem.Wait()
	}
	r.twSemPool = append(r.twSemPool, sem)
}

// Shutdown stops and joins the worker pool.
func (r *Runtime) Shutdown() {
	r.Taskwait()
	r.stopped = true
	for _, w := range r.workers {
		if w.blocked {
			w.sem.Post()
		}
	}
	for _, w := range r.workers {
		r.lib.PthreadJoin(w.pt)
	}
	r.workers = nil
}

// complete finishes a task: releases dependents and taskwaiters.
func (r *Runtime) complete(t *task) {
	t.done = true
	r.pending--
	for _, d := range t.dependents {
		d.nblocking--
		if d.nblocking == 0 {
			r.enqueue(d)
		}
	}
	t.dependents = nil
	if r.pending == 0 {
		ws := r.twWaiters
		r.twWaiters = nil
		for _, sem := range ws {
			sem.Post()
		}
	}
}

func (w *worker) loop() {
	r := w.r
	for {
		if r.stopped {
			return
		}
		if n := len(r.ready); n > 0 {
			t := r.ready[0]
			r.ready = r.ready[1:]
			r.TasksRun++
			t.fn()
			r.complete(t)
			continue
		}
		w.blocked = true
		w.sem.Wait()
		w.blocked = false
	}
}
