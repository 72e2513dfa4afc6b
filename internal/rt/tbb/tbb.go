// Package tbb models a oneTBB-style task arena: a worker pool executing
// submitted tasks newest-first (TBB's locality-driven LIFO order), with
// task groups for fork-join waits. It is one of the outer runtimes in the
// paper's Cholesky composition study (Table 2).
package tbb

import (
	"fmt"

	"repro/internal/glibc"
)

// Config tunes an arena. Workers wait passively, the paper's setting
// (oneTBB spins by default): a starved worker blocks at once.
type Config struct {
	// Workers is the arena width (default: all cores).
	Workers int
}

// Arena is a oneTBB task arena.
type Arena struct {
	lib *glibc.Lib
	cfg Config

	stack   []*job // LIFO
	workers []*worker
	stopped bool

	TasksRun int64
}

type job struct {
	fn    func()
	group *Group
}

type worker struct {
	a       *Arena
	pt      *glibc.Pthread
	sem     *glibc.Sem
	blocked bool
}

// Group tracks a set of tasks for Wait (tbb::task_group).
type Group struct {
	a       *Arena
	pending int
	waiters []*glibc.Sem
}

// New creates an arena and starts its workers.
func New(lib *glibc.Lib, cfg Config) *Arena {
	if cfg.Workers <= 0 {
		cfg.Workers = lib.K.NumCores()
	}
	a := &Arena{lib: lib, cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{a: a, sem: lib.NewSem(0)}
		w.pt = lib.PthreadCreate(fmt.Sprintf("tbb-w%d", i), w.loop)
		a.workers = append(a.workers, w)
	}
	return a
}

// Workers returns the arena width.
func (a *Arena) Workers() int { return a.cfg.Workers }

// NewGroup creates a task group.
func (a *Arena) NewGroup() *Group { return &Group{a: a} }

// Run submits fn to the group.
func (g *Group) Run(fn func()) {
	g.pending++
	g.a.submit(&job{fn: fn, group: g})
}

// Wait blocks until all of the group's tasks have completed.
func (g *Group) Wait() {
	if g.pending == 0 {
		return
	}
	sem := g.a.lib.NewSem(0)
	g.waiters = append(g.waiters, sem)
	for g.pending > 0 {
		sem.Wait()
	}
}

// ParallelFor partitions [0, n) into one task per worker and waits.
func (a *Arena) ParallelFor(n int, body func(lo, hi int)) {
	g := a.NewGroup()
	w := a.cfg.Workers
	if w > n {
		w = n
	}
	for i := 0; i < w; i++ {
		lo := i * n / w
		hi := (i + 1) * n / w
		if lo < hi {
			g.Run(func() { body(lo, hi) })
		}
	}
	g.Wait()
}

// Shutdown stops and joins the workers.
func (a *Arena) Shutdown() {
	a.stopped = true
	for _, w := range a.workers {
		if w.blocked {
			w.sem.Post()
		}
	}
	for _, w := range a.workers {
		a.lib.PthreadJoin(w.pt)
	}
	a.workers = nil
}

func (a *Arena) submit(j *job) {
	a.stack = append(a.stack, j)
	for _, w := range a.workers {
		if w.blocked {
			w.blocked = false // consumed; the next submit wakes another
			w.sem.Post()
			break
		}
	}
}

func (w *worker) loop() {
	a := w.a
	for {
		if a.stopped {
			return
		}
		if n := len(a.stack); n > 0 {
			j := a.stack[n-1]
			a.stack = a.stack[:n-1]
			a.TasksRun++
			j.fn()
			g := j.group
			g.pending--
			if g.pending == 0 {
				ws := g.waiters
				g.waiters = nil
				for _, sem := range ws {
					sem.Post()
				}
			}
			continue
		}
		w.blocked = true
		w.sem.Wait()
		w.blocked = false
	}
}
