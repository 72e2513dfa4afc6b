package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestLullGrid checks the grid arithmetic against a walk of the grid.
func TestLullGrid(t *testing.T) {
	r := NewRand(5)
	for trial := 0; trial < 200; trial++ {
		l := &Lull{start: Time(r.Intn(1000)), a: Duration(1 + r.Intn(50)), b: Duration(1 + r.Intn(50))}
		grid := []Time{l.start}
		for k := 1; k < 40; k++ {
			gap := l.a
			if k%2 == 0 {
				gap = l.b
			}
			grid = append(grid, grid[k-1].Add(gap))
		}
		for k := int64(1); k < int64(len(grid)); k++ {
			if l.At(k) != grid[k] || l.index(grid[k]) != k || l.prev(grid[k]) != grid[k-1] {
				t.Fatalf("%+v: instant %d: At %v index %d prev %v, want %v %d %v",
					l, k, l.At(k), l.index(grid[k]), l.prev(grid[k]), grid[k], k, grid[k-1])
			}
		}
		for at := l.start - 3; at < grid[len(grid)-2]; at++ {
			want := grid[1]
			for _, g := range grid[1:] {
				if g >= at {
					want = g
					break
				}
			}
			if got := l.ceil(at); got != want {
				t.Fatalf("%+v: ceil(%v) = %v, want %v", l, at, got, want)
			}
		}
	}
}

// lullProbe lulls a parked proc on a fixed grid and logs each wake and
// the re-created end event's firing.
type lullProbe struct {
	e   *Engine
	p   *Proc
	l   Lull
	log *[]string
}

func (q *lullProbe) note(format string, args ...any) {
	*q.log = append(*q.log, fmt.Sprintf("%d: ", q.e.Now())+fmt.Sprintf(format, args...))
}

func (q *lullProbe) wake(any) {
	q.note("%s wakes for step %d at %d", q.p.Name, q.l.Steps(), q.l.Next())
	q.e.AtFunc(q.l.Next(), func(any) { q.note("%s end", q.p.Name) }, nil)
}

func newLullProbe(e *Engine, name string, log *[]string, a, b Duration) *lullProbe {
	q := &lullProbe{e: e, log: log}
	q.p = e.Spawn(name, func(p *Proc) {
		e.Lull(&q.l, p, a, b, q.wake, nil)
		p.Park()
	})
	e.Ready(q.p)
	return q
}

// TestLullWakes pins down when the engine wakes lulls: the guard wakes
// every lull whose gap in flight ends at a new event's instant before
// that event takes its seq, ordered as their skipped end events were
// scheduled; a lull nothing touches sleeps through other events at its
// grid instants; the end of a run wakes the rest as of its horizon.
func TestLullWakes(t *testing.T) {
	e := NewEngine(1)
	var log []string
	// All start at 0. x and y share a grid (10, 20, 30, 40, ...); w's
	// (5, 20, 25, 40, ...) and z's (15, 20, 35, 40, 55, 60, 75, ...)
	// meet it at 20 and 40.
	x := newLullProbe(e, "x", &log, 10, 10)
	y := newLullProbe(e, "y", &log, 10, 10)
	z := newLullProbe(e, "z", &log, 15, 5)
	w := newLullProbe(e, "w", &log, 5, 15)
	foreign := func(at Time, what string) {
		e.At(at, func() { log = append(log, fmt.Sprintf("%d: %s", e.Now(), what)) })
	}
	e.At(35, func() { foreign(40, "foreign") })
	foreign(52, "tick")
	if end, err := e.Run(67); err != nil || end != 67 {
		t.Fatalf("run ended at %v: %v", end, err)
	}
	want := []string{
		// The event for 40, scheduled at 35, wakes x, y and w, whose
		// gaps end at 40, in the order their end events for 40 were
		// scheduled: w's at 25, then x's and y's at 30, in
		// registration order. z's gap in flight ends at 35, now.
		"35: w wakes for step 4 at 40",
		"35: x wakes for step 4 at 40",
		"35: y wakes for step 4 at 40",
		"40: w end",
		"40: x end",
		"40: y end",
		"40: foreign",
		"52: tick",
		// The run ends at 67 with z's grid instants up to 67 passed.
		"52: z wakes for step 7 at 75",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log:\n%q\nwant:\n%q", log, want)
	}
	for _, q := range []*lullProbe{x, y, z, w} {
		if q.l.on {
			t.Fatalf("%s still lulled", q.p.Name)
		}
	}
	if e.Lulls() != 0 || e.Pending() != 1 {
		t.Fatalf("%d lulls, %d events left", e.Lulls(), e.Pending())
	}
	e.KillAll()
}

// TestLullStopAndKill: Stop wakes every lull as of now, and Kill wakes
// the killed proc's.
func TestLullStopAndKill(t *testing.T) {
	e := NewEngine(1)
	var log []string
	x := newLullProbe(e, "x", &log, 10, 10)
	y := newLullProbe(e, "y", &log, 7, 7)
	e.At(31, func() {
		e.Kill(y.p)
		e.Stop()
	})
	if end, err := e.Run(Forever); err != nil || end != 31 {
		t.Fatalf("run ended at %v: %v", end, err)
	}
	want := []string{
		"31: y wakes for step 5 at 35",
		"31: x wakes for step 4 at 40",
	}
	if !reflect.DeepEqual(log, want) || x.l.on || y.l.on {
		t.Fatalf("log:\n%q\nwant:\n%q", log, want)
	}
	e.KillAll()
}
