package sim

import "testing"

// Differential test: the two-tier queue (the timing wheel and the due run
// it drains into) against a naive reference engine — an unordered slice
// scanned for the minimum (at, seq) on every fire. Both sides run the
// same randomized program of At/AtFunc/Cancel/Run/RunWindow ops,
// including events that schedule children — at their own instant, later
// in their slot, or further out — and cancel victims from inside
// callbacks; the (id, at) firing sequences and the pending counts must
// match exactly. This catches ordering bugs the unit tests can't
// enumerate: cascade-order mistakes, cursor/bound off-by-ones, late
// inserts misplaced in the due run (at its tail or in its middle),
// stale idx encodings.

// refEvent is one scheduled callback in the reference engine.
type refEvent struct {
	at   Time
	seq  uint64
	id   int
	dead bool
}

// refEngine is the sorted-list reference: O(n) scan per fire, trivially
// correct by construction.
type refEngine struct {
	now Time
	seq uint64
	evs []*refEvent
}

func (r *refEngine) schedule(at Time, id int) *refEvent {
	if at < r.now {
		at = r.now
	}
	r.seq++
	ev := &refEvent{at: at, seq: r.seq, id: id}
	r.evs = append(r.evs, ev)
	return ev
}

func (r *refEngine) pending() int {
	n := 0
	for _, ev := range r.evs {
		if !ev.dead {
			n++
		}
	}
	return n
}

// next returns the instant of the earliest live event, or now when none
// is queued (mirrors Engine.NextEventTime).
func (r *refEngine) next() Time {
	at, ok := r.now, false
	for _, ev := range r.evs {
		if !ev.dead && (!ok || ev.at < at) {
			at, ok = ev.at, true
		}
	}
	return at
}

// run mirrors Engine.run: fire events with at <= until in (at, seq)
// order; an event beyond the horizon advances the clock to until, an
// empty queue leaves it (window=true always advances, like RunWindow).
func (r *refEngine) run(until Time, window bool, fire func(id int, at Time)) {
	for {
		var best *refEvent
		for _, ev := range r.evs {
			if ev.dead {
				continue
			}
			if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
				best = ev
			}
		}
		if best == nil {
			if window && until > r.now {
				r.now = until
			}
			return
		}
		if best.at > until {
			if until > r.now {
				r.now = until
			}
			return
		}
		best.dead = true
		r.now = best.at
		fire(best.id, best.at)
	}
}

// diffOp is one step of the randomized program, generated once and
// interpreted against both engines.
type diffOp struct {
	kind    int   // 0: schedule, 1: cancel, 2: run, 3: runWindow, 4: schedule at next
	delta   int64 // schedule: delta from now (4: from the next queued instant); run: horizon from now
	target  int   // cancel: index into issued ids
	chain   bool  // schedule: the callback schedules a child when it fires
	cancels bool  // schedule: the callback cancels `target` when it fires
}

func genDiffProgram(r *Rand, n int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		switch k := r.Intn(12); {
		case k < 5:
			ops[i] = diffOp{kind: 0, delta: int64(wheelDelta(r)),
				chain: r.Intn(4) == 0, cancels: r.Intn(6) == 0, target: r.Intn(1 << 16)}
		case k < 7:
			ops[i] = diffOp{kind: 1, target: r.Intn(1 << 16)}
		case k < 9:
			ops[i] = diffOp{kind: 2, delta: int64(wheelDelta(r))}
		case k < 10:
			ops[i] = diffOp{kind: 3, delta: int64(wheelDelta(r))}
		default:
			// Right after a peek has drained the next slot into the due
			// run: this lands behind the wheel cursor (a late insert),
			// mostly on the run head's own instant, else anywhere in the
			// slot, so it joins the run at its tail or in its middle.
			delta := int64(r.Intn(3) / 2)
			if r.Intn(3) == 0 {
				delta = int64(r.Intn(1 << wheelShift))
			}
			ops[i] = diffOp{kind: 4, delta: delta,
				chain: r.Intn(4) == 0, cancels: r.Intn(6) == 0, target: r.Intn(1 << 16)}
		}
	}
	return ops
}

// child derives a chained event's instant, and whether the child chains
// in turn, purely from its parent's id and instant, so both interpreters
// compute identical timelines without sharing state. A quarter of the
// children land on the parent's own instant and a quarter on a later
// instant of its level-0 slot: the proc-resume pattern, a late insert
// into a due run that may still hold later instants of the slot. The
// rest land up to wheel level 2. A quarter of the children chain again,
// so same-instant chains run a few links deep.
func child(id int, at Time) (Time, bool) {
	h := uint64(id) * 0x9e3779b97f4a7c15
	chain := h>>60&3 == 0
	switch h >> 62 {
	case 0:
		return at, chain
	case 1:
		if rest := (uint64(at) | (1<<wheelShift - 1)) - uint64(at); rest > 0 {
			return at + Time(1+h%rest), chain
		}
		return at, chain
	}
	return at.Add(Duration(h % uint64(1<<(wheelShift+3*wheelSlotBits)))), chain
}

type fireRec struct {
	id int
	at Time
}

// runDiffReal interprets the program against the real engine, checking
// the queue invariants after every op.
func runDiffReal(t *testing.T, ops []diffOp) (fired []fireRec, pendings []int) {
	e := NewEngine(1)
	var handles []Event
	nextID := 0
	var scheduleReal func(at Time, chain, cancels bool, target int)
	scheduleReal = func(at Time, chain, cancels bool, target int) {
		id := nextID
		nextID++
		handles = append(handles, e.At(at, func() {
			fired = append(fired, fireRec{id, e.Now()})
			if cancels && len(handles) > 0 {
				handles[target%len(handles)].Cancel()
			}
			if chain {
				at, again := child(id, e.Now())
				scheduleReal(at, again, false, 0)
			}
		}))
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			scheduleReal(e.Now().Add(Duration(op.delta)), op.chain, op.cancels, op.target)
		case 1:
			if len(handles) > 0 {
				handles[op.target%len(handles)].Cancel()
			}
		case 2:
			if _, err := e.Run(e.Now().Add(Duration(op.delta))); err != nil {
				panic(err)
			}
		case 3:
			e.RunWindow(e.Now().Add(Duration(op.delta)))
		case 4:
			next, ok := e.NextEventTime()
			if !ok {
				next = e.Now()
			}
			scheduleReal(next.Add(Duration(op.delta)), op.chain, op.cancels, op.target)
		}
		checkInvariants(t, e)
		pendings = append(pendings, e.Pending())
	}
	if _, err := e.RunAll(); err != nil {
		panic(err)
	}
	pendings = append(pendings, e.Pending())
	return fired, pendings
}

// refHandle mirrors Event handle semantics (stale handles inert) for the
// reference: cancel marks dead only if not already fired/cancelled.
func runDiffRef(ops []diffOp) (fired []fireRec, pendings []int) {
	r := &refEngine{}
	var handles []*refEvent
	nextID := 0
	meta := map[int]diffOp{} // id -> its schedule op (chain/cancel behaviour)
	schedule := func(at Time, chain, cancels bool, target int) {
		id := nextID
		nextID++
		meta[id] = diffOp{chain: chain, cancels: cancels, target: target}
		handles = append(handles, r.schedule(at, id))
	}
	onFire := func(id int, at Time) {
		fired = append(fired, fireRec{id, at})
		m := meta[id]
		if m.cancels && len(handles) > 0 {
			handles[m.target%len(handles)].dead = true
		}
		if m.chain {
			cat, again := child(id, at)
			schedule(cat, again, false, 0)
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			schedule(r.now.Add(Duration(op.delta)), op.chain, op.cancels, op.target)
		case 1:
			if len(handles) > 0 {
				handles[op.target%len(handles)].dead = true
			}
		case 2:
			r.run(r.now.Add(Duration(op.delta)), false, onFire)
		case 3:
			r.run(r.now.Add(Duration(op.delta)), true, onFire)
		case 4:
			schedule(r.next().Add(Duration(op.delta)), op.chain, op.cancels, op.target)
		}
		pendings = append(pendings, r.pending())
	}
	r.run(Forever, false, onFire)
	pendings = append(pendings, r.pending())
	return fired, pendings
}

// TestDifferentialAgainstReference runs many randomized programs through
// both engines and demands identical firing sequences and pending
// counts.
func TestDifferentialAgainstReference(t *testing.T) {
	rng := NewRand(20260808)
	for prog := 0; prog < 60; prog++ {
		ops := genDiffProgram(rng.Stream("prog"), 300)
		gotF, gotP := runDiffReal(t, ops)
		wantF, wantP := runDiffRef(ops)
		if len(gotF) != len(wantF) {
			t.Fatalf("program %d: real fired %d events, reference %d", prog, len(gotF), len(wantF))
		}
		for i := range wantF {
			if gotF[i] != wantF[i] {
				t.Fatalf("program %d: firing diverged at %d: real %+v, reference %+v",
					prog, i, gotF[i], wantF[i])
			}
		}
		for i := range wantP {
			if gotP[i] != wantP[i] {
				t.Fatalf("program %d: pending diverged after op %d: real %d, reference %d",
					prog, i, gotP[i], wantP[i])
			}
		}
	}
}
