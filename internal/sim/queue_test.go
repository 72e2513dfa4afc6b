package sim

import (
	"testing"
	"testing/quick"
)

// checkInvariants verifies the two-tier routing rule — every due-run
// entry at a tick below the wheel's cursor, every wheel event at or past
// it — the due run's (at, seq) order, the wheel's slot/occupancy/position
// invariants, and the O(1) pending counter against a full recount.
func checkInvariants(t *testing.T, e *Engine) {
	t.Helper()
	w := &e.wheel
	// The due run from its head: sorted by (at, seq), each entry live
	// (idxDue) or cancelled (idxDead), and behind the cursor.
	dueLive := 0
	for i := e.dueHead; i < len(e.due); i++ {
		ev := e.due[i]
		switch ev.idx {
		case idxDue:
			dueLive++
		case idxDead:
		default:
			t.Fatalf("due[%d].idx = %d, want %d or %d", i, ev.idx, idxDue, idxDead)
		}
		if i > e.dueHead && before(ev, e.due[i-1]) {
			t.Fatalf("due run unsorted at %d: (%d,%d) after (%d,%d)",
				i, ev.at, ev.seq, e.due[i-1].at, e.due[i-1].seq)
		}
		if tick := uint64(ev.at) >> wheelShift; tick >= w.pos {
			t.Fatalf("due[%d] at tick %d, not below cursor %d", i, tick, w.pos)
		}
	}
	wheelTotal := 0
	for lvl := 0; lvl < wheelLevels; lvl++ {
		sh := uint(lvl * wheelSlotBits)
		for s := 0; s < wheelSlots; s++ {
			list := w.slots[lvl][s]
			occupied := w.occ[lvl]&(1<<uint(s)) != 0
			if (len(list) > 0) != occupied {
				t.Fatalf("wheel occ[%d] bit %d = %v but slot holds %d", lvl, s, occupied, len(list))
			}
			for i, ev := range list {
				wheelTotal++
				if want := int32(idxWheelBase - (lvl*wheelSlots + s)); ev.idx != want {
					t.Fatalf("wheel event idx = %d, want %d", ev.idx, want)
				}
				if int(ev.slot) != i {
					t.Fatalf("wheel slot (%d,%d)[%d].slot = %d", lvl, s, i, ev.slot)
				}
				tick := uint64(ev.at) >> wheelShift
				if tick < w.pos {
					t.Fatalf("wheel event at tick %d behind cursor %d", tick, w.pos)
				}
				if (tick>>sh)&wheelMask != uint64(s) {
					t.Fatalf("wheel event tick %d in wrong slot (%d,%d)", tick, lvl, s)
				}
				if (tick>>sh)-(w.pos>>sh) >= wheelSlots {
					t.Fatalf("wheel event tick %d beyond level-%d horizon (pos %d)", tick, lvl, w.pos)
				}
			}
		}
	}
	if wheelTotal != w.count {
		t.Fatalf("wheel count = %d, recount = %d", w.count, wheelTotal)
	}
	if want := wheelTotal + dueLive; e.pending != want {
		t.Fatalf("pending counter = %d, recount = %d (wheel %d, due %d)",
			e.pending, want, wheelTotal, dueLive)
	}
}

// TestCancelHeavyInterleavings drives a deterministic random mix of
// schedules and cancels — from outside and from inside callbacks, on
// queued, fired, and already-cancelled events — checking queue
// invariants after every mutation and the firing order at the end.
func TestCancelHeavyInterleavings(t *testing.T) {
	rng := NewRand(1234)
	e := NewEngine(1)
	var handles []Event
	var fired []Time
	for round := 0; round < 50; round++ {
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0, 1: // schedule a future or same-time event
				d := Duration(rng.Intn(100))
				handles = append(handles, e.After(d, func() { fired = append(fired, e.Now()) }))
			case 2: // cancel a random handle (may be stale or double-cancel)
				if len(handles) > 0 {
					handles[rng.Intn(len(handles))].Cancel()
				}
			case 3: // schedule an event that cancels another from a callback
				if len(handles) > 0 {
					victim := handles[rng.Intn(len(handles))]
					d := Duration(rng.Intn(100))
					handles = append(handles, e.After(d, func() {
						victim.Cancel()
						fired = append(fired, e.Now())
					}))
				}
			}
			checkInvariants(t, e)
		}
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, e)
		if e.Pending() != 0 {
			t.Fatalf("round %d: %d events still pending after RunAll", round, e.Pending())
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("events fired out of order: %v after %v", fired[i], fired[i-1])
			}
		}
		fired = fired[:0]
		handles = handles[:0]
	}
}

// TestCancelIsEager verifies the documented eager behaviour: a
// cancelled event leaves the queue immediately instead of lingering
// until popped.
func TestCancelIsEager(t *testing.T) {
	e := NewEngine(1)
	evs := make([]Event, 100)
	for i := range evs {
		evs[i] = e.At(Time(10+i), func() {})
	}
	if got := e.Pending(); got != 100 {
		t.Fatalf("Pending = %d, want 100", got)
	}
	for i, ev := range evs {
		if i%2 == 0 {
			ev.Cancel()
		}
	}
	if got := e.Pending(); got != 50 {
		t.Fatalf("Pending after cancelling half = %d, want 50 (cancel must be eager)", got)
	}
	checkInvariants(t, e)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelAfterFireIsInert exercises the generation counters: once an
// event fires, its storage is recycled, and a stale handle must never
// cancel the event that now occupies the storage.
func TestCancelAfterFireIsInert(t *testing.T) {
	e := NewEngine(1)
	first := e.At(1, func() {})
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if first.Active() {
		t.Fatal("fired event still Active")
	}
	secondFired := false
	second := e.At(2, func() { secondFired = true })
	// The pool almost certainly handed At the recycled storage; the
	// stale handle must be inert regardless.
	first.Cancel()
	if !second.Active() {
		t.Fatal("stale Cancel deactivated a recycled event")
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !secondFired {
		t.Fatal("stale Cancel suppressed a recycled event")
	}
}

// TestCancelOwnFiringEvent checks that a callback cancelling the very
// event that is firing is a harmless no-op.
func TestCancelOwnFiringEvent(t *testing.T) {
	e := NewEngine(1)
	var self Event
	count := 0
	self = e.At(1, func() {
		count++
		self.Cancel()
	})
	e.At(2, func() { count++ })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

// TestZeroEventInert checks the zero Event handle.
func TestZeroEventInert(t *testing.T) {
	var ev Event
	ev.Cancel() // must not panic
	if ev.Active() {
		t.Fatal("zero Event is Active")
	}
	if ev.When() != -1 {
		t.Fatalf("zero Event When = %v, want -1", ev.When())
	}
}

// TestRunSplitIdentical is the horizon regression: Run(t1); Run(t2) must
// process exactly the same events, in the same order, as a single
// Run(t2) — hitting the horizon must not disturb event identity.
func TestRunSplitIdentical(t *testing.T) {
	build := func() (*Engine, *[]Time) {
		e := NewEngine(9)
		var fired []Time
		rng := NewRand(77)
		for i := 0; i < 200; i++ {
			e.At(Time(rng.Intn(100)), func() { fired = append(fired, e.Now()) })
		}
		// Self-rescheduling chain crossing the split point.
		var chain func()
		chain = func() {
			fired = append(fired, e.Now())
			if e.Now() < 90 {
				e.After(7, chain)
			}
		}
		e.After(3, chain)
		return e, &fired
	}

	a, fa := build()
	if _, err := a.Run(50); err != nil {
		t.Fatal(err)
	}
	if now := a.Now(); now != 50 {
		t.Fatalf("split Run stopped at %v, want 50", now)
	}
	if _, err := a.Run(100); err != nil {
		t.Fatal(err)
	}

	b, fb := build()
	if _, err := b.Run(100); err != nil {
		t.Fatal(err)
	}

	if len(*fa) != len(*fb) {
		t.Fatalf("split fired %d events, single fired %d", len(*fa), len(*fb))
	}
	for i := range *fa {
		if (*fa)[i] != (*fb)[i] {
			t.Fatalf("firing diverged at %d: split %v, single %v", i, (*fa)[i], (*fb)[i])
		}
	}
}

// TestRunHorizonPreservesHandle verifies that an event left behind by a
// horizon return can still be cancelled through its original handle (the
// old pop-and-repush implementation kept identity only by accident; peek
// guarantees it).
func TestRunHorizonPreservesHandle(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(100, func() { fired = true })
	if _, err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	if !ev.Active() {
		t.Fatal("pending event lost its identity across a horizon return")
	}
	if ev.When() != 100 {
		t.Fatalf("When = %v, want 100", ev.When())
	}
	ev.Cancel()
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired after horizon split")
	}
}

// TestAtFuncDelivery checks the closure-free path end to end, including
// cancellation.
func TestAtFuncDelivery(t *testing.T) {
	e := NewEngine(1)
	var got []int
	ping := func(arg any) { got = append(got, arg.(int)) }
	e.AtFunc(20, ping, 2)
	e.AtFunc(10, ping, 1)
	ev := e.AfterFunc(30, ping, 3)
	e.AfterFunc(40, ping, 4)
	ev.Cancel()
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestSteadyStateSchedulingDoesNotAllocate pins down the zero-alloc
// claim outside the benchmark suite: once the pool is warm, a
// schedule/fire cycle on the closure-free path performs no allocations.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	nop := func(any) {}
	// Warm the pool and the wheel and due-run backing arrays.
	for i := 0; i < 100; i++ {
		e.AfterFunc(Duration(i%7), nop, nil)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.AfterFunc(3, nop, nil)
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestQueueArbitraryRemovalProperty cancels events at random queue
// positions and checks that the rest still fire in time order.
func TestQueueArbitraryRemovalProperty(t *testing.T) {
	f := func(times []uint16, cancels []uint8) bool {
		e := NewEngine(7)
		var handles []Event
		for _, tt := range times {
			handles = append(handles, e.At(Time(tt), func() {}))
		}
		for _, c := range cancels {
			if len(handles) == 0 {
				break
			}
			handles[int(c)%len(handles)].Cancel()
		}
		var last Time = -1
		for {
			ev := e.peekNext()
			if ev == nil {
				break
			}
			if ev.at < last {
				return false
			}
			last = ev.at
			e.fire(ev)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
