package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"
)

// wheelDelta spreads test timers across the current instant and wheel
// levels 0 to 5. Grid-aligned deltas
// (whole level-0 slots) make many events share an instant, so drained
// slots become due runs full of same-instant ties.
func wheelDelta(r *Rand) Duration {
	switch r.Intn(8) {
	case 7:
		return Duration(r.Intn(4)+1) << wheelShift // grid-aligned, a few slots out
	case 0:
		return 0 // the current instant: the due run once its tick drained
	case 1:
		return Duration(r.Intn(1 << wheelShift)) // inside one level-0 slot
	case 2:
		return Duration(r.Intn(1 << (wheelShift + wheelSlotBits))) // level 0
	case 3:
		return Duration(r.Intn(1 << (wheelShift + 2*wheelSlotBits))) // level 1
	case 4:
		return Duration(r.Intn(1 << (wheelShift + 3*wheelSlotBits))) // level 2
	case 5:
		return Duration(r.Intn(1 << (wheelShift + 5*wheelSlotBits))) // level 3/4
	default:
		return Duration(1<<(wheelShift+5*wheelSlotBits)) + Duration(r.Intn(1000)) // level 5
	}
}

// TestWheelPlacementTiers pins the two-tier routing rule: an event at a
// tick at or past the wheel's cursor goes to the wheel level that spans
// its distance (up to Forever, at the top level), whether or not it is
// for the current instant, and an event whose slot has already drained
// joins the due run.
func TestWheelPlacementTiers(t *testing.T) {
	e := NewEngine(1)
	now := e.At(0, func() {}) // at == now, tick 0 not yet drained: level 0
	if e.wheel.count != 1 || len(e.due) != 0 || e.wheel.occ[0] != 1 {
		t.Fatalf("undrained current instant not on level 0 (wheel %d, run %d, occ %b)",
			e.wheel.count, len(e.due), e.wheel.occ[0])
	}
	now.Cancel()
	e.At(Time(3*(1<<wheelShift)), func() {})   // level 0
	e.At(Time(100*(1<<wheelShift)), func() {}) // level 1
	if e.wheel.count != 2 {
		t.Fatalf("wheel occupancy = %d, want 2", e.wheel.count)
	}
	top := e.At(Forever, func() {})
	if e.wheel.count != 3 || e.wheel.occ[wheelLevels-1] == 0 {
		t.Fatalf("Forever event not on the top level (wheel %d, top occupancy %b)",
			e.wheel.count, e.wheel.occ[wheelLevels-1])
	}
	checkInvariants(t, e)
	if end, err := e.RunAll(); err != nil || end != Forever || top.Active() {
		t.Fatalf("RunAll = %v, %v; Forever event active %v", end, err, top.Active())
	}
	if e.wheel.count != 0 || e.Pending() != 0 {
		t.Fatalf("events left behind: wheel %d, pending %d", e.wheel.count, e.Pending())
	}
	// After a wheel event fires, the cursor sits one past its drained
	// slot while the clock sits inside it: new events for the current
	// instant and for a later instant of the same (already-drained) tick
	// must join the due run, yet still fire in (at, seq) order.
	e2 := NewEngine(1)
	e2.At(Time(3*(1<<wheelShift)), func() {})
	if _, err := e2.RunAll(); err != nil {
		t.Fatal(err)
	}
	if nowTick := uint64(e2.Now()) >> wheelShift; e2.wheel.pos != nowTick+1 {
		t.Fatalf("cursor = %d, want %d (one past the fired slot)", e2.wheel.pos, nowTick+1)
	}
	var got []Time
	rec := func() { got = append(got, e2.Now()) }
	late := e2.At(e2.Now()+1, rec)
	same := e2.At(e2.Now(), rec)
	if e2.wheel.count != 0 || late.e.idx != idxDue || same.e.idx != idxDue {
		t.Fatalf("behind-cursor events not in the due run (wheel %d, idx %d, %d)",
			e2.wheel.count, late.e.idx, same.e.idx)
	}
	checkInvariants(t, e2)
	if _, err := e2.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{Time(3 << wheelShift), Time(3<<wheelShift) + 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("behind-cursor events fired at %v, want %v", got, want)
	}
}

// TestWheelOrderingProperty is the cross-tier ordering property: events
// whose times span the current instant and the wheel levels fire in nondecreasing
// (at, seq) order regardless of insertion pattern.
func TestWheelOrderingProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := NewRand(seed)
		e := NewEngine(1)
		var fired []Time
		count := int(n)%200 + 20
		for i := 0; i < count; i++ {
			e.After(wheelDelta(r), func() { fired = append(fired, e.Now()) })
		}
		if _, err := e.RunAll(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestWheelSameInstantFIFO checks the quantised-grid shape from the
// resilience layer: many timers on the exact same grid instants (the
// 32.768µs retry/backoff grid) must fire FIFO within each instant even
// though they share a slot whose order the wheel does not keep. Two
// things scramble that order before the slot drains into the due run:
// a second batch scheduled straight into level 0 while the first still
// waits at level 1 (the first batch cascades in behind it), and cancels
// (a slot removal moves its last event into the gap). Ten instants put
// about 26 live events in a slot; four put about 64, more than a fresh
// slot array holds (wheelSlotCap), so those slots grow while scrambled.
func TestWheelSameInstantFIFO(t *testing.T) {
	const grid = 32768 * Nanosecond
	for _, c := range []struct{ instants int }{{10}, {4}} {
		e := NewEngine(1)
		type rec struct {
			at  Time
			ord int
		}
		var fired []rec
		var handles []Event
		schedule := func(from, to int) {
			for i := from; i < to; i++ {
				i := i
				at := Time(100+i%c.instants) * Time(grid) // level 1 from tick 0
				handles = append(handles, e.At(at, func() { fired = append(fired, rec{e.Now(), i}) }))
			}
		}
		schedule(0, 150)
		e.At(50*Time(grid), func() {}) // moves the cursor past tick 50
		if _, err := e.Run(60 * Time(grid)); err != nil {
			t.Fatal(err)
		}
		schedule(150, 300) // within 64 ticks of the cursor: level 0
		cancelled := 0
		for i := 0; i < 300; i += 7 {
			handles[i].Cancel()
			cancelled++
		}
		checkInvariants(t, e)
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(fired) != 300-cancelled {
			t.Fatalf("%+v: fired %d, want %d", c, len(fired), 300-cancelled)
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if b.at < a.at || (b.at == a.at && b.ord < a.ord) {
				t.Fatalf("%+v: grid instants not FIFO: %+v after %+v", c, b, a)
			}
		}
	}
}

// TestWheelCancelInterleavings is the wheel-range counterpart of
// TestCancelHeavyInterleavings: deltas span all levels, and the full
// invariant set (wheel linkage, occupancy bitmaps, pending counter) is
// checked after every mutation.
func TestWheelCancelInterleavings(t *testing.T) {
	rng := NewRand(4321)
	e := NewEngine(1)
	var handles []Event
	var fired []Time
	for round := 0; round < 25; round++ {
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				handles = append(handles, e.After(wheelDelta(rng), func() { fired = append(fired, e.Now()) }))
			case 2:
				if len(handles) > 0 {
					handles[rng.Intn(len(handles))].Cancel()
				}
			case 3:
				if len(handles) > 0 {
					victim := handles[rng.Intn(len(handles))]
					handles = append(handles, e.After(wheelDelta(rng), func() {
						victim.Cancel()
						fired = append(fired, e.Now())
					}))
				}
			}
			checkInvariants(t, e)
		}
		// Split the drain at a horizon inside the wheel range to exercise
		// park-and-resume across slot boundaries.
		if _, err := e.Run(e.Now() + Time(rng.Intn(1<<(wheelShift+2*wheelSlotBits)))); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, e)
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, e)
		if e.Pending() != 0 {
			t.Fatalf("round %d: %d events pending after RunAll", round, e.Pending())
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

// TestWheelHandleSurvivesCascade verifies that cascading (level k ->
// level k-1 -> due run) preserves event identity: a handle taken at
// schedule time still reports Active/When and can cancel after the
// event has migrated tiers.
func TestWheelHandleSurvivesCascade(t *testing.T) {
	e := NewEngine(1)
	at := Time(200 * (1 << (wheelShift + wheelSlotBits))) // level 2 distance
	fired := false
	ev := e.At(at, func() { fired = true })
	if e.wheel.count != 1 {
		t.Fatalf("event not wheel-resident")
	}
	// Drive the clock close enough that the event has cascaded at least
	// once (a sacrificial earlier timer forces cursor advance).
	e.At(at-Time(1<<wheelShift), func() {})
	if _, err := e.Run(at - 1); err != nil {
		t.Fatal(err)
	}
	if !ev.Active() || ev.When() != at {
		t.Fatalf("handle lost across cascade: active=%v when=%v", ev.Active(), ev.When())
	}
	if e.wheel.cascades == 0 {
		t.Fatalf("no cascades recorded; test scenario broken")
	}
	ev.Cancel()
	if ev.Active() {
		t.Fatal("cancel after cascade did not take")
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired after cascade")
	}
}

// TestWheelCounters checks the wheel counters' accounting identity:
// every wheel insert is eventually drained to the due run, cancelled in
// place, or still resident.
func TestWheelCounters(t *testing.T) {
	e := NewEngine(1)
	nop := func(any) {}
	var handles []Event
	for i := 0; i < 500; i++ {
		handles = append(handles, e.AfterFunc(Duration(i%300+1)*Duration(1<<wheelShift), nop, nil))
	}
	inserted := e.WheelInserts()
	if inserted == 0 {
		t.Fatal("no wheel inserts recorded")
	}
	cancelled := uint64(0)
	for i, h := range handles {
		if i%3 == 0 {
			h.Cancel()
			cancelled++
		}
	}
	if _, err := e.Run(150 * Time(1<<wheelShift)); err != nil {
		t.Fatal(err)
	}
	if got := e.WheelInserts() - e.wheel.drains - uint64(e.wheel.count); got != cancelled {
		t.Fatalf("counter identity: inserts-drains-occupancy = %d, want %d cancelled", got, cancelled)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if e.wheel.count != 0 {
		t.Fatalf("occupancy = %d after drain", e.wheel.count)
	}
	if e.WheelInserts()-e.wheel.drains != cancelled {
		t.Fatalf("drains = %d, inserts = %d, cancelled = %d", e.wheel.drains, e.WheelInserts(), cancelled)
	}
}

// TestWheelSteadyStateZeroAlloc extends the zero-alloc pin to the wheel
// path: schedule/cascade/drain/fire cycles at wheel distances allocate
// nothing once the pool is warm.
func TestWheelSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	nop := func(any) {}
	for i := 0; i < 200; i++ {
		e.AfterFunc(Duration(i%100+1)*Duration(1<<wheelShift), nop, nil)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.AfterFunc(70*Duration(1<<wheelShift), nop, nil)      // level 1
		ev := e.AfterFunc(3*Duration(1<<wheelShift), nop, nil) // level 0
		ev.Cancel()                                            // O(1) wheel cancel
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state wheel cycle allocates %.1f objects, want 0", allocs)
	}
}

// TestWheelRunWindowPark checks the pdes contract: RunWindow must park
// the clock at the window edge without disturbing wheel-resident events,
// and NextEventTime must report the exact next instant (not a slot
// bound) both before and after the park.
func TestWheelRunWindowPark(t *testing.T) {
	e := NewEngine(1)
	at := Time(37*(1<<wheelShift)) + 123 // mid-slot, level 0
	fired := Time(-1)
	e.At(at, func() { fired = e.Now() })
	if got, ok := e.NextEventTime(); !ok || got != at {
		t.Fatalf("NextEventTime = %v,%v, want %v,true", got, ok, at)
	}
	edge := at - 500
	if end := e.RunWindow(edge); end != edge || e.Now() != edge {
		t.Fatalf("RunWindow parked at %v, want %v", end, edge)
	}
	if fired != -1 {
		t.Fatal("event fired inside a window that excludes it")
	}
	if got, ok := e.NextEventTime(); !ok || got != at {
		t.Fatalf("NextEventTime after park = %v,%v, want %v,true", got, ok, at)
	}
	// A message injected at the barrier (AtFunc from outside) for an
	// instant between the edge and the wheel event must fire first.
	var order []string
	e.AtFunc(at-100, func(any) { order = append(order, "msg") }, nil)
	e.At(at+50, func() { order = append(order, "late") })
	e.RunWindow(at + 100)
	if fired != at {
		t.Fatalf("wheel event fired at %v, want %v", fired, at)
	}
	if len(order) != 2 || order[0] != "msg" || order[1] != "late" {
		t.Fatalf("order = %v, want [msg late]", order)
	}
	checkInvariants(t, e)
}

// TestPendingCounterExact is the satellite pin: Pending must track
// alloc/fire/cancel/recycle exactly, across the wheel levels and the
// due run, through horizon splits, double cancels, and stale handles.
func TestPendingCounterExact(t *testing.T) {
	e := NewEngine(1)
	model := 0
	check := func(ctx string) {
		t.Helper()
		if e.Pending() != model {
			t.Fatalf("%s: Pending = %d, model = %d", ctx, e.Pending(), model)
		}
	}
	check("fresh")

	fired := 0
	onFire := func(any) { fired++; model-- }
	// One event at the current instant and one later on level 0, one on
	// level 1 and one on the top level (Forever/2 leaves the churn below
	// room to add deltas without overflowing Time).
	instant := e.AtFunc(0, onFire, nil)
	wheelEv := e.AtFunc(Time(5*(1<<wheelShift)), onFire, nil)
	deep := e.AtFunc(Time(100*(1<<(wheelShift+wheelSlotBits))), onFire, nil)
	over := e.AtFunc(Forever/2, onFire, nil)
	if e.wheel.occ[wheelLevels-1] == 0 {
		t.Fatal("Forever/2 event not on the top level")
	}
	model += 4
	check("scheduled")

	// Cancel both level-0 events; double cancel must not recount.
	instant.Cancel()
	model--
	check("instant cancel")
	instant.Cancel()
	check("instant double cancel")
	wheelEv.Cancel()
	model--
	check("wheel cancel")
	wheelEv.Cancel()
	check("wheel double cancel")

	// Horizon split: fire the deep event, leave the overflow one queued.
	if _, err := e.Run(Time(200 * (1 << (wheelShift + wheelSlotBits)))); err != nil {
		t.Fatal(err)
	}
	check("after horizon split")
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// A stale handle (fired event, storage recycled) must be inert.
	deep.Cancel()
	check("stale cancel")
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	check("drained")
	if fired != 2 || e.Pending() != 0 {
		t.Fatalf("fired = %d, Pending = %d", fired, e.Pending())
	}
	// Cancel-after-fire on the last handle: still inert.
	over.Cancel()
	check("stale cancel after drain")

	// Randomized churn against the model counter.
	rng := NewRand(99)
	var handles []Event
	for op := 0; op < 2000; op++ {
		switch rng.Intn(3) {
		case 0:
			handles = append(handles, e.AfterFunc(wheelDelta(rng), onFire, nil))
			model++
		case 1:
			if len(handles) > 0 {
				h := handles[rng.Intn(len(handles))]
				if h.Active() {
					model--
				}
				h.Cancel()
			}
		case 2:
			if _, err := e.Run(e.Now() + Time(rng.Intn(1<<(wheelShift+3*wheelSlotBits)))); err != nil {
				t.Fatal(err)
			}
		}
		check("churn")
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	check("final drain")
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after final drain", e.Pending())
	}
}

// TestEventIsOneCacheLine pins the event layout: every queue tier reads
// at, seq and idx on each comparison or move, and the 64-byte event
// keeps them on one cache line.
func TestEventIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Fatalf("sizeof(event) = %d bytes, want 64", got)
	}
}

// TestDueRunHandles covers handles whose event sits in the due run: a
// drained slot's entries stay Active with their exact When, Cancel
// drops one in O(1) without firing it, a callback may cancel a later
// sibling of its own run, and a late insert for one of the run's
// instants joins the run behind that instant's ties, before any later
// entry.
func TestDueRunHandles(t *testing.T) {
	e := NewEngine(1)
	slot := Time(5 << wheelShift)
	var fired []int
	rec := func(id int) func() { return func() { fired = append(fired, id) } }
	var h [5]Event
	h[3] = e.At(slot+7, rec(3))
	h[0] = e.At(slot, rec(0))
	h[2] = e.At(slot+7, rec(2)) // same instant as 3, later seq
	h[4] = e.At(slot+9, rec(4))
	h[1] = e.At(slot, func() {
		fired = append(fired, 1)
		h[2].Cancel() // a later sibling in this run
		if h[2].Active() || h[2].When() != -1 {
			t.Error("sibling cancelled from a callback still Active")
		}
	})
	// Stop short of the slot: the peek drains it into the due run.
	if _, err := e.Run(slot - 1); err != nil {
		t.Fatal(err)
	}
	if e.wheel.count != 0 || len(e.due)-e.dueHead != 5 {
		t.Fatalf("slot not drained into the run: wheel %d, run %d", e.wheel.count, len(e.due)-e.dueHead)
	}
	checkInvariants(t, e)
	for i, want := range []Time{slot, slot, slot + 7, slot + 7, slot + 9} {
		if h[i].e.idx != idxDue || !h[i].Active() || h[i].When() != want {
			t.Fatalf("run entry %d: idx %d, Active %v, When %v (want %v)",
				i, h[i].e.idx, h[i].Active(), h[i].When(), want)
		}
	}
	h[4].Cancel()
	h[4].Cancel() // double cancel is inert
	if h[4].Active() || h[4].When() != -1 || e.Pending() != 4 {
		t.Fatalf("cancelled run entry: Active %v, When %v, Pending %d", h[4].Active(), h[4].When(), e.Pending())
	}
	checkInvariants(t, e)
	// The run's slot has drained, so this lands behind the cursor and
	// joins the run: equal in at to entries 2 and 3 but with a later
	// seq, and before the (cancelled) entry 4.
	late := e.At(slot+7, rec(5))
	if late.e.idx != idxDue || e.due[e.dueHead+4] != late.e || e.due[e.dueHead+5] != h[4].e {
		t.Fatalf("late insert not at its place in the run (idx %d)", late.e.idx)
	}
	checkInvariants(t, e)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, e)
	if want := []int{0, 1, 3, 5}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i, ev := range h {
		if ev.Active() {
			t.Fatalf("handle %d still Active after the run drained", i)
		}
		ev.Cancel() // stale: inert
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after RunAll", e.Pending())
	}
}

// TestDueRunCompacts keeps the due run non-empty for tens of thousands
// of late inserts: two chains share each instant of one drained slot,
// and every link schedules the next 1 ns later, still behind the
// cursor, before the run empties. The run's array must reuse its fired
// prefix rather than grow with every link.
func TestDueRunCompacts(t *testing.T) {
	e := NewEngine(1)
	slot := Time(5 << wheelShift)
	last := slot + 1<<wheelShift - 1
	links := 0
	var link func(any)
	link = func(any) {
		links++
		if e.Now() < last {
			e.AfterFunc(1, link, nil)
		}
	}
	e.AtFunc(slot, link, nil)
	e.AtFunc(slot, link, nil)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, e)
	if links != 2<<wheelShift {
		t.Fatalf("links = %d, want %d", links, 2<<wheelShift)
	}
	if cap(e.due) > wheelSlotCap {
		t.Fatalf("due run array grew to %d entries for a run of at most 2", cap(e.due))
	}
}

// TestWheelLevelOneBoundaryBeatsLevelZero pins the case where a level-0
// slot must not win outright: with the cursor exactly on a level-1 slot
// boundary (tick 64k), an event resident on level 1 at 64k+2 comes
// before a level-0 event at 64k+5 and must cascade first. A nextSlot
// that trusted level 0 at that boundary would fire the later event
// first and run the clock backwards.
func TestWheelLevelOneBoundaryBeatsLevelZero(t *testing.T) {
	const k = 5
	tick := func(n uint64) Time { return Time(n << wheelShift) }
	e := NewEngine(1)
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	e.At(tick(wheelSlots*k+2), rec) // wheelSlots away from tick 0: level 1
	if e.wheel.occ[1] == 0 {
		t.Fatal("event at 64k+2 not on level 1; test scenario broken")
	}
	e.At(tick(wheelSlots*k-1), func() {
		// Draining this slot leaves the cursor exactly on the boundary.
		if e.wheel.pos != wheelSlots*k {
			t.Fatalf("cursor at %d, want %d", e.wheel.pos, wheelSlots*k)
		}
		e.At(tick(wheelSlots*k+5), rec)
		if e.wheel.occ[0] == 0 {
			t.Fatal("event at 64k+5 not on level 0; test scenario broken")
		}
		checkInvariants(t, e)
	})
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []Time{tick(wheelSlots*k + 2), tick(wheelSlots*k + 5)}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("fired at %v, want %v", order, want)
	}
}
