package sim

import "math/bits"

// timerWheel is a hierarchical timing wheel (Varghese & Lauer's scheme,
// as adopted by the Linux timer subsystem and Kafka's purgatory) that
// holds every event whose tick it has not yet drained: slice expiries,
// quantum renewals, arrivals, futex/retry timeouts. Insert and cancel
// are O(1) — a slot is an unordered slice addressed by bit arithmetic,
// and each resident event records its position in it — and the levels
// span every Time up to Forever, so nothing overflows.
//
// The wheel is invisible to the (at, seq) ordering contract: once the
// due run is exhausted, peekNext drains the wheel's next level-0 slot
// (drainNextSlot), which sorts the slot's events by (at, seq) into the
// engine's due run, and they fire from the run in that order. An event scheduled for a tick whose slot has
// already drained (a late insert: a proc resume or After(0) chain at the
// current instant, or a later instant of the same slot) joins the run
// in order (Engine.joinDue). Draining moves pooled event storage between
// queue tiers without touching callbacks, handles, or sequence numbers,
// so firing order — and therefore every artefact byte — is unchanged at
// any -par/-shards.
//
// Geometry: wheelLevels levels of wheelSlots slots; a level-0 slot spans
// 2^wheelShift ns (32.768µs) and each level is wheelSlots times coarser:
//
//	level 0:  32.768µs/slot —  2.10ms horizon
//	level 1:    2.10ms/slot —   134ms horizon
//	level 2:     134ms/slot —   8.59s horizon
//	level 3:     8.59s/slot —   9.16m horizon
//	level 4:     9.16m/slot —   9.77h horizon
//	level 5:     9.77h/slot —   26.0d horizon
//	level 6:     26.0d/slot —   4.57y horizon
//	level 7:     4.57y/slot —    292y horizon (every Time)
//
// The level-0 slot width equals the 32.768µs (2^15 ns) quantised
// timeline grid from the resilience layer (load.RetryPolicy.Quantum,
// load.PhasedPoisson), so a grid-aligned retry/backoff storm's instant
// occupies exactly one slot: the whole burst is placed, cascaded, and
// drained as a single slice, never straddling two slots.
//
// pos is the wheel's cursor: the next undrained level-0 tick. Every
// wheel-resident event satisfies at >= pos<<wheelShift (level-0 events
// sit at ticks >= pos; a level-k slot is cascaded into lower levels
// before pos enters it), and enqueue routes by the same bound. Every
// due-run event sits at a tick below pos, so a live run head always
// precedes the whole wheel and peekNext drains only an exhausted run.
// pos advances only through drainNextSlot — never with the clock
// directly — so RunWindow's park-at-window-edge clock jumps and
// NextEventTime peeks need no wheel bookkeeping of their own.
const (
	wheelShift    = 15 // log2 of the level-0 slot width in ns (32.768µs)
	wheelSlotBits = 6  // log2 slots per level
	wheelSlots    = 1 << wheelSlotBits
	wheelMask     = wheelSlots - 1

	// wheelLevels covers a tick span of 2^(wheelLevels*wheelSlotBits),
	// every non-negative Time: (63 - wheelShift) / wheelSlotBits levels.
	wheelLevels = (63 - wheelShift) / wheelSlotBits

	// wheelSlotCap is the capacity of a fresh slot array. Arrays are
	// recycled through timerWheel.free, so this sets how often a
	// crowded slot outgrows its array while an engine warms up, not the
	// steady-state footprint. The paper cells crowd up to 32 events
	// into a slot; at a capacity of 8 or 16 those slots regrow, and
	// BenchmarkAblationWaitPolicyActive allocated 2–4% more objects per
	// run than at 32.
	wheelSlotCap = 32

	// slotSlab is how many slot arrays refill carves from one
	// allocation. Every future event is wheel-resident, so even a sparse
	// engine spreads its first events over a dozen or more slots; one
	// allocation per array cost a fresh sharded cluster more objects
	// than the event heap that used to hold those events did.
	slotSlab = 16
)

type timerWheel struct {
	pos   uint64                            // next undrained level-0 tick (time >> wheelShift)
	count int                               // live events resident in the wheel
	occ   [wheelLevels]uint64               // per-level slot occupancy bitmaps
	slots [wheelLevels][wheelSlots][]*event // unordered slot slices

	// Lifetime counters (Engine.WheelInserts; the rest are read by
	// tests); plain increments, never read on the simulation path.
	inserts  uint64 // events routed into the wheel at schedule time
	cascades uint64 // events moved down a level by drainNextSlot
	drains   uint64 // events moved from level 0 into the due run

	// free holds emptied slot arrays: a drained or cascaded slot hands
	// its array back here and a slot that receives its first event takes
	// one, so an engine's slot storage is allocated once and then
	// recirculates instead of every slot growing its own. Its capacity
	// covers every array the wheel owns (see refill), so handing one
	// back never reallocates it.
	free [][]*event
}

// place routes ev into the wheel slot covering ev.at. The caller
// guarantees ev.at's tick is >= pos (otherwise the slot has already
// drained, and the event joins the due run instead); the top level's
// horizon covers every Time, so some level always fits.
func (w *timerWheel) place(ev *event) {
	tick := uint64(ev.at) >> wheelShift
	lvl, sh := 0, uint(0)
	for (tick>>sh)-(w.pos>>sh) >= wheelSlots {
		lvl, sh = lvl+1, sh+wheelSlotBits
	}
	s := int((tick >> sh) & wheelMask)
	list := w.slots[lvl][s]
	if list == nil {
		if len(w.free) == 0 {
			w.refill()
		}
		n := len(w.free) - 1
		list = w.free[n]
		w.free = w.free[:n]
	}
	ev.slot = int32(len(list))
	w.slots[lvl][s] = append(list, ev)
	w.occ[lvl] |= 1 << uint(s)
	ev.idx = int32(idxWheelBase - (lvl*wheelSlots + s))
	w.count++
}

// refill stocks the empty free stack with slotSlab fresh slot arrays
// cut from one allocation, and grows the stack by as many entries.
func (w *timerWheel) refill() {
	slab := make([]*event, slotSlab*wheelSlotCap)
	w.free = make([][]*event, 0, cap(w.free)+slotSlab)
	for i := 0; i < len(slab); i += wheelSlotCap {
		w.free = append(w.free, slab[i:i:i+wheelSlotCap])
	}
}

// remove unlinks a wheel-resident event (O(1)): idx encodes its level
// and slot, and the slot's last event takes its place.
func (w *timerWheel) remove(ev *event) {
	code := idxWheelBase - int(ev.idx)
	lvl, s := code/wheelSlots, code%wheelSlots
	list := w.slots[lvl][s]
	last := len(list) - 1
	if i := ev.slot; int(i) != last {
		list[i] = list[last]
		list[i].slot = i
	}
	w.slots[lvl][s] = list[:last]
	if last == 0 {
		w.occ[lvl] &^= 1 << uint(s)
	}
	ev.idx = idxFree
	w.count--
}

// nextSlot locates the earliest occupied slot across all levels,
// returning its level and start tick (in level-0 ticks). Each level's
// bitmap is scanned as a ring from the cursor: bits at or above
// pos&mask are this revolution, wrapped bits below it are the next.
// A start-tick tie between levels keeps the higher level — its slot
// spans the lower one's and must cascade before anything at that
// instant may drain.
func (w *timerWheel) nextSlot() (lvl int, startTick uint64) {
	lvl = -1
	for l := 0; l < wheelLevels; l++ {
		if w.occ[l] == 0 {
			continue
		}
		sh := uint(l * wheelSlotBits)
		posL := w.pos >> sh
		r := uint(posL & wheelMask)
		var tickL uint64
		if hi := w.occ[l] >> r; hi != 0 {
			tickL = posL + uint64(bits.TrailingZeros64(hi))
		} else {
			// Only wrapped bits remain: they sit one revolution ahead.
			tickL = posL - uint64(r) + wheelSlots + uint64(bits.TrailingZeros64(w.occ[l]))
		}
		if st := tickL << sh; lvl < 0 || st <= startTick {
			lvl, startTick = l, st
		}
	}
	return lvl, startTick
}

// drainNextSlot advances the cursor to the earliest occupied slot,
// cascading higher-level slots into lower levels as the cursor enters
// them, and makes the resulting level-0 slot the engine's due run,
// sorted by (at, seq). The slot's array becomes the run, and the
// exhausted run's array and every cascaded slot's array go back to
// w.free, so no slice reallocates in steady state. Each event cascades
// at most wheelLevels-1 times over its lifetime, so the amortized cost
// per event is O(1) slice moves plus its share of a sort over the few
// events of one 32.768µs slot. Preconditions: w.count > 0 and the run
// is exhausted.
func (w *timerWheel) drainNextSlot(e *Engine) {
	for {
		lvl, start := w.nextSlot()
		w.pos = start
		s := int((start >> uint(lvl*wheelSlotBits)) & wheelMask)
		list := w.slots[lvl][s]
		w.occ[lvl] &^= 1 << uint(s)
		if lvl == 0 {
			if e.due != nil {
				w.free = append(w.free, e.due[:0])
			}
			w.slots[0][s] = nil
			sortDue(list)
			e.due, e.dueHead = list, 0
			w.count -= len(list)
			w.drains += uint64(len(list))
			w.pos = start + 1
			return
		}
		// Cascade: with the cursor now at the slot's start, every event
		// in it fits a lower level (or level 0) by construction, so
		// place never appends to the slice being walked.
		for _, ev := range list {
			w.place(ev)
		}
		w.count -= len(list)
		w.cascades += uint64(len(list))
		w.free = append(w.free, list[:0])
		w.slots[lvl][s] = nil
	}
}

// sortDue sorts a drained slot by (at, seq) and marks its events as run
// entries. Insertion sort costs the slot's length plus its inversions,
// and a slot is short and nearly sorted: events mostly arrive in seq
// order, and one slot spans a single 32.768µs tick. A drained slot in
// the paper and chaos sweeps holds at most 32 events, and 1 in most
// drains. slices.SortFunc in its place cost about 1.8 times as much
// CPU per chaos pass.
func sortDue(due []*event) {
	for i, ev := range due {
		ev.idx = idxDue
		j := i
		for ; j > 0 && before(ev, due[j-1]); j-- {
			due[j] = due[j-1]
		}
		due[j] = ev
	}
}
