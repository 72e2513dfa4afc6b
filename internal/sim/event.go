package sim

// event is the pooled storage behind a scheduled callback. Events are
// owned by the engine: they are allocated from a free list in At/AtFunc,
// returned to it when they fire or are cancelled, and identified across
// reuse by a generation counter. User code never sees *event — it holds
// an Event handle, which pairs the pointer with the generation it was
// issued for, so a stale handle (fired or cancelled) is always inert.
//
// The layout is exactly one 64-byte cache line (a test pins it): every
// queue tier touches at, seq and idx on each comparison or move, so a
// wider event would split those reads across lines.
type event struct {
	at  Time
	seq uint64 // insertion order; total tie-break for determinism
	gen uint64 // bumped on release; stale handles compare unequal

	// fn(arg) is the callback. At stores its func() in arg behind the
	// callFunc trampoline, so every event fires through one path and
	// hot call sites (AtFunc) allocate nothing.
	fn  func(any)
	arg any

	eng *Engine
	idx int32 // which tier holds the event: a sentinel or wheel encoding below
	// slot is the event's position in its timing-wheel slot slice while
	// it is wheel-resident, so wheel cancellation is an O(1) swap-remove.
	slot int32
}

// Sentinel idx values for events outside the wheel. A wheel-resident
// event encodes its (level, slot) position as
// idx = idxWheelBase - (level*wheelSlots + slot), so idx <= idxWheelBase
// identifies the wheel and Cancel can find the slot without extra
// fields.
const (
	idxFree      = -1 // not queued (free, fired, or dropped after cancel)
	idxDue       = -2 // queued in the engine's due run
	idxDead      = -3 // cancelled in the due run; dropped at peek
	idxWheelBase = -4 // first wheel encoding; see above
)

// Event is a cancellable handle to a scheduled callback. The zero Event
// is inert: Cancel is a no-op and Active reports false. Handles stay
// safe after the event fires — the underlying storage is recycled, but
// the generation check makes operations on a stale handle no-ops.
type Event struct {
	e   *event
	gen uint64
}

// Active reports whether the event is still queued: not yet fired and
// not cancelled.
func (ev Event) Active() bool {
	return ev.e != nil && ev.e.gen == ev.gen && ev.e.idx != idxFree
}

// When returns the virtual time at which the event is scheduled to fire.
// It is meaningful only while the event is Active; otherwise it returns
// -1.
func (ev Event) When() Time {
	if !ev.Active() {
		return -1
	}
	return ev.e.at
}

// Cancel removes the event from the queue so it never fires. Cancelling
// an already-fired, already-cancelled, or zero Event is a no-op. Cancel
// is O(1) on every tier, and no tier keeps a live-counted event behind,
// so cancel-heavy workloads never fire or count dead events.
func (ev Event) Cancel() {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.idx == idxFree {
		return
	}
	eng := e.eng
	eng.pending--
	eng.invalidate(e)
	if e.idx <= idxWheelBase {
		eng.wheel.remove(e)
		eng.recycle(e)
		return
	}
	// A run entry cannot be unlinked in O(1); mark the event dead
	// (invalidated, so handles and callbacks are gone) and let peek drop
	// the storage when it reaches the head.
	e.idx = idxDead
}

// before reports whether a fires before b: the (at, seq) total order
// the due run keeps.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}
