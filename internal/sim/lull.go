package sim

// A Lull is a stretch of a parked proc's periodic activity that the
// engine skips instead of firing: from its start the activity would
// fire at the grid instants start+a, start+a+b, start+2a+b, ... (gaps
// alternating a and b), and nothing outside it can observe those
// instants until something interacts with the proc. A busy-wait whose
// thread has its core to itself is the one user (package spin): each
// grid instant is the end of one spin burst, and each burst would cost
// two events, the burst's end and the thread's resume.
//
// The gap in flight at any moment ends at the first grid instant at or
// after the clock: at a grid instant the skipped end event would fire
// after every event already queued for it, so until anything else is
// scheduled for that instant, the activity there is still to come. The
// engine wakes the lull (runs its fn, which re-creates the activity in
// flight with a fresh event at Next) before anything could order itself
// against the skipped events:
//
//   - the guard: an event scheduled for the end of the gap in flight
//     wakes the lull before it takes its seq, so the re-created end
//     event orders before it, as the skipped one did; every event for
//     that instant scheduled before the skipped one was orders before
//     the fresh one too, so the fresh seq orders exactly as the
//     skipped one did;
//   - the end of a Run (queue drained, horizon, Stop), KillAll, and
//     Kill of the proc;
//   - any wake its owner requests (Wake, Proc.WakeLull), before it
//     interacts with the proc.
//
// Lulls woken together whose gaps end at the same instant get their
// events in the order the skipped ones were scheduled in (lullBefore).
type Lull struct {
	start Time
	a, b  Duration
	next  Time
	reg   uint64 // registration order, the tie-break of lullBefore
	on    bool
	i     int // index in the engine's lulls while on

	e   *Engine
	p   *Proc
	fn  func(any)
	arg any
}

// Lull starts l for the parked (or about to park) proc p at the current
// instant, with grid gaps a, b > 0. fn(arg) runs when the lull is woken,
// from event context or another proc's; it must re-create p's activity
// in flight (an event at Next) and must not park.
func (e *Engine) Lull(l *Lull, p *Proc, a, b Duration, fn func(any), arg any) {
	if a <= 0 || b <= 0 {
		panic("sim: Lull with a non-positive gap")
	}
	if l.on || p.lull != nil {
		panic("sim: Lull on a proc that is already lulled")
	}
	e.lullReg++
	*l = Lull{start: e.now, a: a, b: b, next: e.now.Add(a), reg: e.lullReg, on: true,
		i: len(e.lulls), e: e, p: p, fn: fn, arg: arg}
	p.lull = l
	e.lulls = append(e.lulls, l)
	e.lullNext = min(e.lullNext, l.next)
	e.lullMax = max(e.lullMax, l.next)
}

// Next returns the end of the gap in flight as last brought up to date
// (while the lull is active it may lag the clock); once woken, the
// instant for which fn re-created the activity.
func (l *Lull) Next() Time { return l.next }

// At returns grid instant k: start + ceil(k/2)·a + floor(k/2)·b.
func (l *Lull) At(k int64) Time {
	return l.start.Add(Duration((k+1)/2)*l.a + Duration(k/2)*l.b)
}

// Steps returns the index of Next on the grid (at least 1): the grid
// instants 1 .. Steps-1 are the skipped activity.
func (l *Lull) Steps() int64 { return l.index(l.next) }

// index returns k for the grid instant t.
func (l *Lull) index(t Time) int64 {
	p := Time(l.a + l.b)
	m := int64((t - l.start) / p)
	if (t-l.start)%p == 0 {
		return 2 * m
	}
	return 2*m + 1
}

// ceil returns the first grid instant after the start at or after t.
func (l *Lull) ceil(t Time) Time {
	if t <= l.start {
		return l.start.Add(l.a)
	}
	p := Time(l.a + l.b)
	d := t - l.start
	base := t - d%p
	switch r := d % p; {
	case r == 0:
		return base
	case r <= Time(l.a):
		return base + Time(l.a)
	}
	return base + p
}

// prev returns the grid instant before grid instant t > start.
func (l *Lull) prev(t Time) Time {
	if (t-l.start)%Time(l.a+l.b) == 0 {
		return t - Time(l.b)
	}
	return t - Time(l.a)
}

// Wake ends l now, together with every other lull whose gap in flight
// ends at the same instant, and runs their fns. It is a no-op on an
// inactive lull.
func (l *Lull) Wake() {
	if l.on {
		l.e.catchUp()
		l.e.wakeAt(l.next)
	}
}

// WakeLull wakes p's lull, if it has one: a caller about to interact
// with p (or with what p's lulled activity holds, such as its core)
// makes the skipped activity real first.
func (p *Proc) WakeLull() {
	if p.lull != nil {
		p.lull.Wake()
	}
}

// Lulls returns the number of active lulls.
func (e *Engine) Lulls() int { return len(e.lulls) }

// lullBefore reports whether x's skipped event for grid instant at,
// shared with y, was scheduled before y's: at the earlier previous
// instant, or at the same one after the earlier of the two skipped
// events there, and so on back. Two equal steps mean equal gap
// sequences from there back to the later start, which then is the start
// of both: a lull whose grid holds another's start instant was woken
// there by the guard, when the other's resume was scheduled for that
// instant. So registration order decides.
func lullBefore(x, y *Lull, at Time) bool {
	for i := 0; i < 2; i++ {
		px, py := x.prev(at), y.prev(at)
		if px != py {
			return px < py
		}
		if px == x.start || px == y.start {
			break
		}
		at = px
	}
	return x.reg < y.reg
}

// catchUp brings every lull's Next up to date with the clock, once the
// clock has passed the earliest of them.
func (e *Engine) catchUp() {
	if e.now <= e.lullNext {
		return
	}
	e.lullNext, e.lullMax = Forever, 0
	for _, l := range e.lulls {
		if l.next < e.now {
			l.next = l.ceil(e.now)
		}
		e.lullNext = min(e.lullNext, l.next)
		e.lullMax = max(e.lullMax, l.next)
	}
}

// guard is AtFunc's check for an event at t >= lullNext: a lull whose
// gap in flight ends at t makes its end event real first.
func (e *Engine) guard(t Time) {
	e.catchUp()
	if t >= e.lullNext && t <= e.lullMax {
		e.wakeAt(t)
	}
}

// lullSetSize is how many lulls a wake gathers without allocating.
const lullSetSize = 16

// wakeAt wakes every lull whose gap in flight ends at t.
func (e *Engine) wakeAt(t Time) {
	var buf [lullSetSize]*Lull
	set := buf[:0]
	for _, l := range e.lulls {
		if l.next == t {
			set = append(set, l)
		}
	}
	e.wakeSet(set)
}

// wakeSet ends the lulls in set and runs their fns, ordered by Next and
// then by lullBefore.
func (e *Engine) wakeSet(set []*Lull) {
	if len(set) == 0 {
		return
	}
	for _, l := range set {
		last := e.lulls[len(e.lulls)-1]
		last.i = l.i
		e.lulls[l.i] = last
		e.lulls[len(e.lulls)-1] = nil
		e.lulls = e.lulls[:len(e.lulls)-1]
		l.on = false
		l.p.lull = nil
	}
	e.lullNext, e.lullMax = Forever, 0
	for _, l := range e.lulls {
		e.lullNext = min(e.lullNext, l.next)
		e.lullMax = max(e.lullMax, l.next)
	}
	for i := 1; i < len(set); i++ {
		for j := i; j > 0; j-- {
			x, y := set[j], set[j-1]
			if x.next > y.next || (x.next == y.next && !lullBefore(x, y, x.next)) {
				break
			}
			set[j], set[j-1] = y, x
		}
	}
	for _, l := range set {
		l.fn(l.arg)
	}
}

// endLulls wakes every lull as of the instant asOf >= now, when the
// events up to asOf have all fired, so the grid instants up to asOf have
// passed; or, for asOf < 0, as of now (a Stop or KillAll inside an
// event, when the activity at now may still be to come).
func (e *Engine) endLulls(asOf Time) {
	e.catchUp()
	var buf [lullSetSize]*Lull
	set := buf[:0]
	for _, l := range e.lulls {
		if l.next <= asOf {
			l.next = l.ceil(asOf + 1)
		}
		set = append(set, l)
	}
	e.wakeSet(set)
}
