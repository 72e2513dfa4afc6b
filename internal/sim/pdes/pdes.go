// Package pdes implements conservative parallel discrete-event
// simulation (classic Chandy–Misra–Bryant lookahead synchronisation)
// over several sim.Engine shards.
//
// A Group owns N engines and advances them in lockstep safe windows: if
// every cross-shard interaction takes at least `lookahead` of virtual
// time to arrive, then all events strictly below
//
//	min(next event time across shards) + lookahead
//
// are causally independent across shards, and each shard may process
// its slice of that window without ever seeing an event from the past.
// Cross-shard interactions are timestamped messages (Shard.Send)
// buffered in per-shard outboxes during a window and exchanged at the
// barrier, so no null-message machinery is needed beyond the window
// bound itself.
//
// Determinism: window bounds derive only from queued event times (never
// host timing), each shard appends to its own outbox in its own event
// order, and the barrier injects the merged messages sorted by
// (deliverAt, sendTime, source shard, source sequence) — a total order
// that is a pure function of the simulated timeline. A Group therefore
// produces byte-identical simulations at any host parallelism, and —
// because message timestamps are the same virtual instants a single
// shared engine would have used — a sharded run reproduces the
// single-engine timeline exactly up to same-nanosecond ties between
// unrelated sends. Those ties are a known limitation, not an
// impossibility: the scenarios' continuous-time workloads and chaos's
// 32.768µs grid make them rare, but chaos_sharded at seeds 7 and 14
// still hits one (one divergent line against the one-shard run; ROADMAP
// item 1 orders such ties by simulated entity instead).
//
// A Group runs on its caller's goroutine: each window runs the active
// shards one after another in id order, so pdes adds no host
// concurrency to the deterministic core. The shards are a deterministic
// partition of the simulated fleet, not a unit of host parallelism:
// -par already fills the host cores with whole cells, and fanning each
// cell's windows out to worker goroutines on top of that was measured
// slower on every scenario.
//
// A lone shard has no peers, so a one-shard group is a plain engine:
// Run is the engine's own Run (no windows, and the engine's deadlock
// error, Stop and past-horizon behaviour), and Send schedules straight
// onto the engine. The lookahead bounds nothing there, so a zero
// lookahead is legal for a group that stays at one shard; AddShard
// refuses a second shard unless the lookahead is positive.
package pdes

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// message is one cross-shard interaction: fn(arg) runs on the
// destination shard's engine at virtual time at.
type message struct {
	at   sim.Time // delivery instant (>= sendTime + lookahead)
	sent sim.Time // source shard's clock at Send
	src  int      // source shard id
	seq  uint64   // per-source send counter (outbox order)
	dst  int
	fn   func(any)
	arg  any
}

// messageLess is the barrier's total delivery order: delivery instant,
// then send instant, then source shard, then the source's own send
// order. The first two keys make the order shard-assignment-invariant
// while no two unrelated sends share an exact nanosecond; the last two
// make it a total order regardless, but a tie they break by source shard
// may differ from the one-shard run's enqueue order. Known limitation:
// chaos_sharded's seeds 7 and 14 hit such a tie (ROADMAP item 1).
func messageLess(a, b *message) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sent != b.sent {
		return a.sent < b.sent
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// msgSlice sorts messages by messageLess. A named type with a pointer
// receiver keeps the barrier's sort allocation-free (no per-window
// closure or interface boxing).
type msgSlice []*message

func (m *msgSlice) Len() int           { return len(*m) }
func (m *msgSlice) Less(i, j int) bool { return messageLess((*m)[i], (*m)[j]) }
func (m *msgSlice) Swap(i, j int)      { (*m)[i], (*m)[j] = (*m)[j], (*m)[i] }

// Shard is one engine's membership in a Group. All access to a shard's
// engine (and to any simulation state homed on it) must happen either
// inside that engine's event context or while the group is at a
// barrier.
type Shard struct {
	g   *Group
	id  int
	eng *sim.Engine

	outbox []*message // filled by Send during a window, drained at the barrier
	free   []*message // recycled message storage (returned at the barrier)
	seq    uint64
}

// ID returns the shard's index within its group.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's engine. Simulation state homed on this
// shard must be built on (and only ever touched from) this engine.
func (s *Shard) Engine() *sim.Engine { return s.eng }

// Now returns the shard engine's current virtual time.
func (s *Shard) Now() sim.Time { return s.eng.Now() }

// Send schedules fn(arg) on dst's engine at virtual time at. It must be
// called from within s's own execution (an event callback or proc on
// s's engine), and at must respect the group's lookahead:
// at >= s.Now() + lookahead. Sends to the shard itself are legal and
// take the barrier path like any other message, except in a one-shard
// group, where every send is a plain engine event.
func (s *Shard) Send(dst *Shard, at sim.Time, fn func(any), arg any) {
	if dst.g != s.g {
		panic("pdes: Send across groups")
	}
	if min := s.eng.Now().Add(s.g.lookahead); at < min {
		panic(fmt.Sprintf("pdes: send from shard %d at %v for %v violates lookahead %v",
			s.id, s.eng.Now(), at, s.g.lookahead))
	}
	if len(s.g.shards) == 1 {
		s.eng.AtFunc(at, fn, arg)
		return
	}
	s.seq++
	var m *message
	if n := len(s.free); n > 0 {
		m = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		m = new(message)
	}
	*m = message{at: at, sent: s.eng.Now(), src: s.id, seq: s.seq,
		dst: dst.id, fn: fn, arg: arg}
	s.outbox = append(s.outbox, m)
}

// shardNext is one shard's next queued event time, read once per window.
type shardNext struct {
	s  *Shard
	at sim.Time
}

// Group is a set of engine shards advancing in conservative lockstep
// windows.
type Group struct {
	shards    []*Shard
	lookahead sim.Duration
	merged    msgSlice    // barrier scratch, reused across windows
	pending   []shardNext // window scratch: shards with queued events
	running   bool

	// windows and widthSum profile the coordinator: how many lockstep
	// windows ran and their total simulated width (see WindowStats).
	windows  int64
	widthSum sim.Duration
}

// New returns an empty group with the given lookahead — the minimum
// virtual latency of any cross-shard interaction. A lookahead that is
// not positive admits no safe window, so it is legal only while the
// group has at most one shard (see AddShard).
func New(lookahead sim.Duration) *Group {
	return &Group{lookahead: lookahead}
}

// AddShard wraps eng as the group's next shard. All shards must be
// added before the first Run. A second shard needs a positive
// lookahead.
func (g *Group) AddShard(eng *sim.Engine) *Shard {
	if g.running {
		panic("pdes: AddShard during Run")
	}
	if len(g.shards) > 0 && g.lookahead <= 0 {
		panic(fmt.Sprintf("pdes: a second shard needs a positive lookahead, have %v", g.lookahead))
	}
	s := &Shard{g: g, id: len(g.shards), eng: eng}
	g.shards = append(g.shards, s)
	return s
}

// Shards returns the group's shards in id order.
func (g *Group) Shards() []*Shard { return append([]*Shard(nil), g.shards...) }

// Live reports the total number of live procs across all shard engines.
func (g *Group) Live() int {
	n := 0
	for _, s := range g.shards {
		n += s.eng.Live()
	}
	return n
}

// Now returns the latest shard clock — the group's notion of current
// virtual time (shard clocks stay within one window of each other and
// converge at barriers).
func (g *Group) Now() sim.Time {
	var now sim.Time
	for _, s := range g.shards {
		if t := s.eng.Now(); t > now {
			now = t
		}
	}
	return now
}

// KillAll terminates every live proc on every shard (see
// sim.Engine.KillAll). Call it only at a barrier — i.e. after Run has
// returned — to abandon a timed-out simulation.
func (g *Group) KillAll() {
	for _, s := range g.shards {
		s.eng.KillAll()
	}
}

// Run advances all shards in lockstep windows until every engine's
// queue is dry (and no messages are in flight) or the next event lies
// beyond until. It returns the group's final virtual time and an error
// if the whole simulation deadlocked: procs alive somewhere but no
// shard has events and no messages are pending. Like sim.Engine.Run, a
// horizon in the past of every shard clock returns immediately. A
// one-shard group runs its engine's Run and counts no windows.
func (g *Group) Run(until sim.Time) (sim.Time, error) {
	if len(g.shards) == 0 {
		return 0, nil
	}
	g.running = true
	defer func() { g.running = false }()
	if len(g.shards) == 1 {
		return g.shards[0].eng.Run(until)
	}

	for {
		// One scan finds the safe bound and each shard's next event: no
		// shard can produce an effect on another before minNext +
		// lookahead, so every event strictly below that is independent
		// across shards.
		pending := g.pending[:0]
		var minNext sim.Time
		for _, s := range g.shards {
			if t, ok := s.eng.NextEventTime(); ok {
				if len(pending) == 0 || t < minNext {
					minNext = t
				}
				pending = append(pending, shardNext{s, t})
			}
		}
		g.pending = pending
		if len(pending) == 0 {
			break
		}
		if minNext > until {
			// Everything left is beyond the horizon: advance the clocks
			// (forward only) and leave the queues for a later Run.
			for _, s := range g.shards {
				s.eng.RunWindow(until)
			}
			return g.Now(), nil
		}
		end := minNext.Add(g.lookahead) - 1 // window is [.., minNext+lookahead)
		if end > until {
			end = until
		}
		g.windows++
		g.widthSum += end.Sub(minNext) + 1

		g.window(end)
		g.exchange()
	}

	if live := g.Live(); live > 0 {
		return g.Now(), fmt.Errorf("pdes: deadlock at %v: %d procs parked across %d shards with no pending events or messages",
			g.Now(), live, len(g.shards))
	}
	return g.Now(), nil
}

// window runs every shard with work to end, in shard-id order on the
// caller's goroutine. Shards whose next event lies beyond the window
// are skipped entirely — their clocks catch up lazily — so a fleet with
// one hot shard pays nothing for the idle ones. A panic (including a
// proc panic) propagates straight out of Run; shards run in id order,
// so the lowest-id shard's panic wins.
func (g *Group) window(end sim.Time) {
	for _, p := range g.pending {
		if p.at <= end {
			p.s.eng.RunWindow(end)
		}
	}
}

// exchange drains every shard's outbox and injects the merged messages
// into their destination engines in (at, sent, src, seq) order. Every
// buffered message is for a future window (Send enforces the
// lookahead), so injection order equals firing order at equal instants.
func (g *Group) exchange() {
	g.merged = g.merged[:0]
	for _, s := range g.shards {
		g.merged = append(g.merged, s.outbox...)
		for i := range s.outbox {
			s.outbox[i] = nil
		}
		s.outbox = s.outbox[:0]
	}
	if len(g.merged) == 0 {
		return
	}
	sort.Sort(&g.merged)
	for i, m := range g.merged {
		g.shards[m.dst].eng.AtFunc(m.at, m.fn, m.arg)
		m.fn, m.arg = nil, nil
		g.shards[m.src].free = append(g.shards[m.src].free, m)
		g.merged[i] = nil
	}
}

// WindowStats profiles a group's run so far: lockstep windows executed,
// their total simulated width, and per-shard processed-event counts.
// All three are host-timing-free, but they describe the coordination
// structure — which only exists when sharded — so they belong in run
// profiling reports, not in shard-count-invariant metric exports.
type WindowStats struct {
	// Windows counts the lockstep windows the coordinator ran.
	Windows int64
	// WidthSum is the total simulated width of those windows; divide by
	// Windows for the mean safe-window width (bounded by the lookahead).
	WidthSum sim.Duration
	// ShardEvents[i] is the number of events shard i's engine fired.
	ShardEvents []uint64
}

// WindowStats returns the group's window profile. Call it at a barrier
// (after Run returns).
func (g *Group) WindowStats() WindowStats {
	st := WindowStats{Windows: g.windows, WidthSum: g.widthSum,
		ShardEvents: make([]uint64, len(g.shards))}
	for i, s := range g.shards {
		st.ShardEvents[i] = s.eng.Processed()
	}
	return st
}

// RunHorizon drives the group with an optional horizon (non-positive
// means none), reporting whether the horizon was reached — the group
// counterpart of sim.Engine.RunHorizon.
func (g *Group) RunHorizon(horizon sim.Duration) (end sim.Time, hit bool, err error) {
	until := sim.Forever
	if horizon > 0 {
		until = g.Now().Add(horizon)
	}
	end, err = g.Run(until)
	return end, err == nil && end >= until, err
}
