package pdes

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

const look = 10 * sim.Millisecond

// newGroup builds a group of n shards with the test lookahead, all
// seeded identically.
func newGroup(n int) (*Group, []*Shard) {
	g := New(look)
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = g.AddShard(sim.NewEngine(7))
	}
	return g, shards
}

func TestCrossShardDeliveryOrder(t *testing.T) {
	// Messages from several shards landing on shard 0 at identical and
	// distinct instants must fire in (at, sent, src, seq) order — the
	// sharded counterpart of the engine's (at, seq) contract.
	g, s := newGroup(3)
	var fired []string
	record := func(arg any) { fired = append(fired, arg.(string)) }

	at := sim.Time(0).Add(100 * sim.Millisecond)
	s[1].Engine().After(1*sim.Millisecond, func() {
		s[1].Send(s[0], at, record, "b-first")  // sent 1ms
		s[1].Send(s[0], at, record, "b-second") // sent 1ms, later seq
	})
	s[2].Engine().After(1*sim.Millisecond, func() {
		s[2].Send(s[0], at, record, "c-tie") // sent 1ms, src 2 > src 1
	})
	s[2].Engine().After(2*sim.Millisecond, func() {
		s[2].Send(s[0], at, record, "c-later-send")                            // sent 2ms
		s[2].Send(s[0], at.Add(-sim.Millisecond), record, "c-earlier-deliver") // earlier at wins overall
	})
	if _, err := g.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	want := []string{"c-earlier-deliver", "b-first", "b-second", "c-tie", "c-later-send"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("delivery order %v, want %v", fired, want)
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	g, s := newGroup(2)
	s[1].Engine().After(sim.Millisecond, func() {
		// Delivery less than lookahead away: conservatively unsafe.
		s[1].Send(s[0], s[1].Now().Add(look/2), func(any) {}, nil)
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation not detected")
		}
		if !strings.Contains(fmt.Sprint(r), "violates lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	g.Run(sim.Forever)
}

func TestShardPanicReachesCoordinator(t *testing.T) {
	g, s := newGroup(3)
	s[2].Engine().After(sim.Millisecond, func() { panic("boom on shard 2") })
	// Give the other shards work in the same window, so they run
	// before shard 2 does.
	s[0].Engine().After(sim.Millisecond, func() {})
	s[1].Engine().After(sim.Millisecond, func() {})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "boom on shard 2") {
			t.Fatalf("shard panic not propagated: %v", r)
		}
	}()
	g.Run(sim.Forever)
}

// TestLowestShardPanicWins: when two shards both panic in one window,
// Run re-raises the lowest-id shard's panic.
func TestLowestShardPanicWins(t *testing.T) {
	for _, tc := range []struct{ shards, worker, inline int }{
		{2, 0, 1}, {3, 0, 2}, {3, 1, 2},
	} {
		g, s := newGroup(tc.shards)
		for _, id := range []int{tc.worker, tc.inline} {
			msg := fmt.Sprintf("boom on shard %d", id)
			s[id].Engine().After(sim.Millisecond, func() { panic(msg) })
		}
		r := func() (r any) {
			defer func() { r = recover() }()
			g.Run(sim.Forever)
			return nil
		}()
		if want := fmt.Sprintf("boom on shard %d", tc.worker); fmt.Sprint(r) != want {
			t.Fatalf("%d shards: panic %v, want %q", tc.shards, r, want)
		}
	}
}

// TestProcPanicReachesCoordinator: a panic inside a proc body on a
// shard surfaces from Group.Run as the engine's proc-panic error, and
// leaves no proc current on that shard, both when shard 0 is active in
// the same window ("fan-out") and when shard 2 is the only active shard
// ("inline").
func TestProcPanicReachesCoordinator(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fanOut bool
	}{{"fan-out", true}, {"inline", false}} {
		t.Run(tc.name, func(t *testing.T) {
			g, s := newGroup(3)
			eng := s[2].Engine()
			eng.Ready(eng.Spawn("bomb", func(p *sim.Proc) {
				p.Sleep(sim.Millisecond)
				panic("boom")
			}))
			if tc.fanOut {
				s[0].Engine().After(sim.Millisecond, func() {})
			}
			r := func() (r any) {
				defer func() { r = recover() }()
				g.Run(sim.Forever)
				return nil
			}()
			if want := "sim: panic in proc 1 (bomb): boom\n"; !strings.HasPrefix(fmt.Sprint(r), want) {
				t.Fatalf("panic = %q, want prefix %q", fmt.Sprint(r), want)
			}
			if eng.Current() != nil {
				t.Fatalf("Current() = %v after proc panic, want nil", eng.Current())
			}
		})
	}
}

// waitGoroutines waits until runtime.NumGoroutine() is back to at most
// base, failing the test after a few seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunStartsNoGoroutine: a group of n shards runs every shard's
// events on the caller's goroutine — even in a window where every shard
// is active — and starts no goroutine during Run.
func TestRunStartsNoGoroutine(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		g, s := newGroup(n)
		caller := goid()
		ran := make([]string, n)
		during := make([]int, n)
		for i, sh := range s {
			i := i
			sh.Engine().After(sim.Millisecond, func() {
				ran[i] = goid()
				during[i] = runtime.NumGoroutine()
			})
		}
		base := runtime.NumGoroutine()
		if _, err := g.Run(sim.Forever); err != nil {
			t.Fatal(err)
		}
		for i := range s {
			if ran[i] != caller {
				t.Fatalf("%d shards: shard %d ran on goroutine %s, want the caller %s", n, i, ran[i], caller)
			}
			// Goroutines left by earlier tests can only exit meanwhile,
			// so any count above base means Run started one.
			if during[i] > base {
				t.Fatalf("%d shards: %d goroutines while shard %d ran, want at most %d", n, during[i], i, base)
			}
		}
	}
}

// goid returns the calling goroutine's id from its stack header
// ("goroutine N [running]:").
func goid() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// parkAcrossWindows runs two procs and an echo server as three entities
// spread over the group's shards. The parker on shard 0 alternates
// between sleeping past the window edge and parking on a ping whose
// echo readies it by cross-shard message; the ticker sleeps on a 30 ms
// grid that shares some of the parker's windows and not others. So
// across windows the parker is resumed both alongside another active
// shard and alone. The group runs to until.
func parkAcrossWindows(t *testing.T, shards int, until sim.Time) (*Group, []string) {
	t.Helper()
	g, s := newGroup(shards)
	a, b, c := s[0], s[1%shards], s[2%shards]
	var logA, logB, logC []string
	var parker *sim.Proc
	wake := func(any) { a.Engine().Ready(parker) }
	echo := func(arg any) {
		logC = append(logC, fmt.Sprintf("%v echo %v", c.Now(), arg))
		c.Engine().After(2*sim.Millisecond, func() { c.Send(a, c.Now().Add(look), wake, nil) })
	}
	parker = a.Engine().Spawn("parker", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			logA = append(logA, fmt.Sprintf("%v step %d", a.Now(), i))
			if i%2 == 0 {
				p.Sleep(3 * look)
			} else {
				a.Send(c, a.Now().Add(look), echo, i)
				p.Park()
			}
		}
	})
	a.Engine().Ready(parker)
	b.Engine().Ready(b.Engine().Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			logB = append(logB, fmt.Sprintf("%v tick %d", b.Now(), i))
			p.Sleep(3 * look)
		}
	}))
	if _, err := g.Run(until); err != nil {
		t.Fatal(err)
	}
	return g, append(append(logA, logB...), logC...)
}

func TestProcParksAcrossWindows(t *testing.T) {
	var ref []string
	for _, n := range []int{1, 2, 3} {
		g, log := parkAcrossWindows(t, n, sim.Forever)
		if g.Live() != 0 {
			t.Fatalf("%d shards: live = %d after a full run", n, g.Live())
		}
		if n == 1 {
			ref = log
			continue
		}
		if !reflect.DeepEqual(log, ref) {
			t.Fatalf("%d shards diverged:\n%v\nwant\n%v", n, log, ref)
		}
	}
}

// TestKillAllAfterHorizonReleasesGoroutines: a horizon stop leaves procs
// parked on several shards; KillAll unwinds them all, and every proc
// coroutine goroutine exits.
func TestKillAllAfterHorizonReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	g, _ := parkAcrossWindows(t, 3, sim.Time(0).Add(100*sim.Millisecond))
	if g.Live() != 2 {
		t.Fatalf("live = %d at the horizon, want both procs parked", g.Live())
	}
	g.KillAll()
	if g.Live() != 0 {
		t.Fatalf("live = %d after KillAll", g.Live())
	}
	waitGoroutines(t, base)
}

func TestDeadlockAcrossShards(t *testing.T) {
	g, s := newGroup(2)
	p := s[1].Engine().Spawn("stuck", func(p *sim.Proc) { p.Park() })
	s[1].Engine().Ready(p)
	s[0].Engine().After(sim.Millisecond, func() {}) // unrelated traffic elsewhere
	_, err := g.Run(sim.Forever)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not reported: %v", err)
	}
	if g.Live() != 1 {
		t.Fatalf("live = %d, want 1", g.Live())
	}
	g.KillAll()
	if g.Live() != 0 {
		t.Fatalf("live after KillAll = %d", g.Live())
	}
}

func TestHorizonLeavesQueuesIntact(t *testing.T) {
	g, s := newGroup(2)
	var fired int
	s[1].Engine().After(50*sim.Millisecond, func() { fired++ })
	end, hit, err := g.RunHorizon(20 * sim.Millisecond)
	if err != nil || !hit {
		t.Fatalf("end %v hit %v err %v", end, hit, err)
	}
	if fired != 0 {
		t.Fatal("event beyond horizon fired")
	}
	if got := g.Now(); got != sim.Time(0).Add(20*sim.Millisecond) {
		t.Fatalf("clocks at %v, want 20ms", got)
	}
	// A later unbounded Run picks the queue back up.
	if _, err := g.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d after resume", fired)
	}
}

// shardedPipeline runs M logical nodes spread over n shards: a client
// on shard 0 sends each node a request train; each node "serves" with a
// node-specific delay chain and replies; the client records completion
// instants. The recorded log must be identical for any shard count —
// the core shard-assignment-invariance property the cluster layer
// relies on.
func shardedPipeline(t *testing.T, shards int) []string {
	t.Helper()
	const nodes, reqs = 4, 6
	g, s := newGroup(shards)
	var log []string
	var completed int

	type node struct {
		sh   *Shard
		id   int
		busy sim.Time
	}
	ns := make([]*node, nodes)
	for i := range ns {
		ns[i] = &node{sh: s[i%shards], id: i}
	}

	// reply closes one request at the client (shard 0).
	reply := func(arg any) {
		log = append(log, fmt.Sprintf("%v %v", s[0].Now(), arg))
		completed++
	}
	// serve runs on the node's shard: FIFO queue with a deterministic
	// per-node service time, reply after lookahead.
	serve := func(arg any) {
		n := arg.(*node)
		now := n.sh.Now()
		if n.busy < now {
			n.busy = now
		}
		n.busy = n.busy.Add(sim.Duration(n.id+1) * 3 * sim.Millisecond)
		n.sh.Send(s[0], n.busy.Add(look), reply, fmt.Sprintf("node%d", n.id))
	}
	// The client fans the request train out round-robin, one request
	// per millisecond, each delivered exactly lookahead later.
	for r := 0; r < reqs; r++ {
		n := ns[r%nodes]
		s[0].Engine().AfterFunc(sim.Duration(r)*sim.Millisecond, func(arg any) {
			nd := arg.(*node)
			s[0].Send(nd.sh, s[0].Now().Add(look), serve, nd)
		}, n)
	}
	if _, err := g.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if completed != reqs {
		t.Fatalf("completed %d of %d", completed, reqs)
	}
	return log
}

func TestShardCountInvariant(t *testing.T) {
	ref := shardedPipeline(t, 1)
	for _, n := range []int{2, 3, 4} {
		if got := shardedPipeline(t, n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d shards diverged:\n%v\nwant\n%v", n, got, ref)
		}
	}
}

// TestEmptyGroupAndZeroLookahead: an empty group runs nothing; a zero
// lookahead is legal while the group has one shard (a same-instant self
// send is a plain engine event there), and a second shard then panics.
func TestEmptyGroupAndZeroLookahead(t *testing.T) {
	if end, err := New(look).Run(sim.Forever); end != 0 || err != nil {
		t.Fatalf("empty group run: %v, %v", end, err)
	}
	g := New(0)
	s := g.AddShard(sim.NewEngine(7))
	var firedAt sim.Time
	s.Engine().After(sim.Millisecond, func() {
		s.Send(s, s.Now(), func(any) { firedAt = s.Now() }, nil)
	})
	if _, err := g.Run(sim.Forever); err != nil || firedAt != sim.Time(0).Add(sim.Millisecond) {
		t.Fatalf("zero-lookahead lone shard: fired at %v, err %v", firedAt, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second shard joined a zero-lookahead group")
		}
	}()
	g.AddShard(sim.NewEngine(7))
}

// oneShardScript drives one scripted timeline on eng: timers (two of
// them cancelled), a proc that sleeps, parks, is woken by a message
// sent to its own engine, and parks for good, and a Stop with a second
// event queued at the same instant. It runs to a horizon the Stop cuts
// short, then to a horizon in the past, then with no horizon into a
// deadlock. run and send are either a bare engine's Run and AtFunc or a
// one-shard group's Run and self-Send. It returns the fired-event log
// with each run's final clock and whether it returned an error.
func oneShardScript(eng *sim.Engine, run func(sim.Time) (sim.Time, error), send func(sim.Time, func(any), any)) []string {
	var log []string
	rec := func(arg any) { log = append(log, fmt.Sprintf("%v %v", eng.Now(), arg)) }
	ms := func(n int) sim.Time { return sim.Time(0).Add(sim.Duration(n) * sim.Millisecond) }
	for i := 0; i < 6; i++ {
		ev := eng.AtFunc(ms(5*i+1), rec, fmt.Sprintf("timer %d", i))
		if i%3 == 1 {
			ev.Cancel()
		}
	}
	parker := eng.Spawn("parker", func(p *sim.Proc) {
		rec("parker sleeps")
		p.Sleep(3 * sim.Millisecond)
		rec("parker parks")
		p.Park()
		rec("parker woke")
		p.Park()
	})
	eng.Ready(parker)
	eng.At(ms(7), func() {
		rec("send")
		send(eng.Now().Add(look), func(arg any) {
			rec(arg)
			eng.Ready(parker)
		}, "wake")
	})
	eng.At(ms(12), func() {
		rec("stop")
		eng.Stop()
	})
	eng.AtFunc(ms(12), rec, "after stop")
	for _, until := range []sim.Time{ms(40), ms(5), sim.Forever} {
		end, err := run(until)
		log = append(log, fmt.Sprintf("run to %v: end %v, error %v", until, end, err != nil))
	}
	return log
}

// TestOneShardGroupIsEngine: a one-shard group is a plain engine. The
// same scripted timeline on a bare engine and on a one-shard group with
// the same seed fires the same events at the same instants, ends each
// run at the same clock with the same error presence, and the group
// counts no lockstep windows.
func TestOneShardGroupIsEngine(t *testing.T) {
	bare := sim.NewEngine(7)
	want := oneShardScript(bare, bare.Run, func(at sim.Time, fn func(any), arg any) { bare.AtFunc(at, fn, arg) })
	g, s := newGroup(1)
	got := oneShardScript(s[0].Engine(), g.Run, func(at sim.Time, fn func(any), arg any) { s[0].Send(s[0], at, fn, arg) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one-shard group:\n%s\nbare engine:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if last := want[len(want)-1]; !strings.HasSuffix(last, "error true") {
		t.Fatalf("script did not end in a deadlock: %q", last)
	}
	if ws := g.WindowStats(); ws.Windows != 0 || ws.WidthSum != 0 {
		t.Fatalf("one shard ran %d windows of total width %v, want none", ws.Windows, ws.WidthSum)
	}
}

func TestWindowStats(t *testing.T) {
	g, s := newGroup(2)
	// A ping-pong across shards: each leg forces at least one more
	// conservative window.
	var hops int
	var bounce func(arg any)
	bounce = func(arg any) {
		hops++
		if hops >= 4 {
			return
		}
		from, to := s[hops%2], s[(hops+1)%2]
		from.Send(to, from.Engine().Now().Add(look), bounce, nil)
	}
	s[1].Engine().After(look, func() { s[1].Send(s[0], s[1].Engine().Now().Add(look), bounce, nil) })
	if _, err := g.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	ws := g.WindowStats()
	if ws.Windows <= 0 {
		t.Fatalf("windows = %d", ws.Windows)
	}
	if ws.WidthSum <= 0 {
		t.Fatalf("width sum = %v", ws.WidthSum)
	}
	if len(ws.ShardEvents) != 2 {
		t.Fatalf("shard events = %v", ws.ShardEvents)
	}
	var events uint64
	for _, n := range ws.ShardEvents {
		events += n
	}
	// 1 kickoff + 4 bounce deliveries fired across the group.
	if events != 5 {
		t.Fatalf("total events = %d, want 5", events)
	}
}

// shardedDenseTimers runs the wheel's fleet workload under the
// conservative-parallel coordinator: each logical node answers requests
// by scheduling a dense burst of short-horizon grid-aligned timers (the
// slice/quantum/arrival pattern the timing wheel absorbs), cancelling a
// deterministic third of them, and folding every fire instant into a
// node-local accumulator that is shipped back to shard 0 when the burst
// settles. Burst deltas deliberately straddle the lookahead window, so
// wheel-resident timers must survive RunWindow's park-at-window-edge
// clock jumps and keep NextEventTime (the safe-window input) exact.
// The recorded log must be identical for any shard count.
func shardedDenseTimers(t *testing.T, shards int) []string {
	t.Helper()
	const nodes, reqs, burst = 4, 3, 48
	const grid = 32768 * sim.Nanosecond
	g, s := newGroup(shards)
	var log []string

	type node struct {
		sh  *Shard
		id  int
		acc uint64
		out int // burst timers still pending
	}
	ns := make([]*node, nodes)
	for i := range ns {
		ns[i] = &node{sh: s[i%shards], id: i}
	}

	reply := func(arg any) {
		log = append(log, fmt.Sprintf("%v %v", s[0].Now(), arg))
	}
	// serve schedules the dense burst on the node's shard. Deltas span
	// sub-window grid instants up to a few multiples of the lookahead,
	// so some timers are still wheel-resident when the window closes.
	serve := func(arg any) {
		n := arg.(*node)
		eng := n.sh.Engine()
		for j := 0; j < burst; j++ {
			delta := sim.Duration(j%96+1)*grid + sim.Duration(j%5)*7*sim.Millisecond
			n.out++
			ev := eng.AfterFunc(delta, func(a any) {
				nd := a.(*node)
				nd.acc = nd.acc*1099511628211 + uint64(nd.sh.Now())
				nd.out--
				if nd.out == 0 {
					nd.sh.Send(s[0], nd.sh.Now().Add(look), reply,
						fmt.Sprintf("node%d acc%x", nd.id, nd.acc))
				}
			}, n)
			if j%3 == 2 {
				ev.Cancel()
				n.out--
			}
		}
	}
	for r := 0; r < reqs; r++ {
		n := ns[r%nodes]
		s[0].Engine().AfterFunc(sim.Duration(r)*5*sim.Millisecond, func(arg any) {
			nd := arg.(*node)
			s[0].Send(nd.sh, s[0].Now().Add(look), serve, nd)
		}, n)
	}
	if _, err := g.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if len(log) != reqs {
		t.Fatalf("%d replies, want %d", len(log), reqs)
	}
	// The bursts must actually have exercised the wheel tier, not just
	// the heap: grid-scale deltas are well inside the level-0/1 horizon.
	var inserts uint64
	for _, sh := range g.Shards() {
		inserts += sh.Engine().WheelInserts()
	}
	if inserts == 0 {
		t.Fatal("dense burst never touched the timing wheel")
	}
	// A lone shard runs no lockstep windows.
	if ws := g.WindowStats(); shards > 1 && ws.Windows < 2 {
		t.Fatalf("windows = %d, want the bursts to span several lockstep windows", ws.Windows)
	}
	return log
}

func TestDenseTimersShardCountInvariant(t *testing.T) {
	ref := shardedDenseTimers(t, 1)
	for _, n := range []int{2, 4} {
		if got := shardedDenseTimers(t, n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d shards diverged:\n%v\nwant\n%v", n, got, ref)
		}
	}
}
