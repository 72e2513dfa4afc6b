package cluster

import (
	"reflect"
	"testing"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stale-reference tests: scripted fleets with hand-placed timelines
// that put a recycled flight, a reused residency slot, or a late
// message exactly where a stale reference would do damage. Every
// instant below is distinct (no two events share a nanosecond), so each
// script runs identically at any shard count, and each test checks that
// too.

const ms = sim.Millisecond

// staleNet has distinct request and reply latencies, so a node's
// failure reply and its liveness notice (one lookahead = RequestLatency
// later) never share an instant.
var staleNet = Network{RequestLatency: ms, ReplyLatency: 3 * ms / 2}

// scriptRouter replays a fixed pick sequence, one entry per dispatch
// (first attempts, hedges, and retries alike), ignoring liveness.
type scriptRouter struct {
	picks []int
	next  int
}

func (r *scriptRouter) Name() string             { return "script" }
func (r *scriptRouter) Bind(*Cluster, *sim.Rand) {}
func (r *scriptRouter) Pick(Request) int {
	p := r.picks[r.next%len(r.picks)]
	r.next++
	return p
}

// recordingStub is a stubBackend that remembers which flight each
// submission belonged to and counts the aborts it was asked for; it
// can never actually abort, so cancelled work still finishes.
type recordingStub struct {
	*stubBackend
	node   *Node
	seen   []*flight
	aborts int
}

func (r *recordingStub) Submit(id int) {
	r.seen = append(r.seen, r.node.lookup(id))
	r.stubBackend.Submit(id)
}

func (r *recordingStub) Abort(int) bool {
	r.aborts++
	return false
}

// scriptedRun is one run of a scripted fleet.
type scriptedRun struct {
	c        *Cluster
	stubs    []*recordingStub
	stats    Stats
	res      Resilience
	spans    []obs.Span
	complete int
}

// runScripted serves the arrivals at through recording stubs with the
// given fixed service times, split over shards engines.
func runScripted(t *testing.T, cfg Config, r Router, shards int, service []sim.Duration, at []sim.Duration) scriptedRun {
	t.Helper()
	cfg.Spans = true
	c := NewSharded(cfg, r, shards, 1)
	stubs := make([]*recordingStub, len(service))
	for i, s := range service {
		i, s := i, s
		n := c.AddNode(nodeName(i), nil, func(done func(id int)) Backend {
			stubs[i] = &recordingStub{stubBackend: &stubBackend{
				eng: c.NodeEngine(i), service: s, done: done, started: c.StartedFunc(i),
			}}
			return stubs[i]
		})
		stubs[i].node = n
	}
	c.Serve(&load.Replay{At: at}, len(at))
	timedOut, err := c.Run(sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if timedOut {
		t.Fatal("scripted fleet hit the horizon")
	}
	return scriptedRun{
		c: c, stubs: stubs, stats: c.Stats(), res: c.Resilience(),
		spans: c.Spans(), complete: c.Completed(),
	}
}

// acrossShards runs the script at 1, 2, and 3 shards, requires Stats,
// Resilience, and Spans to agree, checks every run, and returns the
// one-shard run.
func acrossShards(t *testing.T, run func(shards int) scriptedRun, check func(t *testing.T, r scriptedRun)) scriptedRun {
	t.Helper()
	ref := run(1)
	check(t, ref)
	for _, shards := range []int{2, 3} {
		got := run(shards)
		if !reflect.DeepEqual(got.stats, ref.stats) {
			t.Fatalf("%d shards: stats diverge:\n%+v\nvs\n%+v", shards, got.stats, ref.stats)
		}
		if got.res != ref.res {
			t.Fatalf("%d shards: resilience diverges:\n%+v\nvs\n%+v", shards, got.res, ref.res)
		}
		if !reflect.DeepEqual(got.spans, ref.spans) {
			t.Fatalf("%d shards: spans diverge:\n%+v\nvs\n%+v", shards, got.spans, ref.spans)
		}
		check(t, got)
	}
	return ref
}

func TestLateReplyAfterSlotReuse(t *testing.T) {
	// Node 1 serves one request at a time in 1.2ms. Z (0.1ms) and A
	// (0.2ms) queue back to back; A completes at the node at 3.5ms, but
	// its deadline (4.2ms) beats its reply (5.0ms). B reaches the node at
	// 4.05ms and takes A's vacated slot under a new generation before
	// A's late reply lands. The late reply is counted and discarded, the
	// cancellation A's timeout sent reaches the node after A already
	// left it, and B completes normally.
	cfg := Config{
		Net:   staleNet,
		Retry: load.RetryPolicy{Timeout: 4 * ms, MaxAttempts: 1},
	}
	run := func(shards int) scriptedRun {
		return runScripted(t, cfg, fixedRouter{pick: 1}, shards,
			[]sim.Duration{ms, 6 * ms / 5},
			[]sim.Duration{ms / 10, ms / 5, 3*ms + ms/20})
	}
	acrossShards(t, run, func(t *testing.T, r scriptedRun) {
		if r.res.LateReplies != 1 || r.res.Timeouts != 1 || r.res.Failed != 1 || r.complete != 2 {
			t.Fatalf("resilience %+v completed %d, want 1 late reply, 1 timeout, 1 failed, 2 completed",
				r.res, r.complete)
		}
		want := []string{obs.OutcomeOK, obs.OutcomeTimeout, obs.OutcomeOK}
		for i, sp := range r.spans {
			if sp.Outcome != want[i] {
				t.Fatalf("request %d outcome %q, want %q", i, sp.Outcome, want[i])
			}
		}
		if b := r.spans[2]; b.Arrive != sim.Time(4*ms+ms/20) || b.Done != sim.Time(5*ms+ms/4) {
			t.Fatalf("B's hops %+v, want arrive 4.05ms and done 5.25ms", b)
		}
		n := r.c.nodes[1]
		if len(n.slots) != 2 || n.slots[1].gen != 2 {
			t.Fatalf("slots %+v, want 2 slots with slot 1 (A's, then B's) at generation 2", n.slots)
		}
		if r.stubs[1].aborts != 0 {
			t.Fatalf("%d aborts for a cancellation that arrived after the attempt left", r.stubs[1].aborts)
		}
	})
}

func TestOrphanCompletionAfterGenerationMoved(t *testing.T) {
	// Node 1's stub backend cannot abort and ignores crashes. A arrives
	// at 1.1ms and is still in service (until 7.1ms) when node 1 crashes
	// at 2.3ms: the cluster fails A back to the client and vacates its
	// slot. The node recovers at 4.3ms; B arrives at 6.2ms and takes the
	// same slot, queued behind A's zombie work. When the zombie finishes
	// at 7.1ms its stale handle must match nothing — it is an orphan,
	// not B's completion — and B completes at 13.1ms.
	cfg := Config{
		Net:    staleNet,
		Faults: NewFaultPlan().Crash(1, 2*ms+3*ms/10).Recover(1, 4*ms+3*ms/10),
	}
	run := func(shards int) scriptedRun {
		return runScripted(t, cfg, fixedRouter{pick: 1}, shards,
			[]sim.Duration{ms, 6 * ms},
			[]sim.Duration{ms / 10, 5*ms + ms/5})
	}
	acrossShards(t, run, func(t *testing.T, r scriptedRun) {
		if r.res.OrphanDone != 1 || r.res.Failed != 1 || r.complete != 1 {
			t.Fatalf("resilience %+v completed %d, want 1 orphan, 1 failed, 1 completed",
				r.res, r.complete)
		}
		if a := r.spans[0]; a.Outcome != obs.OutcomeFailed {
			t.Fatalf("A outcome %q, want %q", a.Outcome, obs.OutcomeFailed)
		}
		b := r.spans[1]
		if b.Outcome != obs.OutcomeOK || b.Start != sim.Time(7*ms+ms/10) || b.Done != sim.Time(13*ms+ms/10) {
			t.Fatalf("B %+v, want ok with service 7.1ms..13.1ms", b)
		}
		if n := r.c.nodes[1]; len(n.slots) != 1 || n.slots[0].gen != 2 {
			t.Fatalf("slots %+v, want one slot used by A then B (generation 2)", n.slots)
		}
		if st := r.stats.Nodes[1].Internal; st.Offered != 2 || st.Completed != 1 || st.Failed != 1 {
			t.Fatalf("node meter %+v, want 2 offered, 1 completed, 1 failed", st)
		}
	})
}

func TestCancelAfterReplyIsNoOp(t *testing.T) {
	// Two hedged requests; node 0 serves in 2.3ms, node 1 in 0.3ms.
	// A's primary goes to node 0 and its hedge (1.3ms) to node 1, which
	// wins at 4.1ms; the primary completed at node 0 at 3.4ms, so the
	// cancellation reaching node 0 at 5.1ms finds nothing to abort. C's
	// primary goes to node 1 and wins at 12.9ms while its hedge is still
	// in service on node 0: that cancellation does reach the backend,
	// which proves the no-op above is the residency check at work.
	cfg := Config{
		Net:   staleNet,
		Retry: load.RetryPolicy{HedgeDelay: 6 * ms / 5},
	}
	run := func(shards int) scriptedRun {
		return runScripted(t, cfg, &scriptRouter{picks: []int{0, 1, 1, 0}}, shards,
			[]sim.Duration{23 * ms / 10, 3 * ms / 10},
			[]sim.Duration{ms / 10, 10*ms + ms/10})
	}
	acrossShards(t, run, func(t *testing.T, r scriptedRun) {
		if r.complete != 2 || r.res.Hedges != 2 || r.res.HedgeWins != 1 ||
			r.res.Cancelled != 2 || r.res.LateReplies != 2 {
			t.Fatalf("resilience %+v completed %d, want 2 hedges, 1 hedge win, 2 cancelled, 2 late replies",
				r.res, r.complete)
		}
		if got := r.stubs[0].aborts; got != 1 {
			t.Fatalf("node 0 saw %d aborts, want 1 (C's resident hedge only)", got)
		}
		if r.spans[0].Node != nodeName(1) || r.spans[1].Node != nodeName(1) {
			t.Fatalf("winners served by %q and %q, want %q", r.spans[0].Node, r.spans[1].Node, nodeName(1))
		}
	})
}

func TestHedgeLoserAndRetriesRecycleFlights(t *testing.T) {
	// Request 0's primary is slow (node 0, 10ms); its hedge wins on node
	// 1 and the primary is cancelled but still finishes — a late reply.
	// The winning hedge's flight is recycled at its reply. Request 1
	// then bounces twice off crashed node 2 and succeeds on node 1 at
	// its third attempt: the first attempt reuses the hedge's flight,
	// the second needs a fresh one (the first is still the request's
	// last failure), and the third reuses the first again once the
	// second replaced it.
	cfg := Config{
		Net: staleNet,
		Retry: load.RetryPolicy{
			Timeout:     8 * ms,
			MaxAttempts: 4,
			BaseBackoff: ms,
			MaxBackoff:  4 * ms,
			HedgeDelay:  27 * ms / 10,
		},
		Faults: NewFaultPlan().Crash(2, ms/20),
	}
	run := func(shards int) scriptedRun {
		return runScripted(t, cfg, &scriptRouter{picks: []int{0, 1, 2, 2, 1}}, shards,
			[]sim.Duration{10 * ms, ms, ms},
			[]sim.Duration{ms / 10, 20*ms + ms/10})
	}
	acrossShards(t, run, func(t *testing.T, r scriptedRun) {
		if r.complete != 2 || r.res.Hedges != 1 || r.res.HedgeWins != 1 || r.res.Cancelled != 1 ||
			r.res.LateReplies != 1 || r.res.Retries != 2 || r.res.Failed != 0 {
			t.Fatalf("resilience %+v completed %d, want 1 hedge win, 1 cancel, 1 late reply, 2 retries",
				r.res, r.complete)
		}
		if sp := r.spans[1]; sp.Attempts != 3 || sp.Node != nodeName(1) || sp.Outcome != obs.OutcomeOK {
			t.Fatalf("request 1 span %+v, want 3 attempts ending ok on %s", sp, nodeName(1))
		}
		seen := r.stubs[1].seen
		if len(seen) != 2 || seen[0] != seen[1] {
			t.Fatalf("node 1 saw flights %p, want request 0's hedge flight reused by request 1's third attempt", seen)
		}
		if r.stubs[0].seen[0] == seen[0] {
			t.Fatal("the cancelled primary's flight was recycled")
		}
	})
}

// peakSource wraps a source and tracks how many submitted requests are
// unresolved at once (submitted, Completed not yet called).
type peakSource struct {
	load.Source
	live, peak int
}

func (p *peakSource) Start(eng *sim.Engine, rng *sim.Rand, n int, submit func(id int)) {
	p.Source.Start(eng, rng, n, func(id int) {
		if p.live++; p.live > p.peak {
			p.peak = p.live
		}
		submit(id)
	})
}

func (p *peakSource) Completed(id int) {
	p.live--
	p.Source.Completed(id)
}

func TestRequestStatesBoundedByPeakUnresolved(t *testing.T) {
	// Request state is recycled the moment a request resolves, so a run
	// of retries, hedges, timeouts, sheds, and crash failures allocates
	// no more states than it ever had requests unresolved at once, and
	// ends with every state back on the free list.
	const reqs = 800
	for _, spans := range []bool{false, true} {
		for _, shards := range []int{1, 2} {
			cfg := faultFleetConfig()
			cfg.Spans = spans
			c := NewSharded(cfg, NewLeastOutstanding(), shards, 5)
			for i := 0; i < 3; i++ {
				c.AddSimNode(nodeName(i), SimServiceConfig{
					Workers: 2, QueueCap: 8, MeanService: 8 * tq, Quantum: tq,
				})
			}
			src := &peakSource{Source: &load.PhasedPoisson{Rate: 16000, Quantum: tq}}
			c.Serve(src, reqs)
			if timedOut, err := c.Run(2 * sim.Second); err != nil || timedOut {
				t.Fatalf("run: timed out %v, %v", timedOut, err)
			}
			res := c.Resilience()
			if res.Retries == 0 || res.Hedges == 0 || res.Timeouts == 0 || res.Failed == 0 {
				t.Fatalf("resilience machinery under-exercised: %+v", res)
			}
			if n := len(c.states); n == 0 || n > src.peak || n >= reqs {
				t.Fatalf("spans %v, %d shards: %d request states allocated for a peak of %d unresolved of %d",
					spans, shards, n, src.peak, reqs)
			}
			if len(c.spareStates) != len(c.states) || src.live != 0 {
				t.Fatalf("spans %v, %d shards: %d of %d states back on the free list, %d requests unresolved",
					spans, shards, len(c.spareStates), len(c.states), src.live)
			}
			if (c.spans != nil) != spans {
				t.Fatalf("span table allocated %v with Config.Spans %v", c.spans != nil, spans)
			}
		}
	}
}
