package cluster

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stack"
)

// stubBackend is a single-server queue with a fixed service time,
// driven purely by engine events — no simulated processes — so
// router/network behaviour can be tested in isolation.
type stubBackend struct {
	eng       *sim.Engine
	service   sim.Duration
	done      func(id int)
	started   func(id int) // optional span service-start hook
	served    int
	stopped   bool
	busyUntil sim.Time
}

func (b *stubBackend) Submit(id int) {
	b.served++
	start := b.eng.Now()
	if b.busyUntil > start {
		start = b.busyUntil
	}
	b.busyUntil = start.Add(b.service)
	if b.started != nil {
		b.eng.At(start, func() { b.started(id) })
	}
	b.eng.At(b.busyUntil, func() { b.done(id) })
}

func (b *stubBackend) Stop() { b.stopped = true }

// stubCluster wires n stub nodes with the given service times onto a
// fresh engine.
func stubCluster(t *testing.T, cfg Config, r Router, service []sim.Duration) (*Cluster, []*stubBackend) {
	t.Helper()
	eng := sim.NewEngine(1)
	c := New(eng, cfg, r)
	backends := make([]*stubBackend, len(service))
	for i, s := range service {
		i, s := i, s
		c.AddNode(nodeName(i), nil, func(done func(id int)) Backend {
			backends[i] = &stubBackend{eng: eng, service: s, done: done}
			return backends[i]
		})
	}
	return c, backends
}

func nodeName(i int) string { return string(rune('a'+i)) + "-node" }

// shardedStubCluster mirrors stubCluster over NewSharded: each stub
// backend is built on its node's own engine (NodeEngine), so it works
// for any shard count including 1.
func shardedStubCluster(t *testing.T, cfg Config, r Router, shards int, service []sim.Duration) (*Cluster, []*stubBackend) {
	t.Helper()
	c := NewSharded(cfg, r, shards, 1)
	backends := make([]*stubBackend, len(service))
	for i, s := range service {
		i, s := i, s
		c.AddNode(nodeName(i), nil, func(done func(id int)) Backend {
			backends[i] = &stubBackend{eng: c.NodeEngine(i), service: s, done: done, started: c.StartedFunc(i)}
			return backends[i]
		})
	}
	return c, backends
}

// shardNet is a network with real propagation delays in both directions
// (sharded mode derives its lookahead from them) plus finite link
// bandwidth so serialisation state is exercised across shards too.
var shardNet = Network{
	RequestLatency: 2 * sim.Millisecond,
	ReplyLatency:   3 * sim.Millisecond,
	RequestBytes:   1 << 10,
	ReplyBytes:     16 << 10,
	LinkBandwidth:  10,
}

func TestShardedMatchesSharedEngine(t *testing.T) {
	// The same fleet and workload must produce identical stats for any
	// shard count — including the end-to-end meter, per-node meters,
	// dispatch counts, and merged percentiles — and identical Elapsed.
	service := []sim.Duration{2 * sim.Millisecond, 7 * sim.Millisecond, 3 * sim.Millisecond, 5 * sim.Millisecond}
	run := func(shards int) (Stats, sim.Duration) {
		c, backends := shardedStubCluster(t, Config{Net: shardNet, SLO: 40 * sim.Millisecond, Sessions: 6},
			NewLeastOutstanding(), shards, service)
		c.Serve(&load.Bursty{Base: 200, Burst: 2000, MeanDwell: 10 * sim.Millisecond}, 120)
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if c.Completed() != 120 {
			t.Fatalf("%d shards: completed %d of 120", shards, c.Completed())
		}
		for i, b := range backends {
			if !b.stopped {
				t.Fatalf("%d shards: backend %d not stopped", shards, i)
			}
		}
		return c.Stats(), c.Elapsed()
	}
	ref, refElapsed := run(1)
	for _, shards := range []int{2, 3, 4, 7} {
		got, gotElapsed := run(shards)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d shards diverged from shared engine:\n%+v\nvs\n%+v", shards, got, ref)
		}
		if gotElapsed != refElapsed {
			t.Fatalf("%d shards elapsed %v, want %v", shards, gotElapsed, refElapsed)
		}
	}
}

func TestShardedHorizonTimesOut(t *testing.T) {
	c, _ := shardedStubCluster(t, Config{Net: shardNet}, NewRoundRobin(), 3,
		[]sim.Duration{sim.Second, sim.Second, sim.Second})
	c.Serve(&load.Replay{}, 10)
	timedOut, err := c.Run(100 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("horizon not reported")
	}
	if got := c.Stats().EndToEnd.Completed; got != 0 {
		t.Fatalf("completed %d before horizon, want 0", got)
	}
}

func TestShardedNeedsPositiveLatency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-latency sharded cluster accepted")
		}
	}()
	NewSharded(Config{Net: Network{ReplyLatency: sim.Millisecond}}, NewRoundRobin(), 2, 1)
}

// TestShardedOneShardIsSharedEngine: a one-shard NewSharded fleet with
// zero network latency (no lookahead at all) serves to completion
// exactly like New on a fresh engine with the same seed.
func TestShardedOneShardIsSharedEngine(t *testing.T) {
	service := []sim.Duration{2 * sim.Millisecond, 5 * sim.Millisecond, 3 * sim.Millisecond}
	run := func(c *Cluster) (Stats, sim.Duration) {
		if c.Shards() != 1 || c.NodeEngine(2) != c.Eng {
			t.Fatalf("shards = %d, NodeEngine(2) is Eng: %v; want every node on Eng", c.Shards(), c.NodeEngine(2) == c.Eng)
		}
		for i, d := range service {
			i, d := i, d
			c.AddNode(nodeName(i), nil, func(done func(id int)) Backend {
				return &stubBackend{eng: c.NodeEngine(i), service: d, done: done}
			})
		}
		c.Serve(&load.Bursty{Base: 200, Burst: 2000, MeanDwell: 10 * sim.Millisecond}, 60)
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if c.Completed() != 60 {
			t.Fatalf("completed %d of 60", c.Completed())
		}
		return c.Stats(), c.Elapsed()
	}
	const seed = 5
	want, wantElapsed := run(New(sim.NewEngine(seed), Config{}, NewLeastOutstanding()))
	got, gotElapsed := run(NewSharded(Config{}, NewLeastOutstanding(), 1, seed))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one-shard NewSharded stats:\n%+v\nNew:\n%+v", got, want)
	}
	if gotElapsed != wantElapsed || gotElapsed <= 0 {
		t.Fatalf("one-shard NewSharded elapsed %v, New %v", gotElapsed, wantElapsed)
	}
}

// lingeringBackend is a stubBackend whose Stop schedules one more
// event, so its engine runs on past the final reply.
type lingeringBackend struct{ *stubBackend }

func (b lingeringBackend) Stop() {
	b.stubBackend.Stop()
	b.eng.After(5*sim.Millisecond, func() {})
}

// TestElapsedRule pins the two meanings of Elapsed: one shard reports
// the engine's final clock, several shards report the instant the
// final reply reached the client.
func TestElapsedRule(t *testing.T) {
	for _, shards := range []int{1, 2} {
		c := NewSharded(Config{Net: shardNet, Spans: true}, NewRoundRobin(), shards, 1)
		for i := 0; i < 2; i++ {
			i := i
			c.AddNode(nodeName(i), nil, func(done func(id int)) Backend {
				return lingeringBackend{&stubBackend{eng: c.NodeEngine(i), service: sim.Millisecond, done: done}}
			})
		}
		c.Serve(&load.Bursty{Base: 200, Burst: 2000, MeanDwell: 10 * sim.Millisecond}, 20)
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		var lastReply sim.Time
		for _, sp := range c.Spans() {
			if sp.Reply > lastReply {
				lastReply = sp.Reply
			}
		}
		if c.Now() <= lastReply {
			t.Fatalf("%d shards: clock %v not past the final reply %v", shards, c.Now(), lastReply)
		}
		want := sim.Duration(lastReply)
		if shards == 1 {
			want = sim.Duration(c.Eng.Now())
		}
		if got := c.Elapsed(); got != want {
			t.Fatalf("%d shards: Elapsed() = %v, want %v", shards, got, want)
		}
	}
}

func TestAddNodeRejectsWrongEngine(t *testing.T) {
	// Passed through stack.System's engine check: a node system built on
	// a foreign engine must be rejected before it can race a shard.
	c := NewSharded(Config{Net: shardNet}, NewRoundRobin(), 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("node on wrong engine accepted")
		}
	}()
	wrong := &stack.System{Eng: sim.NewEngine(99)} // node 0 homes on shard 0's engine
	c.AddNode("x-node", wrong, func(done func(id int)) Backend {
		return &stubBackend{}
	})
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	c, backends := stubCluster(t, Config{}, NewRoundRobin(),
		[]sim.Duration{sim.Millisecond, sim.Millisecond, sim.Millisecond})
	c.Serve(&load.Replay{}, 9) // all at t=0
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	for i, ns := range st.Nodes {
		if ns.Dispatched != 3 {
			t.Fatalf("node %d dispatched %d, want 3", i, ns.Dispatched)
		}
	}
	if st.Imbalance != 1.0 {
		t.Fatalf("imbalance = %v, want 1.0", st.Imbalance)
	}
	if st.EndToEnd.Completed != 9 || c.Completed() != 9 {
		t.Fatalf("completed %d, want 9", st.EndToEnd.Completed)
	}
	for _, b := range backends {
		if !b.stopped {
			t.Fatal("backend not stopped after final reply")
		}
	}
}

func TestLeastOutstandingAvoidsSlowNode(t *testing.T) {
	// Node 0 is 100x slower; load-aware routing must shift work away
	// from it once its queue builds, while round-robin keeps feeding it.
	service := []sim.Duration{100 * sim.Millisecond, sim.Millisecond, sim.Millisecond}
	run := func(r Router) Stats {
		c, _ := stubCluster(t, Config{}, r, service)
		src := &load.Poisson{Rate: 2000} // 0.5 ms mean gap: queues form on the slow node
		c.Serve(src, 200)
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		return c.Stats()
	}
	lo := run(NewLeastOutstanding())
	rr := run(NewRoundRobin())
	if lo.Nodes[0].Dispatched >= rr.Nodes[0].Dispatched {
		t.Fatalf("least-outstanding fed the slow node %d, round-robin %d",
			lo.Nodes[0].Dispatched, rr.Nodes[0].Dispatched)
	}
	if lo.EndToEnd.P99 >= rr.EndToEnd.P99 {
		t.Fatalf("least-outstanding p99 %v >= round-robin %v", lo.EndToEnd.P99, rr.EndToEnd.P99)
	}
}

func TestConsistentHashPinsSessions(t *testing.T) {
	c, _ := stubCluster(t, Config{Sessions: 5}, NewConsistentHash(),
		[]sim.Duration{sim.Millisecond, sim.Millisecond, sim.Millisecond})
	seen := make(map[uint64]int) // session -> node
	// Wrap the router to observe picks.
	ch := c.Router().(*ConsistentHash)
	c.Serve(&load.Poisson{Rate: 100}, 50)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 50; id++ {
		sess := c.session(id)
		node := ch.Pick(Request{ID: id, Session: sess})
		if prev, ok := seen[sess]; ok && prev != node {
			t.Fatalf("session %d moved between nodes %d and %d", sess, prev, node)
		}
		seen[sess] = node
	}
	if len(seen) != 5 {
		t.Fatalf("sessions seen = %d, want 5", len(seen))
	}
}

func TestNetworkLatencyAndSerialisation(t *testing.T) {
	// One node, one request: end-to-end latency must be request hop +
	// service + reply hop, with serialisation added when bandwidth is
	// finite.
	net := Network{
		RequestLatency: 2 * sim.Millisecond,
		ReplyLatency:   3 * sim.Millisecond,
		RequestBytes:   1000,
		ReplyBytes:     4000,
		LinkBandwidth:  1, // 1 byte/ns: 1 µs and 4 µs serialisation
	}
	c, _ := stubCluster(t, Config{Net: net}, NewRoundRobin(), []sim.Duration{10 * sim.Millisecond})
	c.Serve(&load.Replay{}, 1)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	want := 2*sim.Millisecond + sim.Microsecond + // request hop
		10*sim.Millisecond + // service
		3*sim.Millisecond + 4*sim.Microsecond // reply hop
	got := c.Stats().EndToEnd.Max
	if got != want {
		t.Fatalf("end-to-end latency = %v, want %v", got, want)
	}
	// Node-internal view excludes the network entirely.
	if ni := c.Stats().Nodes[0].Internal.Max; ni != 10*sim.Millisecond {
		t.Fatalf("node-internal latency = %v, want 10ms", ni)
	}
}

func TestLinkSerialisesBurst(t *testing.T) {
	// Two simultaneous requests through a finite link: the second's
	// transfer queues behind the first. Zero service isolates the link.
	net := Network{RequestBytes: 1000, LinkBandwidth: 1} // 1 µs per transfer
	c, _ := stubCluster(t, Config{Net: net}, NewRoundRobin(), []sim.Duration{0})
	c.Serve(&load.Replay{}, 2) // both at t=0, same node
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	st := c.Stats().EndToEnd
	if st.Max-st.Min != sim.Microsecond {
		t.Fatalf("burst not serialised: min %v max %v", st.Min, st.Max)
	}
}

func TestClusterAggregatedPercentiles(t *testing.T) {
	// Two nodes with very different service times: the aggregated p99
	// must reflect the merged population, not either node alone.
	c, _ := stubCluster(t, Config{}, NewRoundRobin(),
		[]sim.Duration{sim.Millisecond, 100 * sim.Millisecond})
	c.Serve(&load.Poisson{Rate: 10}, 100)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	fast := st.Nodes[0].Internal.P99
	slow := st.Nodes[1].Internal.P99
	if !(st.NodeP99 > fast && st.NodeP99 <= slow) {
		t.Fatalf("aggregate p99 %v outside (%v, %v]", st.NodeP99, fast, slow)
	}
	// p50 of a 50/50 fast/slow split sits at the boundary between the
	// two populations.
	if st.NodeP50 < fast/2 || st.NodeP50 > slow {
		t.Fatalf("aggregate p50 %v implausible", st.NodeP50)
	}
}

func TestClusterDeterministicAcrossRuns(t *testing.T) {
	run := func() Stats {
		c, _ := stubCluster(t, Config{Sessions: 4}, NewLeastOutstanding(),
			[]sim.Duration{2 * sim.Millisecond, 5 * sim.Millisecond})
		c.Serve(&load.Bursty{Base: 100, Burst: 1000, MeanDwell: 20 * sim.Millisecond}, 150)
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		return c.Stats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cluster run not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

func TestHorizonTimesOutAndReportsPartial(t *testing.T) {
	c, _ := stubCluster(t, Config{}, NewRoundRobin(), []sim.Duration{sim.Second})
	c.Serve(&load.Replay{}, 10)
	timedOut, err := c.Run(100 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("horizon not reported")
	}
	if got := c.Stats().EndToEnd.Completed; got != 0 {
		t.Fatalf("completed %d before horizon, want 0", got)
	}
}

func TestImbalanceInfWhenNodeStarved(t *testing.T) {
	// Session affinity with one session pins everything to one node.
	c, _ := stubCluster(t, Config{Sessions: 1}, NewConsistentHash(),
		[]sim.Duration{sim.Millisecond, sim.Millisecond})
	c.Serve(&load.Poisson{Rate: 100}, 10)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); !math.IsInf(st.Imbalance, 1) {
		t.Fatalf("imbalance = %v, want +Inf", st.Imbalance)
	}
}

func TestTelemetryIdenticalAcrossShards(t *testing.T) {
	// Metric samples and request spans carry the same byte-identity
	// contract as Stats: any shard count must export the same rows.
	service := []sim.Duration{2 * sim.Millisecond, 7 * sim.Millisecond, 3 * sim.Millisecond}
	run := func(shards int) ([]obs.Sample, []obs.Span) {
		c, _ := shardedStubCluster(t, Config{
			Net:             shardNet,
			SLO:             40 * sim.Millisecond,
			Sessions:        6,
			MetricsInterval: 5 * sim.Millisecond,
			Spans:           true,
		}, NewLeastOutstanding(), shards, service)
		c.Serve(&load.Bursty{Base: 200, Burst: 2000, MeanDwell: 10 * sim.Millisecond}, 80)
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		// Run profiling is shard-DEPENDENT by design (event counts and
		// pdes window stats describe the execution, not the simulation) —
		// it must be populated but is excluded from the identity check.
		if c.Events() <= 0 {
			t.Fatalf("%d shards: Events() = %d", shards, c.Events())
		}
		ws := c.WindowStats()
		if shards == 1 && ws.Windows != 0 {
			t.Fatalf("one-shard run reported %d pdes windows", ws.Windows)
		}
		if shards > 1 && ws.Windows == 0 {
			t.Fatalf("%d shards: no pdes windows recorded", shards)
		}
		return c.Samples(), c.Spans()
	}
	refSamples, refSpans := run(1)
	if len(refSamples) == 0 {
		t.Fatal("no metric samples recorded")
	}
	if len(refSpans) != 80 {
		t.Fatalf("spans = %d, want 80", len(refSpans))
	}
	for _, sp := range refSpans {
		if !sp.Complete() {
			t.Fatalf("incomplete span %+v", sp)
		}
		if !(sp.Submit < sp.Arrive && sp.Arrive <= sp.Start && sp.Start <= sp.Done && sp.Done < sp.Reply) {
			t.Fatalf("span hops out of order: %+v", sp)
		}
		if sp.Network()+sp.Queue()+sp.Service() != sp.Total() {
			t.Fatalf("span hops do not cover total: %+v", sp)
		}
	}
	for _, shards := range []int{2, 3} {
		samples, spans := run(shards)
		if !reflect.DeepEqual(samples, refSamples) {
			t.Fatalf("%d shards: metric samples diverged (got %d rows, ref %d)", shards, len(samples), len(refSamples))
		}
		if !reflect.DeepEqual(spans, refSpans) {
			t.Fatalf("%d shards: spans diverged", shards)
		}
	}
}

func TestSpansRecordHopTimeline(t *testing.T) {
	// One node, pure-latency network, two simultaneous requests: the
	// first flows straight through; the second queues behind it for one
	// full service time. Every stamp is checkable by hand.
	net := Network{RequestLatency: 2 * sim.Millisecond, ReplyLatency: 3 * sim.Millisecond}
	c, _ := shardedStubCluster(t, Config{Net: net, Spans: true}, NewRoundRobin(), 1,
		[]sim.Duration{10 * sim.Millisecond})
	c.Serve(&load.Replay{}, 2) // both at t=0
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	ms := sim.Millisecond
	want := []obs.Span{
		{ID: 0, Node: "a-node", Submit: 0, Arrive: sim.Time(2 * ms), Start: sim.Time(2 * ms),
			Done: sim.Time(12 * ms), Reply: sim.Time(15 * ms), Outcome: obs.OutcomeOK, Attempts: 1},
		{ID: 1, Node: "a-node", Submit: 0, Arrive: sim.Time(2 * ms), Start: sim.Time(12 * ms),
			Done: sim.Time(22 * ms), Reply: sim.Time(25 * ms), Outcome: obs.OutcomeOK, Attempts: 1},
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
	if q := spans[1].Queue(); q != 10*ms {
		t.Fatalf("queued span Queue() = %v, want 10ms", q)
	}
	if n := spans[0].Network(); n != 5*ms {
		t.Fatalf("Network() = %v, want 5ms", n)
	}
	// A zero policy dispatches through the resilient path but leaves
	// every fault-handling counter untouched.
	if r := c.Resilience(); r != (Resilience{}) {
		t.Fatalf("Resilience() = %+v, want all zero", r)
	}
}

func TestTelemetryDisabledByDefault(t *testing.T) {
	// With telemetry off the cluster must not retain samples or spans —
	// the alloc-free default path.
	c, _ := stubCluster(t, Config{}, NewRoundRobin(), []sim.Duration{sim.Millisecond})
	c.Serve(&load.Replay{}, 3)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if c.Samples() != nil {
		t.Fatal("Samples() non-nil with metrics disabled")
	}
	if c.Spans() != nil {
		t.Fatal("Spans() non-nil with spans disabled")
	}
}

func TestLeastOutstandingSamplesDistinctCandidates(t *testing.T) {
	// Every Pick with Choices < n must examine exactly Choices DISTINCT
	// nodes: inspect the retained sample directly, and check every node
	// is reachable over many picks.
	const nodes, choices = 6, 4
	c, _ := stubCluster(t, Config{}, &LeastOutstanding{Choices: choices},
		make([]sim.Duration, nodes))
	lo := c.Router().(*LeastOutstanding)
	lo.Bind(c, sim.NewRand(123))
	picked := make(map[int]bool)
	for i := 0; i < 500; i++ {
		picked[lo.Pick(Request{ID: i})] = true
		if len(lo.sample) != choices {
			t.Fatalf("pick %d: sample size %d, want %d", i, len(lo.sample), choices)
		}
		for s := 1; s < len(lo.sample); s++ {
			if lo.sample[s] <= lo.sample[s-1] {
				t.Fatalf("pick %d: sample %v not sorted-distinct", i, lo.sample)
			}
			if lo.sample[s] >= nodes {
				t.Fatalf("pick %d: sample %v out of range", i, lo.sample)
			}
		}
	}
	// With equal outstanding everywhere, ties keep the first draw —
	// which is uniform — so every node must be reachable.
	for n := 0; n < nodes; n++ {
		if !picked[n] {
			t.Fatalf("node %d never picked across 500 samples", n)
		}
	}
}
