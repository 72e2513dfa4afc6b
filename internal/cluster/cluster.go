// Package cluster turns the simulator from one machine into a fleet: a
// Cluster owns several named Nodes — each a complete simulated system
// (stack.System) with its own kernel, glibc, and USF state — in one
// deterministic virtual timeline, so a whole multi-node serving estate
// runs as a single simulation.
//
// Arrivals come from a load.Source, a Router picks the serving node per
// request, and a Network cost model charges per-hop latency plus
// optional per-link serialisation. Latency is metered end to end
// (network + queue + service) on a cluster meter and per node on
// node-internal meters; node populations aggregate into cluster-wide
// percentiles by merging their fixed-memory sketches.
//
// Determinism: nodes that share an engine do not share RNG namespaces —
// each stack.System draws from its own seed (stack.NewOnEngine),
// routing draws from the client engine's "cluster/router" stream, and
// arrivals from "cluster/client" — so any cluster run is
// byte-reproducible for any host parallelism.
//
// # Shards
//
// Every fleet is a pdes.Group of engine shards (sim/pdes): the client,
// router, and end-to-end meter live on shard 0, node i on shard i%N. A
// node that shares shard 0 with the client is reached by a local timer;
// every other router→node dispatch and node→client reply crosses shards
// as a timestamped pdes message. The network's per-hop propagation
// delay is the lookahead — every cross-shard interaction pays at least
// one hop — so safe windows need no machinery beyond the barrier. New
// builds a one-shard group, which is a plain engine run; NewSharded
// adds more shards. All timestamps (arrival at the node, completion,
// reply arrival) are the same virtual instants at any shard count, so
// tables are byte-identical for any N. Each piece of cluster state has
// a home shard: routing state, flights, request links, and the
// end-to-end meter on shard 0; each node's meter, reply link, and
// in-flight set on its own shard.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sim/pdes"
	"repro/internal/stack"
)

// Backend is a node's serving workload: a resident service (e.g.
// inference.Service) that accepts routed requests and reports each
// completion through the callback it was constructed with. Stop drains
// it after the last completion so the engines can run dry.
type Backend interface {
	// Submit delivers request id to the node. Called in event context at
	// the simulated instant the request reaches the node.
	Submit(id int)
	// Stop drains the backend: all resident service processes exit once
	// in-flight work finishes.
	Stop()
}

// Node is one named machine of the fleet.
type Node struct {
	// Name identifies the node (tables, consistent-hash ring).
	Name string
	// Sys is the node's fully wired simulated system.
	Sys *stack.System

	backend Backend
	// meter measures node-internal latency: arrival at the node to
	// completion at the node, excluding the network.
	meter            *load.Meter
	reqLink, repLink link
	outstanding      int
	dispatched       int

	// eng is the engine of the node's shard, where the node's state is
	// homed: the backend, node meter, reply link, and inflight set are
	// touched only in this engine's event context.
	eng   *sim.Engine
	shard *pdes.Shard
	// reg scrapes the node-homed telemetry (node meter, kernel) on the
	// node's own engine; nil when metrics are off.
	reg *obs.Registry
	// inflight tracks attempts between arrival at the node and
	// completion, keyed by attempt id.
	inflight map[int]*flight
	// dead marks the node crashed (fault layer); node-engine-owned.
	// Arrivals at a dead node bounce straight back as failures.
	dead bool
	// orphans counts backend completions for unknown attempt ids
	// (cancelled or crashed work finishing on backends that cannot
	// abort); node-engine-owned, summed at Stats time.
	orphans int
}

// Outstanding returns the node's dispatched-but-unreplied request count
// (the signal load-aware routers balance on).
func (n *Node) Outstanding() int { return n.outstanding }

// Dispatched returns how many requests the router sent to this node.
func (n *Node) Dispatched() int { return n.dispatched }

// Meter returns the node-internal latency meter.
func (n *Node) Meter() *load.Meter { return n.meter }

// Config parameterises a cluster.
type Config struct {
	// Net is the communication cost model.
	Net Network
	// SLO is the end-to-end latency objective; node meters judge their
	// node-internal latencies against it too. Zero disables SLO
	// accounting.
	SLO sim.Duration
	// Sessions is the number of distinct session keys arrivals cycle
	// through (request id modulo Sessions), the affinity unit for
	// session-aware routing. Non-positive gives every request its own
	// session.
	Sessions int
	// MetricsInterval, when positive, attaches a deterministic obs
	// scraper to every engine: per-node meter and kernel series on each
	// node's engine, the end-to-end meter plus per-node outstanding and
	// router-pick counts on the client engine. Samples are keyed by
	// simulated time, so the export is byte-identical for any host
	// parallelism or shard count. Zero (the default) disables scraping
	// entirely; the instrumented paths then cost nothing.
	MetricsInterval sim.Duration
	// Spans, when true, records one obs.Span per request — the five
	// hop instants of the client → node → reply path — retrievable via
	// Spans after the run. Off by default; disabled span stamping is a
	// nil check.
	Spans bool
	// Retry is the client edge's resilience policy: per-attempt
	// deadlines, capped-backoff retries under an optional token-bucket
	// budget, and optional hedging. The zero value sends each request
	// exactly once, with no deadline and no hedge.
	Retry load.RetryPolicy
	// Faults, when non-nil, is the deterministic fault schedule
	// installed at Serve (see FaultPlan).
	Faults *FaultPlan
	// Health enables passive outlier ejection at the client edge. The
	// zero value never ejects a node.
	Health HealthConfig
}

// flight is one attempt's routing state, reused across its network
// hops. Under a zero RetryPolicy a request is exactly one attempt, and
// because sources number requests in arrival order, aid == rid. Field
// ownership is disciplined for sharded runs: rid, aid, node, hedge, and
// c are immutable after dispatch; closed and timeoutEv are touched only
// on the client engine; arrive, start, and done only on the node engine
// until the reply (or failure) message hands the flight back to the
// client, which is a causal transfer.
type flight struct {
	c *Cluster
	// rid is the request id (client meter, spans, sources).
	rid int
	// aid is the attempt id (node in-flight map and node meter key).
	aid  int
	node int
	// hedge marks the attempt as the hedged second copy.
	hedge bool
	// closed marks the attempt resolved at the client edge (reply seen,
	// failed, timed out, or cancelled); set exactly once.
	closed bool
	// returned marks that the node handed the flight back to the client
	// in a reply or failure message — only then are the node-side hop
	// stamps below causally transferred and safe to read at the client.
	// A timed-out attempt is never returned: its stamps may still be
	// being written on the node engine at the timeout instant, so span
	// stamping must skip them to stay deterministic under sharding.
	returned bool
	// timeoutEv is the pending per-attempt deadline timer.
	timeoutEv sim.Event
	// arrive, start, and done buffer the node-side hop instants; the
	// winning attempt's values are copied into the request's span when
	// it resolves, so every span is stamped by the same rule.
	arrive, start, done sim.Time
}

// Cluster is a fleet of nodes behind a router, spread over the shards
// of a pdes.Group: one shard when built with New, several in
// conservative lockstep when built with NewSharded.
type Cluster struct {
	// Eng is the client-edge engine, shard 0's: arrivals, routing, and
	// end-to-end metering run here, and so does every node at one shard.
	Eng *sim.Engine

	cfg    Config
	router Router
	nodes  []*Node
	meter  *load.Meter // end-to-end: submission to reply arrival

	group  *pdes.Group
	shards []*pdes.Shard // shards[0] is the client edge's home

	src       load.Source
	total     int
	completed int
	doneAt    sim.Time // instant the final reply arrived
	served    bool
	// finished marks the teardown done (all requests resolved).
	finished bool

	// look is the one-hop network lookahead — min(request, reply
	// latency) — the group's lookahead and the delay of liveness
	// notifications at any shard count, so their instants agree.
	look sim.Duration

	// Resilience state, client-engine-owned. rs is per-request state
	// (indexed by rid), allocated at Serve; hstate is the client edge's
	// per-node liveness view, grown by AddNode. Under a zero policy it
	// stays idle: one attempt per request, every node live.
	rs         []rstate
	hstate     []healthState
	res        Resilience
	nextAid    int
	failedReqs int
	// healthEpoch advances on every liveness change; liveNodes counts
	// currently routable nodes.
	healthEpoch uint64
	liveNodes   int
	// ejectedCount tracks concurrently ejected nodes against the
	// HealthConfig.MaxEjected storm guard.
	ejectedCount int
	retryRand    *sim.Rand

	// clientReg scrapes client-edge telemetry (end-to-end meter,
	// per-node outstanding/picks); nil when metrics are off.
	clientReg *obs.Registry
	// spans holds one Span per request id when Config.Spans is set;
	// nil otherwise. The slice is preallocated at Serve and each field
	// is written exactly once, on the engine the corresponding path
	// stage is homed on — causally ordered by the request itself, so
	// the writes are race-free under sharding too.
	spans []obs.Span
}

// New builds an empty cluster on eng, which becomes shard 0 of a
// one-shard group: every node lives on eng too, and Run is a plain
// engine run. Add nodes, then call Serve.
func New(eng *sim.Engine, cfg Config, r Router) *Cluster {
	look := cfg.Net.RequestLatency
	if cfg.Net.ReplyLatency < look {
		look = cfg.Net.ReplyLatency
	}
	g := pdes.New(look)
	return &Cluster{
		Eng:    eng,
		cfg:    cfg,
		router: r,
		meter:  load.NewMeter(cfg.SLO),
		look:   look,
		group:  g,
		shards: []*pdes.Shard{g.AddShard(eng)},
	}
}

// NewSharded builds a cluster spread over `shards` engines advanced in
// conservative lockstep (see the package comment): New on a fresh
// engine as shard 0, the client edge's home, plus shards 1..shards−1;
// node i lives on shard i%shards. Build each node's stack.System on
// NodeEngine(i), not on Eng. Every shard engine derives from the same
// seed — only the client shard consumes engine RNG streams, and node
// systems root their streams at their own seeds — so the simulated
// timeline is byte-identical for any shard count. A shard count below
// two gives one shard.
//
// The cross-shard lookahead is min(RequestLatency, ReplyLatency) —
// every cross-shard interaction is a network hop — so more than one
// shard needs a positive propagation delay in both directions (pdes
// panics otherwise).
func NewSharded(cfg Config, r Router, shards int, seed uint64) *Cluster {
	c := New(sim.NewEngine(seed), cfg, r)
	for i := 1; i < shards; i++ {
		c.shards = append(c.shards, c.group.AddShard(sim.NewEngine(seed)))
	}
	return c
}

// NodeEngine returns the engine node index i will live on: shard
// i%Shards(). Build node i's stack.System on this engine before
// AddNode.
func (c *Cluster) NodeEngine(i int) *sim.Engine {
	return c.shards[i%len(c.shards)].Engine()
}

// Shards reports the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Now returns the cluster's current virtual time: the latest shard
// clock.
func (c *Cluster) Now() sim.Time { return c.group.Now() }

// Elapsed returns the run's virtual duration for reporting: the final
// clock, except that a completed run over several shards reports the
// instant the final reply reached the client. There, teardown drains
// remote shards one lookahead later, which is coordination bookkeeping
// rather than workload, so the reply instant is the value that is
// invariant across shard counts. One shard keeps the final clock, the
// value its tables have always reported: work still draining after the
// final reply moves it past the reply instant in 9 of the 24 chaos
// cells of the scenario benchmark and in all 36 `uschedsim cluster
// -quick` cells, and the benchmark's golden fingerprints hash
// ChaosCell.Elapsed, so one meaning for both would change them.
func (c *Cluster) Elapsed() sim.Duration {
	if len(c.shards) > 1 && c.served && c.finished {
		return sim.Duration(c.doneAt)
	}
	return sim.Duration(c.group.Now())
}

// Router returns the cluster's routing policy.
func (c *Cluster) Router() Router { return c.router }

// Nodes returns the fleet in registration order.
func (c *Cluster) Nodes() []*Node { return append([]*Node(nil), c.nodes...) }

// Meter returns the cluster's end-to-end meter.
func (c *Cluster) Meter() *load.Meter { return c.meter }

// AddNode registers a node and builds its backend. newBackend receives
// the completion callback the backend must invoke exactly once per
// submitted request (at the completion instant, in any context).
func (c *Cluster) AddNode(name string, sys *stack.System, newBackend func(done func(id int)) Backend) *Node {
	if c.served {
		panic("cluster: AddNode after Serve")
	}
	for _, n := range c.nodes {
		if n.Name == name {
			// Names seed the consistent-hash ring; a duplicate would
			// silently collapse both nodes onto one arc.
			panic("cluster: duplicate node name " + name)
		}
	}
	ni := len(c.nodes)
	n := &Node{
		Name: name, Sys: sys, meter: load.NewMeter(c.cfg.SLO),
		eng:      c.NodeEngine(ni),
		shard:    c.shards[ni%len(c.shards)],
		inflight: make(map[int]*flight),
	}
	if sys != nil && sys.Eng != n.eng {
		// A node system built on the wrong engine would run on a foreign
		// shard's timeline — events would fire under another shard's
		// clock, outside the window bounds that order them.
		panic("cluster: node " + name + " system not built on NodeEngine(" + fmt.Sprint(ni) + ")")
	}
	c.nodes = append(c.nodes, n)
	c.hstate = append(c.hstate, healthState{c: c, ni: ni})
	c.liveNodes++
	n.backend = newBackend(func(id int) { c.nodeDone(ni, id) })
	return n
}

// StartedFunc returns the service-start span hook for node index ni:
// the node's backend should call it (if non-nil) with the request id at
// the instant service begins, in the node engine's event context. Nil
// when spans are off, so backends pay only a nil check. Valid once the
// node has been added.
func (c *Cluster) StartedFunc(ni int) func(id int) {
	if !c.cfg.Spans {
		return nil
	}
	n := c.nodes[ni]
	return func(id int) {
		f := n.inflight[id]
		if f != nil {
			f.start = n.eng.Now()
		}
	}
}

// session maps a request id to its session key.
func (c *Cluster) session(id int) uint64 {
	if c.cfg.Sessions > 0 {
		return uint64(id % c.cfg.Sessions)
	}
	return uint64(id)
}

// Serve starts the arrival process: n requests from src are routed into
// the fleet. Call once, after every AddNode; then drive the engine with
// Run.
func (c *Cluster) Serve(src load.Source, n int) {
	if c.served {
		panic("cluster: Serve called twice")
	}
	if len(c.nodes) == 0 {
		panic("cluster: Serve with no nodes")
	}
	c.served = true
	c.src = src
	c.total = n
	if c.cfg.Spans {
		c.spans = make([]obs.Span, n)
		for i := range c.spans {
			c.spans[i].ID = i
		}
	}
	c.rs = make([]rstate, n)
	if c.cfg.Faults != nil {
		c.cfg.Faults.install(c)
	}
	if c.cfg.MetricsInterval > 0 {
		c.startObs()
	}
	c.router.Bind(c, c.Eng.Rand("cluster/router"))
	src.Start(c.Eng, c.Eng.Rand("cluster/client"), n, c.submit)
}

// startObs builds and starts the scrape registries: one on the client
// engine for client-homed state, one per node on the node's engine.
// Every series lives on the engine that mutates it, so sampled values
// at any instant are identical for any shard count.
func (c *Cluster) startObs() {
	c.clientReg = obs.New(c.Eng, "client", c.cfg.MetricsInterval)
	obs.ObserveMeter(c.clientReg, "client", "e2e", c.meter)
	for _, n := range c.nodes {
		n := n
		c.clientReg.GaugeNode("router/outstanding", n.Name, func() float64 { return float64(n.outstanding) })
		c.clientReg.GaugeNode("router/picks", n.Name, func() float64 { return float64(n.dispatched) })
	}
	c.clientReg.Start()
	for _, n := range c.nodes {
		n.reg = obs.New(n.eng, n.Name, c.cfg.MetricsInterval)
		obs.ObserveMeter(n.reg, n.Name, "meter", n.meter)
		if n.Sys != nil {
			obs.ObserveKernel(n.reg, n.Name, n.Sys.K)
		}
		n.reg.Start()
	}
}

// regStop carries a registry-stop: stop scraping, trim samples past
// the shard-invariant cutoff (the final-completion instant).
type regStop struct {
	reg    *obs.Registry
	cutoff sim.Time
}

func stopReg(arg any) {
	rs := arg.(*regStop)
	rs.reg.Stop(rs.cutoff)
}

// stopObs ends scraping after the final reply: local registries stop at
// the completion instant; remote ones one lookahead later (the earliest
// safe instant), with the completion instant as the sample cutoff so
// the exported rows are identical either way.
func (c *Cluster) stopObs(now sim.Time) {
	if c.clientReg == nil {
		return
	}
	c.clientReg.Stop(now)
	for _, n := range c.nodes {
		c.hop(n, true, teardown, stopReg, &regStop{reg: n.reg, cutoff: now})
	}
}

// teardown is the hop delay of an end-of-run notice: it runs at once on
// a node that shares the client's engine and one lookahead later on a
// remote shard, the earliest safe instant.
const teardown sim.Duration = -1

// hop carries fn(arg) across node n's router↔node link — toward the
// node when toNode, back to the client edge otherwise — to fire d after
// the sender's current instant. When both ends share an engine it is a
// local timer; across shards it is a pdes message for the same instant,
// and every hop delay is at least one network latency, so it satisfies
// the lookahead by construction.
func (c *Cluster) hop(n *Node, toNode bool, d sim.Duration, fn func(any), arg any) {
	if n.eng == c.Eng {
		if d == teardown {
			fn(arg)
		} else {
			c.Eng.AfterFunc(d, fn, arg)
		}
		return
	}
	if d == teardown {
		d = c.look
	}
	from, to := n.shard, c.shards[0]
	if toNode {
		from, to = to, from
	}
	from.Send(to, from.Now().Add(d), fn, arg)
}

// submit admits one arrival: meter it, feed the retry budget, and hand
// it to dispatch, which owns routing, deadlines, and hedging. Runs on
// the client engine.
func (c *Cluster) submit(id int) {
	now := c.Eng.Now()
	c.meter.Submitted(id, now)
	if c.cfg.Retry.Budget != nil {
		c.cfg.Retry.Budget.Deposit()
	}
	if c.spans != nil {
		c.spans[id].Submit = now
	}
	c.dispatch(id, false)
}

// deliverFlight is the attempt's arrival at its node. Runs on the
// node's engine. Arrivals at a crashed node bounce straight back as
// failure replies.
func deliverFlight(arg any) {
	f := arg.(*flight)
	c := f.c
	n := c.nodes[f.node]
	now := n.eng.Now()
	if n.dead {
		c.sendFail(n, f)
		return
	}
	n.inflight[f.aid] = f
	n.meter.Submitted(f.aid, now)
	f.arrive = now
	n.backend.Submit(f.aid)
}

// nodeDone is the backend completion callback: meter the node-internal
// latency and send the reply back across the link. Runs on the node's
// engine. A completion for an unknown attempt id is cancelled or
// crashed-away work finishing on a backend that cannot abort; it is
// counted and discarded when the config can abandon attempts, and is a
// bookkeeping bug — a hard panic — when it cannot.
func (c *Cluster) nodeDone(ni, id int) {
	n := c.nodes[ni]
	now := n.eng.Now()
	f := n.inflight[id]
	if f == nil || f.node != ni {
		if !c.cfg.abandons() {
			panic(fmt.Sprintf("cluster: node %d completed unknown request %d", ni, id))
		}
		n.orphans++
		return
	}
	n.meter.Completed(id, now)
	f.done = now
	delete(n.inflight, id)
	d := n.repLink.delay(now, c.cfg.Net.ReplyLatency, c.cfg.Net.ReplyBytes, c.cfg.Net.LinkBandwidth)
	c.hop(n, false, d, replyFlight, f)
}

// maybeFinish tears the fleet down once every request has resolved —
// completed end to end or permanently failed: backends stop (remote
// ones a lookahead later) and scraping ends at the resolution instant.
func (c *Cluster) maybeFinish(now sim.Time) {
	if c.finished || c.completed+c.failedReqs != c.total {
		return
	}
	c.finished = true
	c.doneAt = now
	for _, n := range c.nodes {
		c.hop(n, true, teardown, stopNode, n)
	}
	c.stopObs(now)
}

// stopNode drains one node's backend in its home engine's context.
func stopNode(arg any) { arg.(*Node).backend.Stop() }

// Completed reports how many requests finished end to end.
func (c *Cluster) Completed() int { return c.completed }

// Run drives the fleet to completion with a horizon (zero means none);
// it reports whether the horizon was hit and tears the whole fleet down
// in that case, exactly like stack.System.Run does for one machine.
// Several shards advance in lockstep windows; the caller still sees one
// blocking call with the same contract.
func (c *Cluster) Run(horizon sim.Duration) (timedOut bool, err error) {
	_, hit, err := c.group.RunHorizon(horizon)
	if err != nil {
		return false, err
	}
	if hit && (c.completed+c.failedReqs < c.total || c.group.Live() > 0) {
		c.group.KillAll()
		if c.served && !c.finished {
			c.abandon(horizon)
		}
		return true, nil
	}
	if c.served && c.completed+c.failedReqs < c.total {
		// The engines ran dry before the horizon with requests missing:
		// a backend lost a request (done not called) — surface it
		// rather than letting partial stats pass as a clean run.
		return false, fmt.Errorf("cluster: engine ran dry with %d of %d requests completed (%d failed)",
			c.completed, c.total, c.failedReqs)
	}
	return false, nil
}

// abandon cleans up a horizon-abandoned run so its telemetry ends in a
// well-defined state: scraping stops at the horizon instant (the same
// shard-invariant cutoff for any shard count), metered in-flight work
// is recorded as failed, and unresolved spans are stamped with the
// abandoned outcome instead of being left as zero rows. Runs from host
// context after KillAll: every engine is quiescent.
func (c *Cluster) abandon(horizon sim.Duration) {
	cutoff := sim.Time(0).Add(horizon)
	if c.clientReg != nil {
		c.clientReg.Stop(cutoff)
		for _, n := range c.nodes {
			n.reg.Stop(cutoff)
		}
	}
	c.meter.FailAll(cutoff)
	for _, n := range c.nodes {
		n.meter.FailAll(cutoff)
	}
	if c.spans != nil {
		for i := range c.spans {
			sp := &c.spans[i]
			if sp.Reply > 0 || sp.Outcome != "" {
				continue
			}
			sp.Outcome = obs.OutcomeAbandoned
			rs := &c.rs[i]
			sp.Attempts = rs.attempts
			if f := rs.primary; f != nil {
				sp.Node = c.nodes[f.node].Name
				sp.Arrive, sp.Start, sp.Done = f.arrive, f.start, f.done
			}
		}
	}
}

// Samples returns the scraped telemetry rows merged across every
// registry (client edge plus one per node) in canonical (At, Node,
// Series) order. Empty when Config.MetricsInterval was zero. Call after
// Run returns — at a barrier, so remote registries are quiescent.
func (c *Cluster) Samples() []obs.Sample {
	if c.clientReg == nil {
		return nil
	}
	groups := make([][]obs.Sample, 0, len(c.nodes)+1)
	groups = append(groups, c.clientReg.Samples())
	for _, n := range c.nodes {
		groups = append(groups, n.reg.Samples())
	}
	return obs.MergeSamples(groups...)
}

// Spans returns the per-request hop timelines in request-id order, or
// nil when Config.Spans was false. Call after Run returns.
func (c *Cluster) Spans() []obs.Span { return c.spans }

// Events reports the total events fired across the fleet's engines, for
// run profiling. Host-side bookkeeping: the count depends on shard
// count (coordination events), so it belongs in profiling reports, not
// in shard-invariant metric exports.
func (c *Cluster) Events() int64 {
	var total int64
	for _, s := range c.shards {
		total += int64(s.Engine().Processed())
	}
	return total
}

// WindowStats reports the run's conservative-window profile (no
// windows at one shard). Like Events, this is profiling data — windows
// only exist across shards.
func (c *Cluster) WindowStats() pdes.WindowStats { return c.group.WindowStats() }

// NodeStats is one node's slice of a cluster run.
type NodeStats struct {
	Name string
	// Dispatched counts requests the router sent here.
	Dispatched int
	// Internal is the node-internal view: arrival at the node to
	// completion at the node, network excluded.
	Internal load.MeterStats
}

// Stats is a snapshot of a cluster run.
type Stats struct {
	// EndToEnd covers submission to reply arrival: network + queueing +
	// service.
	EndToEnd load.MeterStats
	// Resilience counts the run's fault-handling activity (all zero
	// when no retry policy, fault plan, or health config was set).
	Resilience Resilience
	// Nodes holds per-node views in registration order.
	Nodes []NodeStats
	// NodeP50/P95/P99/P999 are the cluster-aggregated node-internal
	// percentiles: every node's latency population merged into one
	// sketch (metrics.Sketch.Merge), NOT an average of per-node
	// percentiles.
	NodeP50, NodeP95, NodeP99, NodeP999 sim.Duration
	// Imbalance is max/min requests dispatched across nodes (1.0 is a
	// perfect split; +Inf when a node got nothing).
	Imbalance float64
}

// Stats snapshots the cluster's meters.
func (c *Cluster) Stats() Stats {
	st := Stats{EndToEnd: c.meter.Stats(), Resilience: c.Resilience()}
	var agg metrics.Sketch
	minD, maxD := -1, 0
	for _, n := range c.nodes {
		st.Nodes = append(st.Nodes, NodeStats{
			Name:       n.Name,
			Dispatched: n.dispatched,
			Internal:   n.meter.Stats(),
		})
		n.meter.MergeInto(&agg)
		if minD < 0 || n.dispatched < minD {
			minD = n.dispatched
		}
		if n.dispatched > maxD {
			maxD = n.dispatched
		}
	}
	st.NodeP50 = agg.Quantile(0.50)
	st.NodeP95 = agg.Quantile(0.95)
	st.NodeP99 = agg.Quantile(0.99)
	st.NodeP999 = agg.Quantile(0.999)
	if maxD > 0 {
		if minD > 0 {
			st.Imbalance = float64(maxD) / float64(minD)
		} else {
			st.Imbalance = math.Inf(1)
		}
	}
	return st
}
