package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/sim"
)

// tq is the shared timeline quantum the faulted-fleet tests keep every
// duration on: the phased source gives each request a unique sub-quantum
// phase, so no two requests' events can ever share a nanosecond and the
// sharded runs reproduce the single-engine timeline byte for byte even
// under retry storms (see the determinism notes in sim/pdes and
// experiments.chaosQuantum).
const tq = sim.Duration(1 << 15)

// faultNet is a pure-latency quantised network for faulted fleets.
var faultNet = Network{RequestLatency: 2 * tq, ReplyLatency: 2 * tq}

// faultFleetConfig enables every resilience feature at once — crash +
// recovery, a silent brownout, per-attempt deadlines, budgeted capped-
// backoff retries, hedging, and outlier ejection — so one run exercises
// all of them together. Fresh per call: the budget and plan are stateful.
func faultFleetConfig() Config {
	return Config{
		Net:             faultNet,
		SLO:             64 * tq,
		Sessions:        16,
		MetricsInterval: 100 * tq,
		Spans:           true,
		Retry: load.RetryPolicy{
			Timeout:     64 * tq,
			MaxAttempts: 4,
			BaseBackoff: 8 * tq,
			MaxBackoff:  64 * tq,
			Budget:      load.NewRetryBudget(0.2, 20),
			HedgeDelay:  32 * tq,
			Quantum:     tq,
		},
		Faults: NewFaultPlan().
			Crash(0, 160*tq).
			Recover(0, 1600*tq).
			Brownout(1, 160*tq, 1440*tq, 4),
		Health: HealthConfig{EjectAfter: 3, Cooldown: 320 * tq},
	}
}

type fleetResult struct {
	Stats     Stats
	Completed int
	Samples   []obs.Sample
	Spans     []obs.Span
}

// runFaultFleet serves an overloading phased train through a 3-node
// SimService fleet under faultFleetConfig, split over the given shard
// count.
func runFaultFleet(t *testing.T, shards int) fleetResult {
	t.Helper()
	c := NewSharded(faultFleetConfig(), NewLeastOutstanding(), shards, 5)
	for i := 0; i < 3; i++ {
		c.AddSimNode(nodeName(i), SimServiceConfig{
			Workers: 2, QueueCap: 8, MeanService: 8 * tq, Quantum: tq,
		})
	}
	c.Serve(&load.PhasedPoisson{Rate: 16000, Quantum: tq}, 800)
	timedOut, err := c.Run(2 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if timedOut {
		t.Fatal("faulted fleet hit the horizon")
	}
	return fleetResult{
		Stats: c.Stats(), Completed: c.Completed(),
		Samples: c.Samples(), Spans: c.Spans(),
	}
}

func TestFaultedFleetIdenticalAcrossShards(t *testing.T) {
	ref := runFaultFleet(t, 1)
	// The reference run must actually exercise the machinery whose
	// determinism is under test.
	r := ref.Stats.Resilience
	if r.Retries == 0 || r.Timeouts == 0 || r.Hedges == 0 || r.Shed == 0 || r.Failed == 0 {
		t.Fatalf("resilience machinery under-exercised: %+v", r)
	}
	if ref.Completed == 0 || ref.Completed == 800 {
		t.Fatalf("want a partially failed run, got %d of 800 completed", ref.Completed)
	}
	for _, shards := range []int{2, 3} {
		got := runFaultFleet(t, shards)
		if !reflect.DeepEqual(got.Stats, ref.Stats) {
			t.Fatalf("%d shards: stats diverge:\n%+v\nvs\n%+v", shards, got.Stats, ref.Stats)
		}
		if !reflect.DeepEqual(got.Samples, ref.Samples) {
			t.Fatalf("%d shards: telemetry samples diverge", shards)
		}
		if !reflect.DeepEqual(got.Spans, ref.Spans) {
			t.Fatalf("%d shards: spans diverge", shards)
		}
	}
}

func TestCrashFailsInFlightAndRecoveryRestores(t *testing.T) {
	// One node, no retry policy: the request in flight at the crash fails
	// back to the client, the one arriving during the outage finds no
	// live node, and the one after recovery completes normally.
	cfg := Config{
		Net:   faultNet,
		Spans: true,
		Faults: NewFaultPlan().
			Crash(0, 160*tq).
			Recover(0, 320*tq),
	}
	c := NewSharded(cfg, NewRoundRobin(), 1, 1)
	svc := c.AddSimNode(nodeName(0), SimServiceConfig{
		Workers: 1, MeanService: 64 * tq, Quantum: tq,
	})
	c.Serve(&load.Replay{At: []sim.Duration{
		140 * tq, // in flight (arrives 142tq, service pending) when the crash hits
		240 * tq, // during the outage, after the crash notification
		400 * tq, // after recovery and its notification
	}}, 3)
	if _, err := c.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	spans := c.Spans()
	wantOutcomes := []string{obs.OutcomeFailed, obs.OutcomeNoNode, obs.OutcomeOK}
	for i, want := range wantOutcomes {
		if spans[i].Outcome != want {
			t.Fatalf("request %d outcome %q, want %q (spans %+v)", i, spans[i].Outcome, want, spans)
		}
	}
	r := c.Resilience()
	if r.Failed != 2 || r.NoLiveNode != 1 {
		t.Fatalf("resilience %+v, want Failed=2 NoLiveNode=1", r)
	}
	if c.Completed() != 1 {
		t.Fatalf("completed %d, want 1", c.Completed())
	}
	if svc.QueueLen() != 0 {
		t.Fatalf("service queue %d after run, want empty", svc.QueueLen())
	}
}

func TestAllNodesDeadFailsFast(t *testing.T) {
	// Every node crashed and never recovered: requests fail fast with
	// the typed no-live-nodes error rather than queueing on a dead fleet.
	cfg := Config{
		Net:   faultNet,
		Spans: true,
		Faults: NewFaultPlan().
			Crash(0, 32*tq).Crash(1, 32*tq).Crash(2, 32*tq),
	}
	c := NewSharded(cfg, NewRoundRobin(), 1, 1)
	for i := 0; i < 3; i++ {
		c.AddSimNode(nodeName(i), SimServiceConfig{MeanService: 8 * tq, Quantum: tq})
	}
	c.Serve(&load.Replay{At: []sim.Duration{100 * tq, 110 * tq, 120 * tq}}, 3)
	if _, err := c.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PickNode(Request{}); !errors.Is(err, ErrNoLiveNodes) {
		t.Fatalf("PickNode error %v, want ErrNoLiveNodes", err)
	}
	r := c.Resilience()
	if r.NoLiveNode != 3 || c.Completed() != 0 {
		t.Fatalf("NoLiveNode=%d completed=%d, want 3 and 0", r.NoLiveNode, c.Completed())
	}
	for i, sp := range c.Spans() {
		if sp.Outcome != obs.OutcomeNoNode {
			t.Fatalf("request %d outcome %q, want %q", i, sp.Outcome, obs.OutcomeNoNode)
		}
	}
}

func TestSingleLiveNodeEveryRouter(t *testing.T) {
	// With two of three nodes crashed, each routing policy must steer
	// every request to the sole live node.
	routers := []Router{NewRoundRobin(), NewLeastOutstanding(), NewConsistentHash()}
	for _, r := range routers {
		cfg := Config{
			Net:      faultNet,
			Sessions: 8,
			Spans:    true,
			Faults:   NewFaultPlan().Crash(0, 32*tq).Crash(2, 32*tq),
		}
		c := NewSharded(cfg, r, 1, 1)
		for i := 0; i < 3; i++ {
			c.AddSimNode(nodeName(i), SimServiceConfig{
				Workers: 2, MeanService: 8 * tq, Quantum: tq,
			})
		}
		at := make([]sim.Duration, 40)
		for i := range at {
			at[i] = sim.Duration(100+4*i) * tq // all after the crash notifications
		}
		c.Serve(&load.Replay{At: at}, len(at))
		if _, err := c.Run(sim.Second); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if c.Completed() != len(at) {
			t.Fatalf("%s: completed %d of %d", r.Name(), c.Completed(), len(at))
		}
		for i, sp := range c.Spans() {
			if sp.Node != nodeName(1) {
				t.Fatalf("%s: request %d served by %q, want sole live node %q",
					r.Name(), i, sp.Node, nodeName(1))
			}
		}
	}
}

func TestConsistentHashRingRestoredAfterReaddition(t *testing.T) {
	// Removing a node and re-adding it must restore the exact original
	// ring (virtual points depend only on node names), so session
	// placement after a recovery is identical to before the crash.
	c, _ := stubCluster(t, Config{}, NewConsistentHash(),
		[]sim.Duration{sim.Millisecond, sim.Millisecond, sim.Millisecond})
	ch := c.Router().(*ConsistentHash)
	ch.Bind(c, nil)
	ring0 := append([]ringPoint(nil), ch.ring...)
	picks0 := make([]int, 256)
	for s := range picks0 {
		picks0[s] = ch.Pick(Request{Session: uint64(s)})
	}
	// Take node 1 down: the ring shrinks and no session lands on it.
	c.hstate = make([]healthState, 3)
	for i := range c.hstate {
		c.hstate[i] = healthState{c: c, ni: i}
	}
	c.hstate[1].down = true
	c.bumpEpoch()
	for s := 0; s < 256; s++ {
		if got := ch.Pick(Request{Session: uint64(s)}); got == 1 {
			t.Fatal("session routed to a down node")
		}
	}
	if len(ch.ring) != 2*len(ring0)/3 {
		t.Fatalf("degraded ring has %d points, want %d", len(ch.ring), 2*len(ring0)/3)
	}
	// Bring it back: the ring and every placement must match the original.
	c.hstate[1].down = false
	c.bumpEpoch()
	for s := range picks0 {
		if got := ch.Pick(Request{Session: uint64(s)}); got != picks0[s] {
			t.Fatalf("session %d moved from %d to %d after re-addition", s, picks0[s], got)
		}
	}
	if !reflect.DeepEqual(ch.ring, ring0) {
		t.Fatal("ring not byte-identical after remove + re-add")
	}
}

func TestEjectionStormGuard(t *testing.T) {
	// The concurrent-ejection cap and the last-live-node guard keep a
	// global overload from ejecting the whole fleet out of routing.
	c, _ := stubCluster(t, Config{Health: HealthConfig{
		EjectAfter: 1, Cooldown: sim.Second, MaxEjected: 1,
	}}, NewRoundRobin(), []sim.Duration{sim.Millisecond, sim.Millisecond, sim.Millisecond})
	c.hstate = make([]healthState, 3)
	for i := range c.hstate {
		c.hstate[i] = healthState{c: c, ni: i}
	}
	c.bumpEpoch()
	c.recordFailure(0)
	if !c.hstate[0].ejected || c.ejectedCount != 1 {
		t.Fatalf("first failure did not eject: %+v", c.hstate[0])
	}
	// Cap reached: node 1 stays routable despite its failure streak.
	c.recordFailure(1)
	if c.hstate[1].ejected {
		t.Fatal("ejection cap exceeded")
	}
	// Raising the cap lets node 1 go — but node 2, now the last live
	// node, must never be ejected.
	c.cfg.Health.MaxEjected = 3
	c.recordFailure(1)
	if !c.hstate[1].ejected || c.liveNodes != 1 {
		t.Fatalf("raised cap did not admit ejection (live=%d)", c.liveNodes)
	}
	c.recordFailure(2)
	if c.hstate[2].ejected {
		t.Fatal("last live node ejected")
	}
	// Cooldowns fire: both nodes are readmitted on probation and the
	// concurrent-ejection count returns to zero.
	if _, err := c.Eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if c.ejectedCount != 0 || c.res.Readmits != 2 {
		t.Fatalf("after cooldowns: ejectedCount=%d readmits=%d, want 0 and 2",
			c.ejectedCount, c.res.Readmits)
	}
	if !c.hstate[0].probation || !c.hstate[1].probation {
		t.Fatal("readmitted nodes not on probation")
	}
}

func TestMaxEjectedDefaultsToTenPercent(t *testing.T) {
	c, _ := stubCluster(t, Config{}, NewRoundRobin(),
		make([]sim.Duration, 3))
	if got := c.maxEjected(); got != 1 {
		t.Fatalf("3-node default cap %d, want 1", got)
	}
	c.nodes = make([]*Node, 40)
	if got := c.maxEjected(); got != 4 {
		t.Fatalf("40-node default cap %d, want 4", got)
	}
	c.cfg.Health.MaxEjected = 7
	if got := c.maxEjected(); got != 7 {
		t.Fatalf("explicit cap %d, want 7", got)
	}
}

func TestHorizonAbandonStampsResilientSpans(t *testing.T) {
	// A resilient run cut off by the horizon must leave no zero-stamped
	// spans: unresolved requests carry the abandoned outcome and their
	// attempt counts, one with an attempt still open also its node and
	// that attempt's hop stamps, and the timeline stats stay
	// well-defined. The spans are identical at one and two shards.
	var first []obs.Span
	for _, shards := range []int{1, 2} {
		c := NewSharded(faultFleetConfig(), NewLeastOutstanding(), shards, 5)
		for i := 0; i < 3; i++ {
			c.AddSimNode(nodeName(i), SimServiceConfig{
				Workers: 2, QueueCap: 8, MeanService: 8 * tq, Quantum: tq,
			})
		}
		c.Serve(&load.PhasedPoisson{Rate: 16000, Quantum: tq}, 800)
		timedOut, err := c.Run(300 * tq) // ~10ms: mid-outage, mid-train
		if err != nil {
			t.Fatal(err)
		}
		if !timedOut {
			t.Fatalf("shards=%d: run finished under a horizon chosen to cut it off", shards)
		}
		spans := c.Spans()
		abandoned, submitted, open := 0, 0, 0
		for i, sp := range spans {
			if sp.Outcome == "" {
				t.Fatalf("shards=%d: span %d has no outcome after an abandoned run: %+v", shards, i, sp)
			}
			if sp.Submit > 0 {
				submitted++
			}
			if sp.Outcome != obs.OutcomeAbandoned {
				continue
			}
			abandoned++
			if sp.Submit > 0 && sp.Attempts < 1 {
				t.Fatalf("shards=%d: submitted span %d abandoned with %d attempts: %+v", shards, i, sp.Attempts, sp)
			}
			if sp.Node != "" {
				if sp.Arrive > 0 && sp.Arrive <= sp.Submit {
					t.Fatalf("shards=%d: span %d arrived at %v, not after its submission: %+v", shards, i, sp.Arrive, sp)
				}
				if sp.Attempts >= 1 && sp.Arrive > 0 {
					open++
				}
			}
		}
		if abandoned == 0 {
			t.Fatalf("shards=%d: no abandoned spans in a cut-off run", shards)
		}
		if open == 0 {
			t.Fatalf("shards=%d: no abandoned span carries its open attempt's node and arrival stamp", shards)
		}
		// The meter accounts for every request the source actually
		// submitted before the cutoff — completed, failed, or
		// failed-at-abandon — and no others.
		st := c.Stats()
		if got := st.EndToEnd.Completed + st.EndToEnd.Failed; got != submitted || submitted == 0 {
			t.Fatalf("shards=%d: meter accounts for %d requests, want the %d submitted", shards, got, submitted)
		}
		if first == nil {
			first = spans
		} else if !reflect.DeepEqual(spans, first) {
			t.Fatal("abandoned-run spans differ between 1 and 2 shards")
		}
	}
}

func TestFaultPlanRejectsUnknownNode(t *testing.T) {
	c := NewSharded(Config{
		Net:    faultNet,
		Faults: NewFaultPlan().Crash(5, 10*tq),
	}, NewRoundRobin(), 1, 1)
	c.AddSimNode(nodeName(0), SimServiceConfig{MeanService: tq, Quantum: tq})
	defer func() {
		if recover() == nil {
			t.Fatal("fault plan targeting node 5 of 1 accepted")
		}
	}()
	c.Serve(&load.Replay{At: []sim.Duration{tq}}, 1)
}

func TestBrownoutStretchesLatency(t *testing.T) {
	// A brownout over the whole run must raise mean latency vs the same
	// seeded run without it; after SetSlowdown(1) draws return to nominal.
	run := func(plan *FaultPlan) Stats {
		c := NewSharded(Config{Net: faultNet, Faults: plan},
			NewRoundRobin(), 1, 9)
		c.AddSimNode(nodeName(0), SimServiceConfig{
			Workers: 1, MeanService: 16 * tq, Quantum: tq,
		})
		at := make([]sim.Duration, 50)
		for i := range at {
			at[i] = sim.Duration(1+64*i) * tq // spaced: no queueing
		}
		c.Serve(&load.Replay{At: at}, len(at))
		if _, err := c.Run(sim.Second); err != nil {
			t.Fatal(err)
		}
		return c.Stats()
	}
	slow := run(NewFaultPlan().Brownout(0, 0, 6400*tq, 8))
	fast := run(NewFaultPlan().Brownout(0, 0, 6400*tq, 1))
	if slow.EndToEnd.Mean <= 2*fast.EndToEnd.Mean {
		t.Fatalf("8x brownout mean %v not clearly above nominal %v",
			slow.EndToEnd.Mean, fast.EndToEnd.Mean)
	}
}

// mustPanic runs fn and returns its panic message, failing the test if
// fn returns normally.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

func TestUnknownCompletionPanicsWhenNothingAbandons(t *testing.T) {
	// No deadline, hedge, or fault plan: the client edge never gives up
	// on an attempt, so a completion the node does not track is a
	// bookkeeping bug and must stop the run.
	c, backends := stubCluster(t, Config{}, NewRoundRobin(), []sim.Duration{sim.Millisecond})
	c.Serve(&load.Replay{}, 1)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{7, 0} { // never submitted; already completed
		msg := mustPanic(t, func() { backends[0].done(id) })
		if want := fmt.Sprintf("cluster: node 0 completed unknown request %d", id); msg != want {
			t.Fatalf("panic %q, want %q", msg, want)
		}
	}
}

func TestUnknownCompletionCountedWhereAbandonable(t *testing.T) {
	// A crash fails the in-flight attempt back to the client, but the
	// stub backend is not FaultAware and finishes the work anyway: its
	// late completion is an orphan, counted rather than fatal.
	cfg := Config{Faults: NewFaultPlan().Crash(0, sim.Millisecond)}
	c, _ := stubCluster(t, cfg, NewRoundRobin(), []sim.Duration{10 * sim.Millisecond})
	c.Serve(&load.Replay{}, 1)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if r := c.Resilience(); r.OrphanDone != 1 || r.Failed != 1 {
		t.Fatalf("resilience %+v, want OrphanDone=1 Failed=1", r)
	}
	// Deadlines and hedges can abandon attempts too, so each alone turns
	// an unknown completion into an orphan.
	for _, retry := range []load.RetryPolicy{{Timeout: sim.Second}, {HedgeDelay: sim.Second}} {
		c, backends := stubCluster(t, Config{Retry: retry}, NewRoundRobin(), []sim.Duration{sim.Millisecond})
		c.Serve(&load.Replay{}, 1)
		if _, err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		backends[0].done(0)
		backends[0].done(7)
		if r := c.Resilience(); r.OrphanDone != 2 {
			t.Fatalf("%+v: OrphanDone = %d, want 2", retry, r.OrphanDone)
		}
	}
}

// fixedRouter always picks the same node index, valid or not.
type fixedRouter struct{ pick int }

func (r fixedRouter) Name() string             { return "fixed" }
func (r fixedRouter) Bind(*Cluster, *sim.Rand) {}
func (r fixedRouter) Pick(Request) int         { return r.pick }

func TestDispatchRejectsOutOfRangePick(t *testing.T) {
	// A router index past the fleet is a router bug, named in the panic;
	// -1 is the documented no-live-node answer and fails the request.
	c, _ := stubCluster(t, Config{}, fixedRouter{pick: 2}, []sim.Duration{sim.Millisecond, sim.Millisecond})
	c.Serve(&load.Replay{}, 1)
	msg := mustPanic(t, func() { _, _ = c.Run(0) })
	if want := "cluster: router fixed picked node 2 of 2"; msg != want {
		t.Fatalf("panic %q, want %q", msg, want)
	}

	c, _ = stubCluster(t, Config{Spans: true}, fixedRouter{pick: -1}, []sim.Duration{sim.Millisecond})
	c.Serve(&load.Replay{}, 2)
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if r := c.Resilience(); r.NoLiveNode != 2 || r.Failed != 2 || c.Completed() != 0 {
		t.Fatalf("resilience %+v completed %d, want NoLiveNode=2 Failed=2 completed=0", r, c.Completed())
	}
	for i, sp := range c.Spans() {
		if sp.Outcome != obs.OutcomeNoNode {
			t.Fatalf("request %d outcome %q, want %q", i, sp.Outcome, obs.OutcomeNoNode)
		}
	}
}
