package cluster

import (
	"testing"

	"repro/internal/load"
	"repro/internal/sim"
)

// benchBackend completes requests after a fixed per-node service time
// without any simulated processes, so the benchmark isolates the
// cluster dispatch path: router pick, link accounting, network events,
// and the end-to-end/per-node meters. Every request waits the same
// service time from its submission, so completions fire in submission
// order and the pending handles are a FIFO: the completion timer
// carries the backend itself, and no per-request value is boxed.
type benchBackend struct {
	eng     *sim.Engine
	service sim.Duration
	done    func(id int)
	pending fifo
}

func (b *benchBackend) Submit(id int) {
	b.pending.push(id)
	b.eng.AfterFunc(b.service, benchFire, b)
}

func benchFire(arg any) {
	b := arg.(*benchBackend)
	b.done(b.pending.pop())
}

func (b *benchBackend) Stop() {}

// benchDispatch routes reqs requests through an 8-node fleet under the
// given router and runs the engine dry.
func benchDispatch(b *testing.B, newRouter func() Router) {
	const nodes, reqs = 8, 2048
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(7)
		c := New(eng, Config{
			Net:      Network{RequestLatency: 50 * sim.Microsecond, ReplyLatency: 50 * sim.Microsecond, RequestBytes: 1 << 10, ReplyBytes: 16 << 10, LinkBandwidth: 10},
			Sessions: 64,
		}, newRouter())
		for n := 0; n < nodes; n++ {
			n := n
			c.AddNode(nodeName(n), nil, func(done func(id int)) Backend {
				return &benchBackend{eng: eng, service: sim.Duration(1+n) * sim.Millisecond, done: done}
			})
		}
		c.Serve(&load.Poisson{Rate: 5000}, reqs)
		if _, err := c.Run(0); err != nil {
			b.Fatal(err)
		}
		if c.Completed() != reqs {
			b.Fatalf("completed %d of %d", c.Completed(), reqs)
		}
	}
}

func BenchmarkClusterDispatchRoundRobin(b *testing.B) {
	benchDispatch(b, func() Router { return NewRoundRobin() })
}

func BenchmarkClusterDispatchLeastOutstanding(b *testing.B) {
	benchDispatch(b, func() Router { return NewLeastOutstanding() })
}

func BenchmarkClusterDispatchConsistentHash(b *testing.B) {
	benchDispatch(b, func() Router { return NewConsistentHash() })
}

// BenchmarkClusterDispatchSharded is the sharded counterpart of the
// dispatch benchmark: the same 8-node fleet over 4 shards, so every
// request pays two cross-shard message hops plus its slice of the
// window barriers. The delta against BenchmarkClusterDispatchRoundRobin
// is the coordination cost sharding must amortise with real per-node
// work (here the backends are free, so this is the worst case).
func BenchmarkClusterDispatchSharded(b *testing.B) {
	const nodes, shards, reqs = 8, 4, 2048
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewSharded(Config{
			Net:      Network{RequestLatency: 50 * sim.Microsecond, ReplyLatency: 50 * sim.Microsecond, RequestBytes: 1 << 10, ReplyBytes: 16 << 10, LinkBandwidth: 10},
			Sessions: 64,
		}, NewRoundRobin(), shards, 7)
		for n := 0; n < nodes; n++ {
			n := n
			c.AddNode(nodeName(n), nil, func(done func(id int)) Backend {
				return &benchBackend{eng: c.NodeEngine(n), service: sim.Duration(1+n) * sim.Millisecond, done: done}
			})
		}
		c.Serve(&load.Poisson{Rate: 5000}, reqs)
		if _, err := c.Run(0); err != nil {
			b.Fatal(err)
		}
		if c.Completed() != reqs {
			b.Fatalf("completed %d of %d", c.Completed(), reqs)
		}
	}
}

// BenchmarkClusterAttempt measures the client → node → client attempt
// path in a steady-state retry storm: every node's single worker and
// queue slot are held by work that never finishes within the run, so
// each attempt is dispatched, shed at the node, failed back to the
// client, and re-dispatched after a capped backoff, forever. One op is
// one millisecond of virtual time, a few hundred attempts; ns/attempt
// is the host cost of one. After the warm-up (flight free list,
// residency slots, event pool, and timer structures at their working
// size) the path must not allocate at all: allocs/op must be 0.
func BenchmarkClusterAttempt(b *testing.B) {
	const nodes, reqs = 4, 64
	eng := sim.NewEngine(11)
	c := New(eng, Config{
		Net: Network{RequestLatency: 50 * sim.Microsecond, ReplyLatency: 50 * sim.Microsecond},
		Retry: load.RetryPolicy{
			Timeout:     sim.Second,
			BaseBackoff: 20 * sim.Microsecond,
			MaxBackoff:  200 * sim.Microsecond,
		},
	}, NewRoundRobin())
	for n := 0; n < nodes; n++ {
		c.AddSimNode(nodeName(n), SimServiceConfig{
			Workers: 1, QueueCap: 1, MeanService: 1e6 * sim.Second,
		})
	}
	c.Serve(&load.Poisson{Rate: 1e6}, reqs)
	step := func() {
		if _, err := eng.Run(eng.Now().Add(sim.Millisecond)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		step()
	}
	if c.Completed() != 0 || c.res.Failed != 0 {
		b.Fatalf("storm resolved requests during warm-up: %d completed, %d failed",
			c.Completed(), c.res.Failed)
	}
	start := c.nextAid
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.nextAid-start), "ns/attempt")
}
