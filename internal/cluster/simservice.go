package cluster

import (
	"sort"

	"repro/internal/sim"
)

// SimService is a lightweight queue-model backend: Workers parallel
// servers drain a bounded FIFO queue, and each request's service time
// is an exponential draw around MeanService (scaled by the current
// brownout slowdown). It exists so fault-and-resilience experiments can
// run thousand-request fleets in milliseconds without simulating a full
// kernel per node — and, unlike the full stack, it is FaultAware and
// abortable: crashes drop its state instantly, brownouts stretch its
// service times, and cancelled attempts stop occupying a worker.
//
// Determinism: service times are drawn from a labelled stream of the
// node's home engine, consumed only in that engine's event order, so a
// SimService fleet is byte-identical for any -par or -shards value.
type SimServiceConfig struct {
	// Workers is the number of parallel servers (default 1).
	Workers int
	// QueueCap bounds the wait queue; an arrival beyond it is shed —
	// failed straight back to the client (admission control at the
	// node). Non-positive means unbounded.
	QueueCap int
	// MeanService is the mean of the exponential service-time draw.
	MeanService sim.Duration
	// Quantum, when positive, rounds every service draw up to a positive
	// multiple of it, keeping completions on the simulation's shared
	// quantum grid (tie-free timelines; see sim/pdes). Zero keeps the
	// continuous draw.
	Quantum sim.Duration
}

// SimService implements Backend, FaultAware, and abortable. Build one
// per node with Cluster.AddSimNode. All state is homed on the node's
// engine.
type SimService struct {
	eng  *sim.Engine
	rng  *sim.Rand
	cfg  SimServiceConfig
	done func(id int)
	fail func(id int)
	// started is the cluster's span hook (nil when spans are off).
	started func(id int)

	busy     int
	queue    []int
	slowdown float64
	dead     bool
	// timers holds the completion timer per in-service attempt so
	// crashes and aborts can cancel the work.
	timers map[int]sim.Event
	// shedCount and aborted count queue-full refusals and cancelled
	// attempts.
	shedCount int
	aborted   int
}

// newSimService wires a SimService on eng; the cluster supplies the
// completion and failure callbacks.
func newSimService(eng *sim.Engine, name string, cfg SimServiceConfig, done, fail func(id int)) *SimService {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MeanService <= 0 {
		cfg.MeanService = sim.Millisecond
	}
	return &SimService{
		eng:      eng,
		rng:      eng.Rand("cluster/simsvc/" + name),
		cfg:      cfg,
		done:     done,
		fail:     fail,
		slowdown: 1,
		timers:   make(map[int]sim.Event),
	}
}

// svcDone carries one completion timer's target.
type svcDone struct {
	s  *SimService
	id int
}

// Submit implements Backend: start service if a worker is free, queue
// otherwise, shed if the queue is full.
func (s *SimService) Submit(id int) {
	if s.dead {
		// The cluster bounces arrivals at dead nodes before Submit;
		// reaching here means a stale queue dispatch — drop it.
		return
	}
	if s.busy < s.cfg.Workers {
		s.start(id)
		return
	}
	if s.cfg.QueueCap > 0 && len(s.queue) >= s.cfg.QueueCap {
		s.shedCount++
		s.fail(id)
		return
	}
	s.queue = append(s.queue, id)
}

// start begins service on id: one exponential service-time draw,
// stretched by the current slowdown.
func (s *SimService) start(id int) {
	s.busy++
	if s.started != nil {
		s.started(id)
	}
	d := sim.Duration(float64(s.cfg.MeanService) * s.slowdown * s.rng.ExpFloat64())
	if q := s.cfg.Quantum; q > 0 {
		d = d/q*q + q
	} else {
		d++
	}
	s.timers[id] = s.eng.AfterFunc(d, fireSvcDone, &svcDone{s: s, id: id})
}

// fireSvcDone completes one in-service attempt.
func fireSvcDone(arg any) {
	sd := arg.(*svcDone)
	s := sd.s
	delete(s.timers, sd.id)
	s.busy--
	s.done(sd.id)
	s.next()
}

// next dispatches the oldest queued attempt if a worker is free.
func (s *SimService) next() {
	if s.dead || s.busy >= s.cfg.Workers || len(s.queue) == 0 {
		return
	}
	id := s.queue[0]
	s.queue = s.queue[1:]
	s.start(id)
}

// Stop implements Backend: discard remaining internal state so the
// engine can run dry. Outstanding work is abandoned (its requests have
// already resolved or been failed by the cluster).
func (s *SimService) Stop() {
	s.cancelAllTimers()
	s.queue = nil
	s.busy = 0
}

// Crash implements FaultAware: all queued and in-service work vanishes.
// The cluster fails the node's in-flight attempts back to the client;
// SimService only drops its internal state.
func (s *SimService) Crash() {
	s.dead = true
	s.cancelAllTimers()
	s.queue = s.queue[:0]
	s.busy = 0
}

// Recover implements FaultAware.
func (s *SimService) Recover() {
	s.dead = false
}

// SetSlowdown implements FaultAware: future service draws are scaled by
// factor. Work already in service keeps its original deadline.
func (s *SimService) SetSlowdown(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	s.slowdown = factor
}

// Abort implements abortable: drop one attempt, wherever it is.
func (s *SimService) Abort(id int) bool {
	if ev, ok := s.timers[id]; ok {
		ev.Cancel()
		delete(s.timers, id)
		s.busy--
		s.aborted++
		s.next()
		return true
	}
	for i, q := range s.queue {
		if q == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.aborted++
			return true
		}
	}
	return false
}

// cancelAllTimers cancels every in-service completion timer, in id
// order so cancellation order is deterministic.
func (s *SimService) cancelAllTimers() {
	if len(s.timers) == 0 {
		return
	}
	ids := make([]int, 0, len(s.timers))
	for id := range s.timers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s.timers[id].Cancel()
		delete(s.timers, id)
	}
}

// Shed counts arrivals refused because the queue was full.
func (s *SimService) Shed() int { return s.shedCount }

// Aborted counts attempts cancelled mid-queue or mid-service.
func (s *SimService) Aborted() int { return s.aborted }

// QueueLen returns the current wait-queue depth.
func (s *SimService) QueueLen() int { return len(s.queue) }

// AddSimNode registers a SimService-backed node (no stack.System): the
// fast path for fault-injection fleets. The returned service backs the
// node and participates in crashes, brownouts, and cancellation.
func (c *Cluster) AddSimNode(name string, scfg SimServiceConfig) *SimService {
	ni := len(c.nodes)
	var svc *SimService
	c.AddNode(name, nil, func(done func(id int)) Backend {
		svc = newSimService(c.NodeEngine(ni), name, scfg, done,
			func(id int) { c.nodeFail(ni, id) })
		return svc
	})
	svc.started = c.StartedFunc(ni)
	return svc
}

// nodeFail is the node-side failure callback (queue shed): the attempt
// leaves the node and a failure reply heads back to the client. Runs on
// the node's engine.
func (c *Cluster) nodeFail(ni, aid int) {
	n := c.nodes[ni]
	f := n.inflight[aid]
	if f == nil {
		return
	}
	delete(n.inflight, aid)
	now := n.eng.Now()
	n.meter.Failed(aid, now)
	c.sendFail(n, f)
}
