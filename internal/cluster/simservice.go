package cluster

import (
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
	queue    fifo
	slowdown float64
	dead     bool
	// jobs holds one completion record per worker, preallocated and
	// reused: a record whose timer is pending is the worker serving
	// that attempt, so crashes and aborts can cancel the work.
	jobs []svcDone
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
	s := &SimService{
		eng:      eng,
		rng:      eng.Rand("cluster/simsvc/" + name),
		cfg:      cfg,
		done:     done,
		fail:     fail,
		slowdown: 1,
		jobs:     make([]svcDone, cfg.Workers),
	}
	for w := range s.jobs {
		s.jobs[w].s = s
	}
	return s
}

// svcDone is one worker's completion record: the attempt in service and
// its completion timer (the timer's arg is the record itself).
type svcDone struct {
	s  *SimService
	id int
	ev sim.Event
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
	if s.cfg.QueueCap > 0 && s.queue.n >= s.cfg.QueueCap {
		s.shedCount++
		s.fail(id)
		return
	}
	s.queue.push(id)
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
	j := s.idleJob()
	j.id = id
	j.ev = s.eng.AfterFunc(d, fireSvcDone, j)
}

// idleJob returns the completion record of a free worker (one exists
// whenever busy < Workers).
func (s *SimService) idleJob() *svcDone {
	for w := range s.jobs {
		if !s.jobs[w].ev.Active() {
			return &s.jobs[w]
		}
	}
	panic("cluster: SimService has no idle worker")
}

// fireSvcDone completes one in-service attempt.
func fireSvcDone(arg any) {
	j := arg.(*svcDone)
	s := j.s
	s.busy--
	s.done(j.id)
	s.next()
}

// next dispatches the oldest queued attempt if a worker is free.
func (s *SimService) next() {
	if s.dead || s.busy >= s.cfg.Workers || s.queue.n == 0 {
		return
	}
	s.start(s.queue.pop())
}

// Stop implements Backend: discard remaining internal state so the
// engine can run dry. Outstanding work is abandoned (its requests have
// already resolved or been failed by the cluster).
func (s *SimService) Stop() {
	s.cancelAllTimers()
	s.queue.reset()
	s.busy = 0
}

// Crash implements FaultAware: all queued and in-service work vanishes.
// The cluster fails the node's in-flight attempts back to the client;
// SimService only drops its internal state.
func (s *SimService) Crash() {
	s.dead = true
	s.cancelAllTimers()
	s.queue.reset()
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
	for w := range s.jobs {
		if j := &s.jobs[w]; j.id == id && j.ev.Active() {
			j.ev.Cancel()
			s.busy--
			s.aborted++
			s.next()
			return true
		}
	}
	if s.queue.remove(id) {
		s.aborted++
		return true
	}
	return false
}

// cancelAllTimers cancels every in-service completion timer. Engine
// events are ordered by (instant, schedule sequence), so the order of
// cancellation leaves the timeline untouched.
func (s *SimService) cancelAllTimers() {
	for w := range s.jobs {
		s.jobs[w].ev.Cancel()
	}
}

// Shed counts arrivals refused because the queue was full.
func (s *SimService) Shed() int { return s.shedCount }

// Aborted counts attempts cancelled mid-queue or mid-service.
func (s *SimService) Aborted() int { return s.aborted }

// QueueLen returns the current wait-queue depth.
func (s *SimService) QueueLen() int { return s.queue.n }

// fifo is a ring-buffer FIFO of attempt handles. Its storage is reused
// as the queue drains and refills, so a long run stops allocating once
// the ring has grown to the deepest backlog.
type fifo struct {
	buf     []int
	head, n int
}

func (q *fifo) push(id int) {
	if q.n == len(q.buf) {
		grown := make([]int, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = id
	q.n++
}

func (q *fifo) pop() int {
	id := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return id
}

// at returns the i-th queued handle, oldest first.
func (q *fifo) at(i int) int { return q.buf[(q.head+i)%len(q.buf)] }

// remove drops the first occurrence of id, keeping the others in order,
// and reports whether it was queued.
func (q *fifo) remove(id int) bool {
	for i := 0; i < q.n; i++ {
		if q.at(i) != id {
			continue
		}
		for ; i < q.n-1; i++ {
			q.buf[(q.head+i)%len(q.buf)] = q.at(i + 1)
		}
		q.n--
		return true
	}
	return false
}

func (q *fifo) reset() { q.head, q.n = 0, 0 }

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
func (c *Cluster) nodeFail(ni, id int) {
	n := c.nodes[ni]
	f := n.lookup(id)
	if f == nil {
		return
	}
	n.evict(f)
	n.meter.Failed()
	c.sendFail(n, f)
}
