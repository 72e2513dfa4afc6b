package kernel

import (
	"slices"

	"repro/internal/sim"
)

// bwManager models the shared per-socket memory bandwidth. Running compute
// segments register their demand; when a socket's aggregate demand exceeds
// its sustainable bandwidth, every demanding segment on that socket slows
// down proportionally. This is the first-order effect behind Fig. 5 of the
// paper (co-executed MD ensembles are bandwidth-bound).
type bwManager struct {
	k       *Kernel
	sockets []*socketBW
}

type socketBW struct {
	id     int
	demand float64 // sum of registered demands, bytes/ns
	// segs holds the threads of the running bandwidth-consuming
	// segments, sorted by TID so retiming walks them in a fixed order.
	segs []*Thread
}

func newBWManager(k *Kernel) *bwManager {
	m := &bwManager{k: k}
	for s := 0; s < k.HW.Topo.Sockets; s++ {
		m.sockets = append(m.sockets, &socketBW{id: s})
	}
	return m
}

func (m *bwManager) scale(s *socketBW) float64 {
	cap := m.k.HW.Mem.SocketBandwidth
	if s.demand <= cap || s.demand == 0 {
		return 1
	}
	return cap / s.demand
}

// find returns the index of t in s.segs, or the index where it belongs,
// and whether it is there.
func (s *socketBW) find(t *Thread) (int, bool) {
	i := 0
	for i < len(s.segs) && s.segs[i].TID < t.TID {
		i++
	}
	return i, i < len(s.segs) && s.segs[i] == t
}

// register starts accounting for t's current segment on c's socket, sets
// the segment speed, and (re)schedules completion events for every segment
// sharing the socket.
func (m *bwManager) register(c *Core, t *Thread) {
	if t.seg.bw > 0 {
		s := m.sockets[m.k.HW.Topo.SocketOf(c.id)]
		s.demand += t.seg.bw
		if i, ok := s.find(t); !ok {
			s.segs = slices.Insert(s.segs, i, t)
		}
		m.retimeSocket(s)
		m.sample(s)
		return
	}
	// CPU-bound segment: unaffected by the socket, time it directly.
	t.seg.speed = 1
	m.retime(t)
}

// deregister stops accounting for t's segment.
func (m *bwManager) deregister(c *Core, t *Thread) {
	if t.seg == nil || t.seg.bw <= 0 {
		return
	}
	s := m.sockets[m.k.HW.Topo.SocketOf(c.id)]
	i, ok := s.find(t)
	if !ok {
		return
	}
	s.segs = slices.Delete(s.segs, i, i+1)
	s.demand -= t.seg.bw
	if s.demand < 0 {
		s.demand = 0
	}
	m.retimeSocket(s)
	m.sample(s)
}

// retimeSocket folds progress and recomputes speeds and completion events
// for all bandwidth-consuming segments on the socket, in ascending TID
// order so event scheduling stays deterministic.
func (m *bwManager) retimeSocket(s *socketBW) {
	sc := m.scale(s)
	now := m.k.Eng.Now()
	for _, t := range s.segs {
		t.seg.advance(now)
		t.seg.speed = sc
		m.retime(t)
	}
}

// retime (re)schedules the completion event for t's running segment.
func (m *bwManager) retime(t *Thread) {
	seg := t.seg
	seg.endEv.Cancel()
	seg.endEv = sim.Event{}
	if !seg.running {
		return
	}
	d := sim.Duration(seg.total() / seg.speed)
	seg.endEv = m.k.Eng.AfterFunc(d, segmentEnd, t)
}

// segmentEnd is the segment-completion callback shared by every thread.
// The event is cancelled whenever the segment stops running, so when it
// fires the thread is still current on the core that scheduled it.
func segmentEnd(arg any) {
	t := arg.(*Thread)
	if t.curCore < 0 {
		return
	}
	t.kern.cores[t.curCore].onSegmentEnd(t)
}

// sample reports the socket's consumed bandwidth to the metrics hook.
func (m *bwManager) sample(s *socketBW) {
	if m.k.BWSample == nil {
		return
	}
	used := s.demand
	if cap := m.k.HW.Mem.SocketBandwidth; used > cap {
		used = cap
	}
	m.k.BWSample(m.k.Eng.Now(), s.id, used)
}
