// Package mpi models an MPICH-like on-node MPI over shared memory: eager
// buffered sends, receives that busy-poll the progress engine (the
// behaviour that interferes under oversubscription, §5.2), and central
// counter collectives. The paper's one-line sched_yield patch to MPICH's
// busy-wait is the Yield flag.
package mpi

import (
	"fmt"

	"repro/internal/glibc"
	"repro/internal/rt/spin"
	"repro/internal/sim"
)

// message is an in-flight eager message.
type message struct {
	src, tag int
	bytes    int64
}

// World is one MPI communicator across simulated processes on the node.
type World struct {
	size  int
	ranks []*Rank
	// Yield applies the sched_yield patch to all busy-wait loops.
	Yield bool

	barCount int
	barGen   int
}

// NewWorld creates a communicator expecting size ranks.
func NewWorld(size int, yield bool) *World {
	return &World{size: size, ranks: make([]*Rank, size), Yield: yield}
}

// Size returns the communicator size.
func (w *World) Size() int { return w.size }

// Rank is one process's endpoint.
type Rank struct {
	w    *World
	rank int
	lib  *glibc.Lib
	// inbox[src] holds messages from that source, FIFO.
	inbox [][]message
	// recvTag and recvSrc are the tag and source a Recv in progress
	// awaits (recvSrc is -1 outside Recv); got is the message its poll
	// consumed.
	recvTag int
	recvSrc int
	got     message
	// watch notifies the rank's wait in progress of a new message from
	// recvSrc or of a barrier passing, so the wait can fast-forward
	// while it is lone.
	watch spin.Watch
}

// Register attaches the calling process (rank id) to the world.
func (w *World) Register(rank int, lib *glibc.Lib) *Rank {
	if w.ranks[rank] != nil {
		panic(fmt.Sprintf("mpi: rank %d registered twice", rank))
	}
	r := &Rank{w: w, rank: rank, lib: lib, inbox: make([][]message, w.size), recvSrc: -1}
	w.ranks[rank] = r
	return r
}

// RankID returns this endpoint's rank id.
func (r *Rank) RankID() int { return r.rank }

// protocol cost constants (on-node shared-memory transport).
const (
	sendOverhead = 400 * sim.Nanosecond
	recvOverhead = 600 * sim.Nanosecond
	// copyBytesPerNs is the shared-memory copy rate (~12 GB/s).
	copyBytesPerNs = 12.0
)

// Send performs an eager buffered send: the payload is copied into the
// destination mailbox and the call returns.
func (r *Rank) Send(dst, tag int, bytes int64) {
	r.lib.Compute(sendOverhead + sim.Duration(float64(bytes)/copyBytesPerNs))
	d := r.w.ranks[dst]
	d.inbox[r.rank] = append(d.inbox[r.rank], message{src: r.rank, tag: tag, bytes: bytes})
	if d.recvSrc == r.rank {
		d.watch.Notify()
	}
}

// Recv blocks (busy-polling, like MPICH's progress engine) until a message
// with the given source and tag arrives, then consumes it.
func (r *Rank) Recv(src, tag int) int64 {
	r.recvTag, r.recvSrc = tag, src
	spin.UntilWatched(r.lib, recvArrived, r, src, r.w.Yield, &r.watch)
	r.recvSrc = -1
	got := r.got
	r.lib.Compute(recvOverhead + sim.Duration(float64(got.bytes)/copyBytesPerNs))
	return got.bytes
}

// recvArrived is Recv's poll: it consumes the first message from src
// carrying the awaited tag into r.got.
func recvArrived(arg any, src int) bool {
	r := arg.(*Rank)
	q := r.inbox[src]
	for i, m := range q {
		if m.tag == r.recvTag {
			r.got = m
			copy(q[i:], q[i+1:])
			r.inbox[src] = q[:len(q)-1]
			return true
		}
	}
	return false
}

// Sendrecv exchanges messages with two peers (the LAMMPS halo pattern).
func (r *Rank) Sendrecv(dst int, sendBytes int64, src, tag int) int64 {
	r.Send(dst, tag, sendBytes)
	return r.Recv(src, tag)
}

// Barrier blocks until all ranks arrive, busy-polling a central counter.
func (r *Rank) Barrier() {
	w := r.w
	gen := w.barGen
	w.barCount++
	if w.barCount == w.size {
		w.barCount = 0
		w.barGen++
		// Every rank in a wait outside Recv waits here.
		for _, x := range w.ranks {
			if x != nil && x.recvSrc < 0 {
				x.watch.Notify()
			}
		}
		return
	}
	spin.UntilWatched(r.lib, worldBarrierPassed, w, gen, w.Yield, &r.watch)
}

// worldBarrierPassed is Barrier's poll: the world left generation gen.
func worldBarrierPassed(arg any, gen int) bool { return arg.(*World).barGen != gen }

// Allreduce models a flat reduce+broadcast of the given payload: a
// barrier-synchronised exchange plus the bandwidth/latency cost of moving
// the data up and down.
func (r *Rank) Allreduce(bytes int64) {
	r.lib.Compute(sim.Duration(2 * float64(bytes) / copyBytesPerNs))
	r.Barrier()
	log2 := 0
	for n := 1; n < r.w.size; n <<= 1 {
		log2++
	}
	r.lib.Compute(sim.Duration(log2) * 2 * sim.Microsecond)
	r.Barrier()
}
