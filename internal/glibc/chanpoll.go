package glibc

import (
	"repro/internal/kernel"
	"repro/internal/nosv"
	"repro/internal/sim"
)

// Chan is a pipe-like message queue shared between threads and processes
// (request queues in the microservices workload). Its blocking receive is
// condvar-shaped — the way Python's queue.Queue or a blocking pipe read
// through a buffered reader behaves — so glibcv intercepts it naturally.
// Poll over several Chans models poll(2)/epoll(7), including glibcv's
// 5 ms nosv_waitfor loop (§4.3.4).
type Chan struct {
	k   *kernel.Kernel
	buf []any

	// standard-backend reader wakeups
	f *kernel.Futex
	// glibcv reader queue
	q []*nosv.Task
	// registered baseline pollers (their private futexes get poked on
	// every send)
	pollers []*kernel.Futex
}

// NewChan creates a message queue. It is not tied to one process: each
// blocking call uses the calling thread's own library backend.
func NewChan(k *kernel.Kernel) *Chan {
	return &Chan{k: k, f: k.NewFutex()}
}

// libOf resolves the calling thread's Lib.
func libOf(k *kernel.Kernel) *Lib {
	kt := k.Current()
	if kt == nil {
		panic("glibc: channel op outside thread context")
	}
	l, _ := kt.Proc.Libc.(*Lib)
	if l == nil {
		panic("glibc: calling process has no glibc instance")
	}
	return l
}

// Len returns the number of queued messages.
func (ch *Chan) Len() int { return len(ch.buf) }

// Send enqueues v and wakes one blocked reader plus any pollers. Send may
// also be called from event context (external request generators).
func (ch *Chan) Send(v any) {
	ch.buf = append(ch.buf, v)
	ch.f.Word = int32(len(ch.buf))
	if len(ch.q) > 0 {
		t := ch.q[0]
		ch.q = ch.q[1:]
		// The task's owning process instance resubmits it.
		inst := instOfTask(t)
		inst.Submit(t)
	}
	ch.f.Wake(1)
	for _, pf := range ch.pollers {
		pf.Word = 1
		pf.Wake(1)
	}
}

func instOfTask(t *nosv.Task) *nosv.Instance {
	l, _ := t.Worker().KT.Proc.Libc.(*Lib)
	return l.Inst
}

// Recv blocks until a message is available and returns it.
func (ch *Chan) Recv() any {
	l := libOf(ch.k)
	pt := l.Self()
	for len(ch.buf) == 0 {
		if l.Inst != nil {
			ch.q = append(ch.q, pt.task)
			l.Inst.Pause(pt.task)
			continue
		}
		ch.f.Word = int32(len(ch.buf))
		ch.f.Wait(pt.KT, 0, -1)
	}
	v := ch.buf[0]
	ch.buf = ch.buf[1:]
	ch.f.Word = int32(len(ch.buf))
	return v
}

// TryRecv returns (value, true) if a message was available.
func (ch *Chan) TryRecv() (any, bool) {
	if len(ch.buf) == 0 {
		return nil, false
	}
	v := ch.buf[0]
	ch.buf = ch.buf[1:]
	ch.f.Word = int32(len(ch.buf))
	return v, true
}

// PollInterval is glibcv's nosv_waitfor polling period (§4.3.4).
const PollInterval = 5 * sim.Millisecond

// Poll blocks until one of the channels has a message or timeout expires
// (negative = infinite). It returns the index of a ready channel, or -1 on
// timeout. The standard backend registers wakeups and sleeps on a private
// futex; glibcv loops non-blocking checks with 5 ms timed waits, exactly
// like the paper's timed poll extension.
func Poll(k *kernel.Kernel, chans []*Chan, timeout sim.Duration) int {
	l := libOf(k)
	pt := l.Self()
	ready := func() int {
		for i, ch := range chans {
			if len(ch.buf) > 0 {
				return i
			}
		}
		return -1
	}
	deadline := sim.Forever
	if timeout >= 0 {
		deadline = k.Eng.Now().Add(timeout)
	}
	if l.Inst != nil {
		for {
			if i := ready(); i >= 0 {
				return i
			}
			now := k.Eng.Now()
			if now >= deadline {
				return -1
			}
			wait := PollInterval
			if remaining := deadline.Sub(now); remaining < wait {
				wait = remaining
			}
			l.Inst.Waitfor(pt.task, wait)
		}
	}
	pf := k.NewFutex()
	for _, ch := range chans {
		ch.pollers = append(ch.pollers, pf)
	}
	defer func() {
		for _, ch := range chans {
			for i, x := range ch.pollers {
				if x == pf {
					copy(ch.pollers[i:], ch.pollers[i+1:])
					ch.pollers = ch.pollers[:len(ch.pollers)-1]
					break
				}
			}
		}
	}()
	for {
		if i := ready(); i >= 0 {
			return i
		}
		now := k.Eng.Now()
		if now >= deadline {
			return -1
		}
		wait := sim.Duration(-1)
		if deadline != sim.Forever {
			wait = deadline.Sub(now)
		}
		pf.Word = 0
		pf.Wait(pt.KT, 0, wait)
	}
}
