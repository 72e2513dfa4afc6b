package glibc

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// forBothBackends runs a subtest under the standard backend and glibcv.
func forBothBackends(t *testing.T, cores int, body func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options)) {
	t.Helper()
	for _, mode := range []string{"standard", "usf"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			cfg := hw.SmallNode()
			cfg.Topo.CoresPerSocket = cores
			cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
			eng := sim.NewEngine(1)
			k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
			opts := Options{}
			if mode == "usf" {
				opts.USF = true
			}
			body(t, eng, k, opts)
		})
	}
}

func mustStart(t *testing.T, k *kernel.Kernel, name string, opts Options, main func(l *Lib)) *Lib {
	t.Helper()
	l, err := StartProcess(k, name, opts, main)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustRun(t *testing.T, eng *sim.Engine) {
	t.Helper()
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateJoinReturnsValue(t *testing.T) {
	forBothBackends(t, 4, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		var got any
		mustStart(t, k, "app", opts, func(l *Lib) {
			pt := l.PthreadCreate("child", func() {
				l.Compute(2 * sim.Millisecond)
				l.PthreadExit("result")
			})
			got = l.PthreadJoin(pt)
		})
		mustRun(t, eng)
		if got != "result" {
			t.Fatalf("join value = %v, want result", got)
		}
	})
}

func TestManyThreadsAllRun(t *testing.T) {
	forBothBackends(t, 4, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		count := 0
		mustStart(t, k, "app", opts, func(l *Lib) {
			var pts []*Pthread
			for i := 0; i < 16; i++ {
				pts = append(pts, l.PthreadCreate("w", func() {
					l.Compute(1 * sim.Millisecond)
					count++
				}))
			}
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
		})
		mustRun(t, eng)
		if count != 16 {
			t.Fatalf("count = %d", count)
		}
	})
}

func TestMutexMutualExclusion(t *testing.T) {
	forBothBackends(t, 4, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		inside, maxInside, total := 0, 0, 0
		mustStart(t, k, "app", opts, func(l *Lib) {
			m := l.NewMutex()
			var pts []*Pthread
			for i := 0; i < 8; i++ {
				pts = append(pts, l.PthreadCreate("w", func() {
					for j := 0; j < 5; j++ {
						m.Lock()
						inside++
						if inside > maxInside {
							maxInside = inside
						}
						l.Compute(200 * sim.Microsecond)
						inside--
						total++
						m.Unlock()
						l.Compute(100 * sim.Microsecond)
					}
				}))
			}
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
		})
		mustRun(t, eng)
		if maxInside != 1 {
			t.Fatalf("maxInside = %d, mutual exclusion violated", maxInside)
		}
		if total != 40 {
			t.Fatalf("total = %d", total)
		}
	})
}

func TestMutexTryLock(t *testing.T) {
	forBothBackends(t, 2, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		mustStart(t, k, "app", opts, func(l *Lib) {
			m := l.NewMutex()
			if !m.TryLock() {
				t.Error("TryLock on free mutex failed")
			}
			if m.TryLock() {
				t.Error("TryLock on held mutex succeeded")
			}
			m.Unlock()
			if !m.TryLock() {
				t.Error("TryLock after unlock failed")
			}
			m.Unlock()
		})
		mustRun(t, eng)
	})
}

func TestCondSignalWakesWaiter(t *testing.T) {
	forBothBackends(t, 4, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		var wokenAt sim.Time
		mustStart(t, k, "app", opts, func(l *Lib) {
			m := l.NewMutex()
			c := l.NewCond()
			flag := false
			waiter := l.PthreadCreate("waiter", func() {
				m.Lock()
				for !flag {
					c.Wait(m)
				}
				m.Unlock()
				wokenAt = k.Eng.Now()
			})
			l.Compute(5 * sim.Millisecond)
			m.Lock()
			flag = true
			c.Signal()
			m.Unlock()
			l.PthreadJoin(waiter)
		})
		mustRun(t, eng)
		if wokenAt < sim.Time(5*sim.Millisecond) {
			t.Fatalf("woken at %v, before signal", wokenAt)
		}
	})
}

func TestCondBroadcastWakesAll(t *testing.T) {
	forBothBackends(t, 4, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		woken := 0
		mustStart(t, k, "app", opts, func(l *Lib) {
			m := l.NewMutex()
			c := l.NewCond()
			flag := false
			var pts []*Pthread
			for i := 0; i < 6; i++ {
				pts = append(pts, l.PthreadCreate("w", func() {
					m.Lock()
					for !flag {
						c.Wait(m)
					}
					m.Unlock()
					woken++
				}))
			}
			l.Compute(3 * sim.Millisecond)
			m.Lock()
			flag = true
			c.Broadcast()
			m.Unlock()
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
		})
		mustRun(t, eng)
		if woken != 6 {
			t.Fatalf("woken = %d", woken)
		}
	})
}

func TestCondTimedWaitTimesOut(t *testing.T) {
	forBothBackends(t, 2, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		var timedOut bool
		var at sim.Time
		mustStart(t, k, "app", opts, func(l *Lib) {
			m := l.NewMutex()
			c := l.NewCond()
			m.Lock()
			timedOut = c.TimedWait(m, 8*sim.Millisecond)
			m.Unlock()
			at = k.Eng.Now()
		})
		mustRun(t, eng)
		if !timedOut {
			t.Fatal("expected timeout")
		}
		if at != sim.Time(8*sim.Millisecond) {
			t.Fatalf("timed out at %v, want 8ms", at)
		}
	})
}

func TestBarrierReleasesTogether(t *testing.T) {
	forBothBackends(t, 4, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		const n = 4
		arrivals := make([]sim.Time, 0, n)
		departures := make([]sim.Time, 0, n)
		serials := 0
		mustStart(t, k, "app", opts, func(l *Lib) {
			b := l.NewBarrier(n)
			var pts []*Pthread
			for i := 0; i < n; i++ {
				i := i
				pts = append(pts, l.PthreadCreate("w", func() {
					l.Compute(sim.Duration(i+1) * sim.Millisecond)
					arrivals = append(arrivals, k.Eng.Now())
					if b.Wait() {
						serials++
					}
					departures = append(departures, k.Eng.Now())
				}))
			}
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
		})
		mustRun(t, eng)
		if serials != 1 {
			t.Fatalf("serial threads = %d, want exactly 1", serials)
		}
		lastArrival := arrivals[len(arrivals)-1]
		for _, d := range departures {
			if d < lastArrival {
				t.Fatalf("departure %v before last arrival %v", d, lastArrival)
			}
		}
	})
}

func TestSemaphoreCounts(t *testing.T) {
	forBothBackends(t, 4, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		inside, maxInside := 0, 0
		mustStart(t, k, "app", opts, func(l *Lib) {
			s := l.NewSem(2)
			var pts []*Pthread
			for i := 0; i < 6; i++ {
				pts = append(pts, l.PthreadCreate("w", func() {
					s.Wait()
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					l.Compute(1 * sim.Millisecond)
					inside--
					s.Post()
				}))
			}
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
		})
		mustRun(t, eng)
		if maxInside != 2 {
			t.Fatalf("maxInside = %d, want 2 (sem value)", maxInside)
		}
	})
}

func TestSemTryWait(t *testing.T) {
	forBothBackends(t, 2, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		mustStart(t, k, "app", opts, func(l *Lib) {
			s := l.NewSem(1)
			if !s.TryWait() {
				t.Error("TryWait on positive sem failed")
			}
			if s.TryWait() {
				t.Error("TryWait on zero sem succeeded")
			}
			s.Post()
			if s.Value() != 1 {
				t.Errorf("Value = %d", s.Value())
			}
		})
		mustRun(t, eng)
	})
}

func TestSleepAndYield(t *testing.T) {
	forBothBackends(t, 2, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		var at sim.Time
		mustStart(t, k, "app", opts, func(l *Lib) {
			l.Sleep(12 * sim.Millisecond)
			l.SchedYield()
			at = k.Eng.Now()
		})
		mustRun(t, eng)
		if at < sim.Time(12*sim.Millisecond) {
			t.Fatalf("resumed at %v, want >= 12ms", at)
		}
	})
}

func TestAffinityHintSemantics(t *testing.T) {
	// Under USF, setaffinity must be recorded but NOT applied; the
	// query must return the stored mask (§4.3.2). Under the standard
	// backend it is applied for real.
	forBothBackends(t, 4, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		usf := opts.USF
		mustStart(t, k, "app", opts, func(l *Lib) {
			self := l.Self()
			want := kernel.NewMask(2)
			l.SetAffinity(self, want)
			got := l.GetAffinity(self)
			if !got.Equal(want) {
				t.Errorf("GetAffinity = %v, want %v", got, want)
			}
			if usf {
				// the real kernel mask must be nOS-V's single-core
				// pin, not the user's mask... unless they coincide;
				// check it was not *changed to* the hint by us:
				// glibcv stores, nOS-V owns the actual affinity.
				real := self.KT.Affinity()
				if real.IsEmpty() {
					t.Error("under USF nOS-V should have pinned the worker")
				}
			} else {
				l.Compute(1 * sim.Millisecond)
				if self.KT.CurrentCore() != 2 {
					t.Errorf("standard backend must apply affinity; on core %d", self.KT.CurrentCore())
				}
			}
		})
		mustRun(t, eng)
	})
}

func TestThreadCacheReuse(t *testing.T) {
	cfg := hw.SmallNode()
	cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	var lib *Lib
	mustStart(t, k, "app", Options{USF: true}, func(l *Lib) {
		lib = l
		// Sequential create+join: after the first, creates must hit
		// the cache and reuse the same kernel thread.
		var kts []*kernel.Thread
		for i := 0; i < 5; i++ {
			pt := l.PthreadCreate("w", func() {
				l.Compute(500 * sim.Microsecond)
			})
			l.PthreadJoin(pt)
			kts = append(kts, pt.KT)
		}
		for i := 2; i < len(kts); i++ {
			if kts[i] != kts[1] {
				t.Errorf("create %d did not reuse cached thread", i)
			}
		}
	})
	mustRun(t, eng)
	if lib.Stats.CacheHits < 3 {
		t.Fatalf("cache hits = %d, want >= 3", lib.Stats.CacheHits)
	}
	if k.Stats.ThreadsCreated > 4 {
		t.Fatalf("kernel threads created = %d; caching should reuse", k.Stats.ThreadsCreated)
	}
}

func TestThreadCacheDisabled(t *testing.T) {
	cfg := hw.SmallNode()
	cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	mustStart(t, k, "app", Options{USF: true, DisableThreadCache: true}, func(l *Lib) {
		for i := 0; i < 3; i++ {
			pt := l.PthreadCreate("w", func() { l.Compute(100 * sim.Microsecond) })
			l.PthreadJoin(pt)
		}
		if l.Stats.CacheHits != 0 {
			t.Errorf("cache hits = %d with cache disabled", l.Stats.CacheHits)
		}
	})
	mustRun(t, eng)
}

func TestChanSendRecv(t *testing.T) {
	forBothBackends(t, 4, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		var got []int
		mustStart(t, k, "app", opts, func(l *Lib) {
			ch := NewChan(k)
			consumer := l.PthreadCreate("consumer", func() {
				for i := 0; i < 3; i++ {
					got = append(got, ch.Recv().(int))
				}
			})
			for i := 0; i < 3; i++ {
				l.Compute(1 * sim.Millisecond)
				ch.Send(i)
			}
			l.PthreadJoin(consumer)
		})
		mustRun(t, eng)
		if len(got) != 3 || got[0] != 0 || got[2] != 2 {
			t.Fatalf("got = %v", got)
		}
	})
}

func TestPollReturnsReadyChannel(t *testing.T) {
	forBothBackends(t, 4, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		var idx int
		mustStart(t, k, "app", opts, func(l *Lib) {
			a, b := NewChan(k), NewChan(k)
			producer := l.PthreadCreate("producer", func() {
				l.Compute(7 * sim.Millisecond)
				b.Send("hello")
			})
			idx = Poll(k, []*Chan{a, b}, -1)
			l.PthreadJoin(producer)
		})
		mustRun(t, eng)
		if idx != 1 {
			t.Fatalf("Poll = %d, want 1", idx)
		}
	})
}

func TestPollTimeout(t *testing.T) {
	forBothBackends(t, 2, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		var idx int
		var at sim.Time
		mustStart(t, k, "app", opts, func(l *Lib) {
			a := NewChan(k)
			idx = Poll(k, []*Chan{a}, 9*sim.Millisecond)
			at = k.Eng.Now()
		})
		mustRun(t, eng)
		if idx != -1 {
			t.Fatalf("Poll = %d, want -1 (timeout)", idx)
		}
		if at < sim.Time(9*sim.Millisecond) || at > sim.Time(15*sim.Millisecond) {
			t.Fatalf("timed out at %v, want ~9ms", at)
		}
	})
}

func TestUSFNoKernelOversubscription(t *testing.T) {
	// 32 compute-bound pthreads on 8 cores: glibcv keeps kernel-level
	// runnable threads at <= cores, so (almost) no preemptions; the
	// standard backend preempts heavily.
	results := map[string]int64{}
	forBothBackends(t, 8, func(t *testing.T, eng *sim.Engine, k *kernel.Kernel, opts Options) {
		mustStart(t, k, "app", opts, func(l *Lib) {
			var pts []*Pthread
			for i := 0; i < 32; i++ {
				pts = append(pts, l.PthreadCreate("w", func() {
					l.Compute(30 * sim.Millisecond)
				}))
			}
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
		})
		mustRun(t, eng)
		if opts.USF {
			results["usf"] = k.Stats.Preemptions
		} else {
			results["standard"] = k.Stats.Preemptions
		}
	})
	if results["usf"]*10 >= results["standard"]+10 {
		t.Fatalf("preemptions usf=%d standard=%d; USF must virtually eliminate them",
			results["usf"], results["standard"])
	}
}

func TestMultiProcessSegmentSharing(t *testing.T) {
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = 2
	cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	done := 0
	for p := 0; p < 3; p++ {
		mustStart(t, k, "proc", Options{USF: true}, func(l *Lib) {
			var pts []*Pthread
			for i := 0; i < 4; i++ {
				pts = append(pts, l.PthreadCreate("w", func() {
					l.Compute(2 * sim.Millisecond)
				}))
			}
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
			done++
		})
	}
	mustRun(t, eng)
	if done != 3 {
		t.Fatalf("processes finished = %d", done)
	}
}

func TestKernelEmitsTrace(t *testing.T) {
	cfg := hw.SmallNode()
	cfg.Costs = hw.Costs{CacheRefillBytesPerNs: 1, L2Bytes: 1}
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	k.Tracer = trace.NewBuffer(0)
	mustStart(t, k, "app", Options{}, func(l *Lib) {
		pt := l.PthreadCreate("child", func() {
			l.Compute(1 * sim.Millisecond)
			l.Sleep(1 * sim.Millisecond)
			l.Compute(1 * sim.Millisecond)
		})
		l.PthreadJoin(pt)
	})
	mustRun(t, eng)
	kinds := map[trace.Kind]int{}
	sawChild := false
	for _, e := range k.Tracer.Events() {
		kinds[e.Kind]++
		if strings.Contains(e.Thread, "child") {
			sawChild = true
		}
	}
	if kinds[trace.KindRunStart] == 0 || kinds[trace.KindRunEnd] == 0 || kinds[trace.KindWake] == 0 {
		t.Fatalf("missing event kinds: %v", kinds)
	}
	if kinds[trace.KindRunStart] != kinds[trace.KindRunEnd] {
		t.Fatalf("unbalanced run slices: %v", kinds)
	}
	if !sawChild {
		t.Fatal("child thread never traced")
	}
	var buf bytes.Buffer
	if err := k.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}

// TestKillBeforeStartExitsThread: a one-core process's main thread
// returns while the pthread it just created is still queued, so process
// exit kills a thread whose code never started. It must leave the kernel
// as any exit does: counted, off its runqueue, not runnable, so the run
// ends at once instead of dispatching a dead thread until the horizon.
func TestKillBeforeStartExitsThread(t *testing.T) {
	cfg := hw.SmallNode()
	cfg.Topo.CoresPerSocket = 1
	eng := sim.NewEngine(1)
	k := kernel.New(eng, cfg, kernel.DefaultSchedParams())
	var child *Pthread
	mustStart(t, k, "app", Options{}, func(l *Lib) {
		child = l.PthreadCreate("child", func() { t.Error("killed thread ran") })
		l.Compute(1500 * sim.Microsecond)
	})
	end, hit, err := eng.RunHorizon(sim.Second)
	if err != nil || hit || end >= sim.Time(sim.Second) {
		t.Fatalf("run ended at %v (horizon hit %v, err %v)", end, hit, err)
	}
	if k.Stats.ThreadsExited != 2 || k.Stats.ThreadsCreated != 2 {
		t.Fatalf("%d of %d threads exited", k.Stats.ThreadsExited, k.Stats.ThreadsCreated)
	}
	if child.KT.State() != kernel.ThreadExited || k.TotalRunnable() != 0 || eng.Live() != 0 {
		t.Fatalf("child %v, %d runnable, %d live procs", child.KT.State(), k.TotalRunnable(), eng.Live())
	}
}
