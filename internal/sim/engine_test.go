package sim

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	e.At(5, func() { ev.Cancel() })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestAfterClampsNegative(t *testing.T) {
	e := NewEngine(1)
	fired := Time(-1)
	e.After(-5, func() { fired = e.Now() })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("negative After fired at %v, want 0", fired)
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(10, func() { fired = append(fired, 10) })
	e.At(100, func() { fired = append(fired, 100) })
	now, err := e.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if now != 50 || len(fired) != 1 {
		t.Fatalf("Run(50) = %v, fired %v", now, fired)
	}
	now, err = e.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if now != 100 || len(fired) != 2 {
		t.Fatalf("RunAll = %v, fired %v", now, fired)
	}
}

func TestProcParkReady(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	p := e.Spawn("worker", func(p *Proc) {
		trace = append(trace, "start")
		p.Park()
		trace = append(trace, "resumed")
	})
	e.Ready(p)
	e.At(10, func() {
		trace = append(trace, "wake")
		e.Ready(p)
	})
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"start", "wake", "resumed"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if p.State() != ProcExited {
		t.Fatalf("state = %v, want exited", p.State())
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	p := e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1234)
		woke = e.Now()
	})
	e.Ready(p)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if woke != 1234 {
		t.Fatalf("woke at %v, want 1234", woke)
	}
}

func TestDoubleReadyIsSingleResume(t *testing.T) {
	e := NewEngine(1)
	resumes := 0
	p := e.Spawn("w", func(p *Proc) {
		p.Park()
		resumes++
		p.Park()
		resumes++
	})
	e.Ready(p)
	e.At(1, func() {
		e.Ready(p)
		e.Ready(p) // duplicate must collapse
	})
	e.At(2, func() { e.Ready(p) })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if resumes != 2 {
		t.Fatalf("resumes = %d, want 2", resumes)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("stuck", func(p *Proc) { p.Park() })
	e.Ready(p)
	if _, err := e.RunAll(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []int {
		e := NewEngine(42)
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			p := e.Spawn("w", func(p *Proc) {
				p.Sleep(Duration(e.Rand("d").Intn(1000) + 1))
				order = append(order, i)
			})
			e.Ready(p)
		}
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: run1[%d]=%d run2[%d]=%d", i, a[i], i, b[i])
		}
	}
}

func TestQueuePropertyOrdered(t *testing.T) {
	// Property: events always fire in nondecreasing (at, seq) order no
	// matter the insertion pattern.
	f := func(times []uint16) bool {
		e := NewEngine(7)
		var fired []Time
		for _, tt := range times {
			at := Time(tt)
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		if _, err := e.RunAll(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandStreamsIndependent(t *testing.T) {
	r := NewRand(99)
	a := r.Stream("alpha")
	b := r.Stream("beta")
	a2 := NewRand(99).Stream("alpha")
	if a.Uint64() != a2.Uint64() {
		t.Fatal("same-label streams differ")
	}
	if a.Uint64() == b.Uint64() {
		t.Fatal("different-label streams collide (unlikely)")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(8)
	for i := 0; i < 1000; i++ {
		d := r.Jitter(1000, 0.1)
		if d < 900 || d > 1100 {
			t.Fatalf("jitter out of bounds: %v", d)
		}
	}
	if r.Jitter(1000, 0) != 1000 {
		t.Fatal("zero jitter must be identity")
	}
}

func TestKillUnwindsParkedProc(t *testing.T) {
	e := NewEngine(1)
	cleaned := false
	p := e.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Park() // never resumed normally
		t.Error("victim continued past Park")
	})
	e.Ready(p)
	e.At(5, func() { e.Kill(p) })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if p.State() != ProcExited {
		t.Fatalf("state = %v, want exited", p.State())
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d", e.Live())
	}
}

func TestKillBeforeFirstRun(t *testing.T) {
	e := NewEngine(1)
	ran := false
	p := e.Spawn("never", func(p *Proc) { ran = true })
	e.Kill(p)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("killed proc ran its body")
	}
}

// TestProcPanicSurfacesFromRunAll: a panic inside a proc body reaches
// the RunAll caller as an error naming the proc and carrying the proc's
// own stack, and leaves no proc current.
func TestProcPanicSurfacesFromRunAll(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("bomb", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	e.Ready(p)
	r := func() (r any) {
		defer func() { r = recover() }()
		e.RunAll()
		return nil
	}()
	err, ok := r.(error)
	if !ok {
		t.Fatalf("RunAll did not panic with an error: %v", r)
	}
	if want := "sim: panic in proc 1 (bomb): boom\n"; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("panic = %q, want prefix %q", err, want)
	}
	if !strings.Contains(err.Error(), "TestProcPanicSurfacesFromRunAll.func") {
		t.Fatalf("panic report lacks the proc's stack:\n%v", err)
	}
	if e.Current() != nil {
		t.Fatalf("Current() = %v after proc panic, want nil", e.Current())
	}
	if p.State() != ProcExited || e.Live() != 0 {
		t.Fatalf("state %v live %d after proc panic", p.State(), e.Live())
	}
}

// TestKillAllReleasesGoroutines: after a horizon stop, KillAll unwinds
// every live proc — parked, sleeping, or never started — and each
// proc's host goroutine exits.
func TestKillAllReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	unwound := 0
	for i := 0; i < 8; i++ {
		i := i
		p := e.Spawn("p", func(p *Proc) {
			defer func() { unwound++ }()
			if i%2 == 0 {
				p.Park()
			}
			p.Sleep(Second)
		})
		if i < 6 {
			e.Ready(p)
		}
	}
	if _, hit, err := e.RunHorizon(Millisecond); err != nil || !hit {
		t.Fatalf("hit %v err %v", hit, err)
	}
	if e.Live() != 8 || runtime.NumGoroutine() < base+8 {
		t.Fatalf("live %d goroutines %d (base %d) before KillAll", e.Live(), runtime.NumGoroutine(), base)
	}
	e.KillAll()
	if e.Live() != 0 || unwound != 6 {
		t.Fatalf("live %d unwound %d after KillAll, want 0 and 6", e.Live(), unwound)
	}
	waitGoroutines(t, base)
}

// waitGoroutines waits (bounded) for the host goroutine count to fall
// back to base: exiting goroutines are reaped asynchronously.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop must halt)", count)
	}
	// Remaining event still runs on the next call.
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestStopBeforeRunIsNotLost(t *testing.T) {
	// Regression: Run used to reset the stop flag unconditionally, so a
	// Stop issued between (or before) Run calls was silently discarded.
	e := NewEngine(1)
	count := 0
	e.At(1, func() { count++ })
	e.Stop()
	if end, err := e.RunAll(); err != nil {
		t.Fatal(err)
	} else if end != 0 {
		t.Fatalf("stopped Run advanced the clock to %v", end)
	}
	if count != 0 {
		t.Fatalf("count = %d: pre-Run Stop processed events", count)
	}
	// The stop request is consumed by exactly one Run: the next call
	// processes events normally.
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1 after resumed Run", count)
	}
}

func TestStopBetweenRunsIsNotLost(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(1, func() { count++ })
	e.At(10, func() { count++ })
	if _, err := e.Run(5); err != nil { // horizon return, no stop involved
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1 after horizon run", count)
	}
	e.Stop()
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d: between-Runs Stop was lost", count)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestProcessedCountsFiredEvents(t *testing.T) {
	e := NewEngine(1)
	if e.Processed() != 0 {
		t.Fatalf("fresh engine processed = %d", e.Processed())
	}
	for i := 0; i < 5; i++ {
		e.After(Duration(i+1)*Millisecond, func() {})
	}
	// A cancelled event never fires, so it must not count.
	ev := e.AfterFunc(10*Millisecond, func(any) {}, nil)
	ev.Cancel()
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if e.Processed() != 5 {
		t.Fatalf("processed = %d, want 5", e.Processed())
	}
}
