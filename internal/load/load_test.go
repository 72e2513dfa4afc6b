package load

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// collect runs src for n arrivals on a fresh engine and returns the
// submission times. Each request completes service seconds after
// submission (feeding closed-loop sources).
func collect(t *testing.T, src Source, seed uint64, n int, service sim.Duration) []sim.Time {
	t.Helper()
	eng := sim.NewEngine(seed)
	var times []sim.Time
	src.Start(eng, eng.Rand("client"), n, func(id int) {
		if id != len(times) {
			t.Fatalf("out-of-order submit: id %d at position %d", id, len(times))
		}
		times = append(times, eng.Now())
		eng.After(service, func() { src.Completed(id) })
	})
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(times) != n {
		t.Fatalf("%d arrivals, want %d", len(times), n)
	}
	return times
}

// meanGap returns the mean inter-arrival time in seconds.
func meanGap(times []sim.Time) float64 {
	if len(times) < 2 {
		return 0
	}
	span := times[len(times)-1].Sub(times[0]).Seconds()
	return span / float64(len(times)-1)
}

func TestPoissonHitsConfiguredRate(t *testing.T) {
	const rate = 10.0
	times := collect(t, &Poisson{Rate: rate}, 1, 5000, sim.Millisecond)
	got := meanGap(times)
	want := 1 / rate
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("poisson mean gap %.4fs, want %.4fs ±5%%", got, want)
	}
}

func TestBurstyHitsMeanRateAndIsBurstier(t *testing.T) {
	// Equal mean dwell in each state → long-run rate (Base+Burst)/2.
	src := &Bursty{Base: 4, Burst: 36, MeanDwell: 5 * sim.Second}
	times := collect(t, src, 2, 8000, sim.Millisecond)
	got := meanGap(times)
	want := 1 / 20.0
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("bursty mean gap %.4fs, want %.4fs ±10%%", got, want)
	}
	// Burstiness: the squared coefficient of variation of inter-arrival
	// times must exceed a Poisson process's (CV² = 1).
	var gaps []float64
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, times[i].Sub(times[i-1]).Seconds())
	}
	mean, varsum := 0.0, 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	cv2 := varsum / float64(len(gaps)) / (mean * mean)
	if cv2 <= 1.1 {
		t.Fatalf("bursty CV² = %.2f, want > 1.1 (burstier than Poisson)", cv2)
	}
}

func TestRampHitsMeanRate(t *testing.T) {
	// Sinusoid between Low and High averages (Low+High)/2 over whole
	// periods.
	src := &Ramp{Low: 5, High: 15, Period: 20 * sim.Second}
	times := collect(t, src, 3, 6000, sim.Millisecond)
	got := meanGap(times)
	want := 1 / 10.0
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("ramp mean gap %.4fs, want %.4fs ±10%%", got, want)
	}
}

func TestClosedLoopSelfRegulates(t *testing.T) {
	// 4 clients, 1s mean think, 0.5s service: each client cycles every
	// ~1.5s, so ~2.67 req/s aggregate.
	src := &Closed{Clients: 4, Think: sim.Second}
	const service = 500 * sim.Millisecond
	eng := sim.NewEngine(4)
	var times []sim.Time
	inflight, peak := 0, 0
	src.Start(eng, eng.Rand("client"), 2000, func(id int) {
		times = append(times, eng.Now())
		inflight++
		if inflight > peak {
			peak = inflight
		}
		eng.After(service, func() {
			inflight--
			src.Completed(id)
		})
	})
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2000 {
		t.Fatalf("%d arrivals, want 2000", len(times))
	}
	if peak > 4 {
		t.Fatalf("closed loop exceeded client count: %d in flight", peak)
	}
	got := meanGap(times)
	want := 1.5 / 4 // cycle time / clients
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("closed-loop mean gap %.4fs, want %.4fs ±10%%", got, want)
	}
}

func TestReplayIsExact(t *testing.T) {
	at := []sim.Duration{0, 100 * sim.Millisecond, 150 * sim.Millisecond, sim.Second}
	times := collect(t, &Replay{At: at}, 5, 4, sim.Millisecond)
	for i, want := range at {
		if got := times[i].Sub(0); got != want {
			t.Fatalf("replay[%d] at %v, want exactly %v", i, got, want)
		}
	}
	// Replay consumes no randomness: a different seed gives the same
	// arrival times.
	other := collect(t, &Replay{At: at}, 99, 4, sim.Millisecond)
	for i := range times {
		if times[i] != other[i] {
			t.Fatalf("replay depends on seed: %v vs %v", times[i], other[i])
		}
	}
}

func TestReplayCyclesBeyondTrace(t *testing.T) {
	at := []sim.Duration{0, 1 * sim.Second, 2 * sim.Second}
	times := collect(t, &Replay{At: at}, 5, 5, sim.Millisecond)
	// Cycle 1 repeats the trace with a period of span + mean gap (2s +
	// 1s), so the seam between cycles carries the trace's 1s gap.
	if times[3].Sub(0) != 3*sim.Second || times[4].Sub(0) != 4*sim.Second {
		t.Fatalf("cycled replay times %v", times)
	}
	if gap := times[3].Sub(times[2]); gap != sim.Second {
		t.Fatalf("seam gap %v, want the trace's 1s mean gap", gap)
	}
	// A single-offset trace repeats back to back at its offset.
	one := collect(t, &Replay{At: []sim.Duration{500 * sim.Millisecond}}, 5, 3, sim.Millisecond)
	for i, tm := range one {
		if tm.Sub(0) != 500*sim.Millisecond {
			t.Fatalf("single-offset replay[%d] at %v", i, tm.Sub(0))
		}
	}
}

func TestSourceParamValidation(t *testing.T) {
	// Degenerate parameters must fail loudly at Start, not hang the
	// simulation (e.g. a zero MeanDwell used to spin forever extending
	// the state timeline by zero-length dwells).
	bad := []Source{
		&Poisson{},
		&Bursty{Base: 4, Burst: 16}, // MeanDwell missing
		&Bursty{Burst: 16, MeanDwell: sim.Second},
		&Ramp{Low: 2, High: 1, Period: sim.Second},
		&Ramp{Low: 1, High: 2},
		&Closed{Clients: 4},
		&Closed{Think: sim.Second}, // Clients missing
	}
	for i, src := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("source %d (%s) accepted degenerate parameters", i, src.Name())
				}
			}()
			eng := sim.NewEngine(1)
			src.Start(eng, eng.Rand("client"), 1, func(int) {})
		}()
	}
}

func TestSourcesDeterministicPerSeed(t *testing.T) {
	mk := func() []Source {
		return []Source{
			&Poisson{Rate: 8},
			&Bursty{Base: 2, Burst: 20, MeanDwell: 2 * sim.Second},
			&Ramp{Low: 2, High: 10, Period: 10 * sim.Second},
			&Closed{Clients: 3, Think: sim.Second},
		}
	}
	a, b := mk(), mk()
	for i := range a {
		ta := collect(t, a[i], 7, 200, 100*sim.Millisecond)
		tb := collect(t, b[i], 7, 200, 100*sim.Millisecond)
		for j := range ta {
			if ta[j] != tb[j] {
				t.Fatalf("%s not deterministic at arrival %d: %v vs %v",
					a[i].Name(), j, ta[j], tb[j])
			}
		}
		// And a different seed perturbs the sequence.
		tc := collect(t, mk()[i], 8, 200, 100*sim.Millisecond)
		same := true
		for j := range ta {
			if ta[j] != tc[j] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s ignores the seed", a[i].Name())
		}
	}
}

func TestMeterStatsAndSLO(t *testing.T) {
	m := NewMeter(100 * sim.Millisecond)
	// 10 requests back to back; latencies 10ms..190ms in 20ms steps: 5
	// meet the 100ms SLO, 5 violate it.
	for i := 0; i < 10; i++ {
		m.Submitted(sim.Time(i) * sim.Time(sim.Millisecond))
	}
	if m.InFlight() != 10 {
		t.Fatalf("in flight = %d", m.InFlight())
	}
	for i := 0; i < 10; i++ {
		sub := sim.Time(i) * sim.Time(sim.Millisecond)
		lat := sim.Duration(10+20*i) * sim.Millisecond
		if got := m.Completed(sub, sub.Add(lat)); got != lat {
			t.Fatalf("latency %v, want %v", got, lat)
		}
	}
	st := m.Stats()
	if st.Offered != 10 || st.Completed != 10 || m.InFlight() != 0 {
		t.Fatalf("counts: %+v", st)
	}
	if st.Violations != 5 || st.ViolationFrac != 0.5 {
		t.Fatalf("violations: %+v", st)
	}
	if st.Mean != 100*sim.Millisecond {
		t.Fatalf("mean = %v", st.Mean)
	}
	if st.Min != 10*sim.Millisecond || st.Max != 190*sim.Millisecond {
		t.Fatalf("extrema: %v / %v", st.Min, st.Max)
	}
	// Goodput counts only SLO-met completions over the same span.
	if st.Goodput >= st.Throughput || st.Goodput <= 0 {
		t.Fatalf("goodput %v vs throughput %v", st.Goodput, st.Throughput)
	}
	if st.MeetsSLO(0.4) || !st.MeetsSLO(0.5) {
		t.Fatalf("MeetsSLO budget logic wrong: frac %v", st.ViolationFrac)
	}
}

func TestMeterEmptyAndSLODisabled(t *testing.T) {
	m := NewMeter(0)
	st := m.Stats()
	if st.Completed != 0 || st.Throughput != 0 || !st.MeetsSLO(0) {
		t.Fatalf("empty meter stats %+v", st)
	}
	// SLO 0 disables violation accounting.
	m.Submitted(0)
	m.Completed(0, sim.Time(sim.Second))
	if st := m.Stats(); st.Violations != 0 || st.Goodput != st.Throughput {
		t.Fatalf("SLO-disabled stats %+v", st)
	}
}

func TestMeterFailAllFailsInFlight(t *testing.T) {
	// FailAll fails exactly the requests still in flight — not the
	// completed or already-failed ones — and snapshots track the
	// in-flight count through every transition.
	m := NewMeter(0)
	for i := 0; i < 6; i++ {
		m.Submitted(sim.Time(i))
	}
	m.Completed(0, 10)
	m.Failed()
	if snap := m.Snapshot(10); snap.InFlight != 4 || m.InFlight() != 4 {
		t.Fatalf("in flight after 1 completion + 1 failure: snapshot %d, meter %d, want 4",
			snap.InFlight, m.InFlight())
	}
	m.FailAll()
	st := m.Stats()
	if st.Offered != 6 || st.Completed != 1 || st.Failed != 5 || m.FailedCount() != 5 {
		t.Fatalf("after FailAll: %+v, want 6 offered, 1 completed, 5 failed", st)
	}
	if snap := m.Snapshot(20); snap.InFlight != 0 || m.InFlight() != 0 {
		t.Fatalf("in flight after FailAll: snapshot %d, meter %d", snap.InFlight, m.InFlight())
	}
	// With nothing in flight FailAll changes nothing.
	m.FailAll()
	if m.Stats() != st {
		t.Fatalf("second FailAll changed stats: %+v vs %+v", m.Stats(), st)
	}
}

func TestMaxSustainable(t *testing.T) {
	pts := []LoadPoint{
		{Load: 0.25, Stats: MeterStats{ViolationFrac: 0}},
		{Load: 0.5, Stats: MeterStats{ViolationFrac: 0.05}},
		{Load: 1.0, Stats: MeterStats{ViolationFrac: 0.4}},
		{Load: 2.0, TimedOut: true},
	}
	if got, ok := MaxSustainable(pts, 0.1); !ok || got != 0.5 {
		t.Fatalf("knee = %v (ok %v), want 0.5", got, ok)
	}
	if got, ok := MaxSustainable(pts, 0); !ok || got != 0.25 {
		t.Fatalf("strict knee = %v (ok %v), want 0.25", got, ok)
	}
	if _, ok := MaxSustainable(pts[3:], 1); ok {
		t.Fatal("timed-out point must never sustain")
	}
	if _, ok := MaxSustainable(nil, 1); ok {
		t.Fatal("empty points must not sustain")
	}
}

func TestLimiterCapsAndFIFO(t *testing.T) {
	l := NewLimiter(2)
	var ran []int
	run := func(id int) func() { return func() { ran = append(ran, id) } }
	l.Admit(run(0))
	l.Admit(run(1))
	l.Admit(run(2)) // queued
	l.Admit(run(3)) // queued
	if l.InFlight() != 2 || l.Queued() != 2 {
		t.Fatalf("inflight %d queued %d", l.InFlight(), l.Queued())
	}
	if len(ran) != 2 {
		t.Fatalf("ran %v before any release", ran)
	}
	l.Done() // releases 0's slot, dispatches 2
	l.Done() // releases 1's slot, dispatches 3
	if len(ran) != 4 || ran[2] != 2 || ran[3] != 3 {
		t.Fatalf("dispatch order %v", ran)
	}
	l.Done()
	l.Done()
	if l.InFlight() != 0 || l.Queued() != 0 {
		t.Fatalf("not drained: inflight %d queued %d", l.InFlight(), l.Queued())
	}
	if l.Peak() != 2 || l.QueuedMax() != 2 {
		t.Fatalf("peak %d queuedMax %d", l.Peak(), l.QueuedMax())
	}
}

func TestLimiterDisabled(t *testing.T) {
	l := NewLimiter(0)
	n := 0
	for i := 0; i < 5; i++ {
		l.Admit(func() { n++ })
	}
	if n != 5 || l.InFlight() != 0 || l.Queued() != 0 {
		t.Fatalf("disabled limiter deferred work: n=%d", n)
	}
	l.Done() // must be a no-op
}

func TestMeterSnapshotDoesNotPerturb(t *testing.T) {
	// Drive two meters through the same request train; snapshot one of
	// them between every step. Final stats must be identical: Snapshot
	// is a pure read (the sketch is copied by value), so observing a
	// meter can never change what it reports.
	plain := NewMeter(100 * sim.Millisecond)
	snapped := NewMeter(100 * sim.Millisecond)
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * sim.Time(sim.Millisecond)
		plain.Submitted(at)
		snapped.Submitted(at)
		snapped.Snapshot(at)
	}
	for i := 0; i < 20; i++ {
		sub := sim.Time(i) * sim.Time(sim.Millisecond)
		done := sub.Add(sim.Duration(10+13*i) * sim.Millisecond)
		plain.Completed(sub, done)
		snapped.Completed(sub, done)
		snap := snapped.Snapshot(done)
		if snap.Completed != i+1 || snap.At != done {
			t.Fatalf("snapshot %d: %+v", i, snap)
		}
	}
	if plain.Stats() != snapped.Stats() {
		t.Fatalf("snapshots perturbed the meter:\nplain   %+v\nsnapped %+v",
			plain.Stats(), snapped.Stats())
	}
	// The snapshot's sketch is a value copy: quantiles diffed between
	// two snapshots cover exactly the interleaved completions.
	a := snapped.Snapshot(0)
	snapped.Submitted(0)
	snapped.Completed(0, sim.Time(500*sim.Millisecond))
	b := snapped.Snapshot(sim.Time(500 * sim.Millisecond))
	if q := b.Sketch.QuantileSince(&a.Sketch, 0.5); q < 400*sim.Millisecond {
		t.Fatalf("windowed quantile %v does not reflect the 500ms completion", q)
	}
}

func TestLimiterAdmissionCounters(t *testing.T) {
	l := NewLimiter(2)
	for i := 0; i < 5; i++ {
		l.Admit(func() {})
	}
	// 2 admitted immediately, 3 delayed behind the cap.
	if l.Admitted() != 2 || l.Delayed() != 3 {
		t.Fatalf("admitted %d delayed %d", l.Admitted(), l.Delayed())
	}
	for i := 0; i < 5; i++ {
		l.Done()
	}
	// FIFO queueing drops nothing: every delayed admission eventually
	// runs, so admitted catches up to the full train.
	if l.Admitted() != 5 || l.Delayed() != 3 {
		t.Fatalf("after drain: admitted %d delayed %d", l.Admitted(), l.Delayed())
	}

	// A disabled limiter admits everything and delays nothing.
	free := NewLimiter(0)
	for i := 0; i < 4; i++ {
		free.Admit(func() {})
	}
	if free.Admitted() != 4 || free.Delayed() != 0 {
		t.Fatalf("disabled: admitted %d delayed %d", free.Admitted(), free.Delayed())
	}
}
