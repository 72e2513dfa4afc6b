package usched

import (
	"testing"

	"repro/internal/sim"
)

func TestPublicAPIQuickstart(t *testing.T) {
	sys := NewSystem(SmallNode(), 42)
	var makespan VTime
	_, err := sys.Start("app", SchedCoop, ProcessOptions{}, func(l *CLib) {
		m := l.NewMutex()
		var pts []*Pthread
		for i := 0; i < 8; i++ {
			pts = append(pts, l.PthreadCreate("w", func() {
				m.Lock()
				l.Compute(100 * sim.Microsecond)
				m.Unlock()
			}))
		}
		for _, pt := range pts {
			l.PthreadJoin(pt)
		}
		makespan = l.K.Eng.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0); err != nil {
		t.Fatal(err)
	}
	if makespan <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestPublicAPIModes(t *testing.T) {
	modes := []Mode{Original, Baseline, Manual, SchedCoop}
	want := []string{"original", "baseline", "manual", "sched_coop"}
	for i, m := range modes {
		if m.String() != want[i] {
			t.Fatalf("mode %d = %q, want %q", i, m, want[i])
		}
	}
	if !Manual.UsesUSF() || Baseline.UsesUSF() {
		t.Fatal("UsesUSF mapping wrong")
	}
}

func TestPublicAPIWorkloadRun(t *testing.T) {
	res := RunMatmul(NewSystem(DualSocket16(), 1), MatmulConfig{
		Mode:       SchedCoop,
		N:          1024,
		TaskSize:   512,
		OMPThreads: 2,
		Reps:       1,
		Horizon:    2 * sim.Second,
	})
	if res.TimedOut || res.GFLOPS <= 0 {
		t.Fatalf("matmul via facade failed: %+v", res)
	}
}

func TestPublicAPICustomPolicy(t *testing.T) {
	pol := NewSchedCoop(DefaultCoopConfig())
	if pol.Name() != "sched_coop" {
		t.Fatalf("policy name = %q", pol.Name())
	}
	var _ Policy = pol // compile-time: SchedCoop satisfies the interface
}

func TestMachinePresets(t *testing.T) {
	if MareNostrum5().Topo.Cores() != 112 {
		t.Fatal("MareNostrum5 must have 112 cores")
	}
	if SmallNode().Topo.Cores() != 8 || DualSocket16().Topo.Cores() != 16 {
		t.Fatal("small presets wrong")
	}
}

func TestPublicAPIKernelClasses(t *testing.T) {
	names := KernelClasses()
	want := map[string]bool{"fair": true, "rr": true, "fifo": true, "batch": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("KernelClasses() = %v, missing %v", names, want)
	}
	// The same workload completes under every kernel scheduling class.
	for _, class := range names {
		sys := NewSystemWithClass(SmallNode(), 42, class)
		if got := sys.K.DefaultClass().Name(); got != class {
			t.Fatalf("default class = %s, want %s", got, class)
		}
		var makespan VTime
		_, err := sys.Start("app", Baseline, ProcessOptions{}, func(l *CLib) {
			var pts []*Pthread
			for i := 0; i < 16; i++ {
				pts = append(pts, l.PthreadCreate("w", func() {
					l.Compute(200 * sim.Microsecond)
				}))
			}
			for _, pt := range pts {
				l.PthreadJoin(pt)
			}
			makespan = l.K.Eng.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(0); err != nil {
			t.Fatalf("class %s: %v", class, err)
		}
		if makespan <= 0 {
			t.Fatalf("class %s: no virtual time elapsed", class)
		}
	}
}

func TestPublicAPISchedParams(t *testing.T) {
	params := DefaultKernelSchedParams()
	params.DefaultClass = "batch"
	sys := NewSystemWithParams(SmallNode(), 1, params)
	if got := sys.K.DefaultClass().Name(); got != "batch" {
		t.Fatalf("default class = %s, want batch", got)
	}
}

func TestPublicAPICluster(t *testing.T) {
	// Wire a two-node fleet through the facade: shared engine, one
	// inference service per node, power-of-two-choices routing.
	eng := NewEngine(3)
	cl := NewCluster(eng, ClusterOptions{
		Net:      ClusterNetwork{RequestLatency: 100 * sim.Microsecond, ReplyLatency: 100 * sim.Microsecond},
		SLO:      2 * sim.Second,
		Sessions: 4,
	}, NewLeastOutstandingRouter())
	models := []InferenceModel{
		{Name: "llama", Work: 600 * sim.Millisecond, SerialFrac: 0.06, Threads: 4, OptShare: 0.64},
		{Name: "gpt2", Work: 150 * sim.Millisecond, SerialFrac: 0.06, Threads: 2, OptShare: 0.21},
		{Name: "roberta", Work: 100 * sim.Millisecond, SerialFrac: 0.06, Threads: 2, OptShare: 0.14},
	}
	for i := 0; i < 2; i++ {
		sys := NewSystemOnEngine(eng, SmallNode(), uint64(10+i), DefaultKernelSchedParams())
		cl.AddNode("node"+string(rune('0'+i)), sys, func(done func(id int)) ClusterBackend {
			svc, err := NewInferenceService(sys, InferenceServiceConfig{
				Scheme: InferenceCoop, Batches: 2, Scale: 0.05, Models: models,
			}, done)
			if err != nil {
				t.Fatal(err)
			}
			return svc
		})
	}
	cl.Serve(&Poisson{Rate: 40}, 8)
	timedOut, err := cl.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if timedOut || cl.Completed() != 8 {
		t.Fatalf("fleet served %d of 8 (timed out %v)", cl.Completed(), timedOut)
	}
	st := cl.Stats()
	if st.EndToEnd.Completed != 8 || st.NodeP99 <= 0 || len(st.Nodes) != 2 {
		t.Fatalf("bad cluster stats: %+v", st)
	}
}

func TestPublicAPIFaultInjection(t *testing.T) {
	// Wire a faulted SimService fleet through the facade: one node is
	// killed and recovers, the client edge retries under a budget, and
	// the run completes with the resilience counters populated.
	const q = 32768 * sim.Nanosecond
	cl := NewShardedCluster(ClusterOptions{
		Net: ClusterNetwork{RequestLatency: 2 * q, ReplyLatency: 2 * q},
		SLO: 64 * q,
		Retry: RetryPolicy{
			Timeout:     64 * q,
			MaxAttempts: 3,
			BaseBackoff: 8 * q,
			MaxBackoff:  32 * q,
			Budget:      NewRetryBudget(0.5, 10),
			Quantum:     q,
		},
		Faults: NewFaultPlan().Crash(0, 200*q).Recover(0, 2000*q),
		Health: HealthConfig{EjectAfter: 5, Cooldown: 500 * q},
	}, NewRoundRobinRouter(), 2, 7)
	var svcs []*SimService
	for i := 0; i < 2; i++ {
		svcs = append(svcs, cl.AddSimNode("n"+string(rune('0'+i)), SimServiceConfig{
			Workers: 2, QueueCap: 16, MeanService: 8 * q, Quantum: q,
		}))
	}
	cl.Serve(&PhasedPoisson{Rate: 20000, Quantum: q}, 400)
	timedOut, err := cl.Run(sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if timedOut {
		t.Fatal("faulted fleet hit the horizon")
	}
	st := cl.Stats()
	var res ResilienceStats = st.Resilience
	if res.Retries == 0 || res.Failed == 0 {
		t.Fatalf("fault machinery unexercised: %+v", res)
	}
	if st.EndToEnd.Completed+res.Failed != 400 {
		t.Fatalf("accounts for %d+%d of 400 requests", st.EndToEnd.Completed, res.Failed)
	}
	shed := 0
	for _, svc := range svcs {
		shed += svc.Shed()
	}
	if shed == 0 {
		t.Fatal("bounded node queues never shed under the crash backlog")
	}
	// The bounded admission limiter sheds once its backlog fills.
	lim := NewBoundedAdmissionLimiter(1, 1)
	if !lim.Admit(func() {}) || !lim.Admit(func() {}) {
		t.Fatal("limiter refused admissible work")
	}
	if lim.Admit(func() {}) || lim.Shed() != 1 {
		t.Fatal("bounded limiter did not shed beyond its backlog")
	}
}
