// Package inference reproduces §5.5: a Python-style multi-process AI
// microservice. A Gateway process receives Poisson-distributed client
// requests, simulates planning, fans each request out to three inference
// servers (LLaMA-3.2-1B, GPT-2, RoBERTa-large) and waits for all three
// replies. Each server spawns one handler thread per request; handlers
// alternate GIL-serialised "Python" segments with OpenBLAS/OpenMP
// inference kernels, so concurrent requests oversubscribe the node.
//
// Model compute profiles are calibrated to the paper's isolated strong-
// scaling points: LLaMA 5.4 s at 28 cores, GPT-2 1.8 s at 8, RoBERTa
// 1.2 s at 8.
package inference

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/glibc"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rt/omp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/trace"
)

// Scheme is one of Fig. 4's resource-management schemes.
type Scheme int

// Schemes.
const (
	BlNone    Scheme = iota // no partitioning, stock scheduler
	BlEq                    // equal core split between servers
	BlOpt                   // scalability-proportional split (64/21/14%)
	BlNoneSeq               // no partitioning, sequential inference
	Coop                    // SCHED_COOP
)

func (s Scheme) String() string {
	switch s {
	case BlNone:
		return "bl-none"
	case BlEq:
		return "bl-eq"
	case BlOpt:
		return "bl-opt"
	case BlNoneSeq:
		return "bl-none-seq"
	}
	return "sched_coop"
}

// Model is one inference server's profile.
type Model struct {
	Name string
	// Work is the total single-core compute per request.
	Work sim.Duration
	// SerialFrac is the GIL-held Python fraction of Work.
	SerialFrac float64
	// Threads is the tuned inner BLAS width (isolated scalability).
	Threads int
	// OptShare is the bl-opt partition share.
	OptShare float64
}

// PaperModels returns the three servers calibrated to §5.5.
func PaperModels() []Model {
	return []Model{
		{Name: "llama", Work: 57700 * sim.Millisecond, SerialFrac: 0.06, Threads: 28, OptShare: 0.64},
		{Name: "gpt2", Work: 10100 * sim.Millisecond, SerialFrac: 0.06, Threads: 8, OptShare: 0.21},
		{Name: "roberta", Work: 6760 * sim.Millisecond, SerialFrac: 0.06, Threads: 8, OptShare: 0.14},
	}
}

// Config parameterises one benchmark execution.
type Config struct {
	Machine hw.Config
	Scheme  Scheme
	// Rate is the client request rate in requests per second.
	Rate float64
	// Requests is the total client request count (paper: 28).
	Requests int
	// Batches per request (paper: 8).
	Batches int
	// Scale shrinks model works (and proportionally the run) for fast
	// tests/benches; 1.0 reproduces the paper sizing.
	Scale   float64
	Models  []Model
	Horizon sim.Duration
	Seed    uint64
	// GatewayPlanning is the per-request gateway compute.
	GatewayPlanning sim.Duration
	// KernelClass selects the kernel scheduling class every thread runs
	// under ("fair", "rr", "fifo", "batch"); empty keeps the default
	// fair class. Drives the schedcmp kernel-scheduler ablation.
	KernelClass string
	// Arrivals is the client arrival process. Nil keeps the paper's
	// open-loop Poisson client at Rate (scaled by 1/Scale like the model
	// works, so the load factor is preserved); custom sources are used
	// as-is and must account for Scale themselves. Sources are
	// single-use: supply a fresh one per Run.
	Arrivals load.Source
	// SLO is the per-request latency objective the tail meter judges
	// completions against (0 disables SLO accounting).
	SLO sim.Duration
	// MaxInFlight caps concurrently admitted requests at the gateway:
	// excess arrivals queue FIFO in the admission stage and are only
	// handed to the gateway as completions free slots. 0 means no
	// admission control (the paper's setup).
	MaxInFlight int
	// Tracer, when non-nil, records the kernel's scheduling events for
	// Chrome trace-event export (cmd/uschedsim -trace).
	Tracer *trace.Buffer
	// MetricsInterval, when positive, scrapes the run's meter, admission
	// limiter, and kernel scheduler every interval of simulated time into
	// Result.Samples. Zero (the default) disables scraping; the
	// instrumented paths then cost nothing.
	MetricsInterval sim.Duration
}

// RequestTrace records one request's lifecycle (Fig. 4 bottom).
type RequestTrace struct {
	ID        int
	Submitted sim.Time
	Completed sim.Time
}

// Result reports one execution.
type Result struct {
	Latencies []sim.Duration
	Timeline  []RequestTrace
	Stats     metrics.LatencyStats
	// Tail is the streaming meter's view of the run: high percentiles
	// (p95/p99/p99.9), goodput, and SLO-violation accounting.
	Tail load.MeterStats
	// Throughput is completed requests per second of total runtime.
	Throughput float64
	Elapsed    sim.Duration
	TimedOut   bool
	// Kernel counters for interference analysis (schedcmp).
	Preemptions     int64
	ContextSwitches int64
	Migrations      int64
	// Samples holds the simulated-time telemetry rows when
	// Config.MetricsInterval was set (node label "local").
	Samples []obs.Sample
	// Events counts engine events fired over the run — host-side
	// profiling data (events per wall second), not simulation output.
	Events int64
}

type request struct {
	id int
	// tag is the number traced thread names carry: the id itself, or
	// the attempt id behind a cluster backend handle (ServiceConfig.TraceID).
	tag    int
	sentAt sim.Time
	resp   *glibc.Chan
}

// serveBatches runs one request's inference on a server: Batches
// alternations of a GIL-serialised "Python" segment and a parallel BLAS
// kernel. Shared by the standalone benchmark (Run) and the cluster
// backend (Service).
func serveBatches(l *glibc.Lib, gil *glibc.Mutex, b *blas.Lib, serial, parallel sim.Duration, batches int) {
	for batch := 0; batch < batches; batch++ {
		gil.Lock()
		l.Compute(serial)
		gil.Unlock()
		b.KernelWork(parallel)
	}
}

// gatewayHandle runs one request through the gateway: planning compute,
// fan-out to every server, then reply collection (poll + recv per
// server). Shared by the standalone benchmark (Run) and the cluster
// backend (Service) so the two can never diverge on the reply protocol.
func gatewayHandle(l *glibc.Lib, req *request, serverIn []*glibc.Chan, planning sim.Duration) {
	l.Compute(planning)
	for i := range serverIn {
		serverIn[i].Send(req)
	}
	for replies := 0; replies < len(serverIn); replies++ {
		glibc.Poll(l.K, []*glibc.Chan{req.resp}, -1)
		req.resp.Recv()
	}
}

// serverThreads returns server m's inner BLAS width under the scheme.
func serverThreads(scheme Scheme, m Model, cores int) int {
	threads := m.Threads
	if scheme == BlNoneSeq {
		threads = 1
	}
	if threads > cores {
		threads = cores
	}
	return threads
}

// startServer launches one inference-server process on sys: it builds
// the GIL + OpenMP + BLAS stack, receives requests from recv (which
// returns nil to drain), spawns one handler per request that runs the
// batched inference loop and replies on the request's channel, then
// joins every handler and shuts the OMP runtime down. Shared by the
// standalone benchmark (Run, counted recv) and the cluster backend
// (Service, sentinel recv).
func startServer(sys *stack.System, mode stack.Mode, m Model, opts glibc.Options,
	threads, batches int, scale float64, tracer *trace.Buffer, recv func() *request) error {
	_, err := sys.Start("server-"+m.Name, mode, opts, func(l *glibc.Lib) {
		gil := l.NewMutex()
		var rt *omp.Runtime
		if threads > 1 {
			rt = omp.New(l, omp.Config{Flavor: omp.Gomp, NumThreads: threads, WaitPolicy: omp.WaitPassive})
		}
		b := blas.New(l, blas.Config{
			Impl:           blas.OpenBLAS,
			Backend:        blas.BackendOpenMP,
			Threads:        threads,
			OMP:            rt,
			YieldInBarrier: true,
		})
		serialPerBatch := sim.Duration(m.SerialFrac * float64(m.Work) * scale / float64(batches))
		parallelPerBatch := sim.Duration((1 - m.SerialFrac) * float64(m.Work) * scale / float64(batches))
		var handlers []*glibc.Pthread
		// Per-request handler names are formatted only when the run is
		// traced: thread names surface in trace output and panic
		// messages, and the Sprintf is otherwise pure overhead on the
		// per-request hot path.
		reqName := m.Name + "-req"
		for {
			req := recv()
			if req == nil {
				break
			}
			name := reqName
			if tracer != nil {
				name = fmt.Sprintf("%s-req%d", m.Name, req.tag)
			}
			handlers = append(handlers, l.PthreadCreate(
				name, func() {
					serveBatches(l, gil, b, serialPerBatch, parallelPerBatch, batches)
					req.resp.Send(m.Name)
				}))
		}
		for _, h := range handlers {
			l.PthreadJoin(h)
		}
		if rt != nil {
			rt.Shutdown()
		}
	})
	return err
}

// Run executes the microservices benchmark.
func Run(cfg Config) Result {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 28
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 8
	}
	if cfg.Models == nil {
		cfg.Models = PaperModels()
	}
	if cfg.GatewayPlanning == 0 {
		cfg.GatewayPlanning = 50 * sim.Millisecond
	}
	mode := stack.ModeBaseline
	if cfg.Scheme == Coop {
		mode = stack.ModeCoop
	}
	sys := stack.NewWithClass(cfg.Machine, cfg.Seed, cfg.KernelClass)
	k := sys.K
	k.Tracer = cfg.Tracer
	cores := k.NumCores()

	// Channels.
	gwIn := glibc.NewChan(k)
	serverIn := make([]*glibc.Chan, len(cfg.Models))
	for i := range serverIn {
		serverIn[i] = glibc.NewChan(k)
	}

	// Partitioning masks.
	masks := partition(cfg.Scheme, cfg.Models, cores)

	// Arrival process (resolved before the gateway closure captures it).
	src := cfg.Arrivals
	if src == nil {
		src = &load.Poisson{Rate: cfg.Rate / cfg.Scale}
	}

	var traces []RequestTrace
	completed := 0

	// Inference servers: each receives exactly cfg.Requests requests.
	for i, m := range cfg.Models {
		in := serverIn[i]
		opts := glibc.Options{Nice: 20, Affinity: masks[i+1]}
		served := 0
		recv := func() *request {
			if served == cfg.Requests {
				return nil
			}
			served++
			return in.Recv().(*request)
		}
		if err := startServer(sys, mode, m, opts, serverThreads(cfg.Scheme, m, cores),
			cfg.Batches, cfg.Scale, cfg.Tracer, recv); err != nil {
			panic(err)
		}
	}

	// Tail accounting and the optional admission stage in front of the
	// gateway. Both are passive with respect to the engine (no events,
	// no RNG), so enabling neither keeps runs byte-identical.
	meter := load.NewMeter(cfg.SLO)
	admit := load.NewLimiter(cfg.MaxInFlight)

	// Optional simulated-time telemetry. The registry is stopped at the
	// final completion instant; a timed-out run leaves it to the round
	// cap, which cuts at the same virtual instant regardless of host
	// parallelism.
	var reg *obs.Registry
	if cfg.MetricsInterval > 0 {
		reg = obs.New(sys.Eng, "local", cfg.MetricsInterval)
		obs.ObserveMeter(reg, "local", "meter", meter)
		obs.ObserveLimiter(reg, "local", "admit", admit)
		obs.ObserveKernel(reg, "local", k)
		reg.Start()
	}

	// Gateway.
	_, err := sys.Start("gateway", mode, glibc.Options{Nice: 0, Affinity: masks[0]}, func(l *glibc.Lib) {
		var handlers []*glibc.Pthread
		for n := 0; n < cfg.Requests; n++ {
			req := gwIn.Recv().(*request)
			name := "gw-req"
			if cfg.Tracer != nil {
				name = fmt.Sprintf("gw-req%d", req.tag)
			}
			handlers = append(handlers, l.PthreadCreate(
				name, func() {
					gatewayHandle(l, req, serverIn, sim.Duration(float64(cfg.GatewayPlanning)*cfg.Scale))
					now := l.K.Eng.Now()
					traces = append(traces, RequestTrace{
						ID: req.id, Submitted: req.sentAt, Completed: now,
					})
					completed++
					meter.Completed(req.sentAt, now)
					admit.Done()
					src.Completed(req.id)
					if reg != nil && completed == cfg.Requests {
						reg.Stop(now)
					}
				}))
		}
		for _, h := range handlers {
			l.PthreadJoin(h)
		}
	})
	if err != nil {
		panic(err)
	}

	// Client: an external, event-driven arrival process on the engine's
	// "client" RNG stream. The default reproduces the paper's open-loop
	// Poisson generator; latency covers admission queueing, so sentAt is
	// the arrival instant, not the dispatch instant.
	src.Start(sys.Eng, sys.Rand("client"), cfg.Requests, func(id int) {
		req := &request{id: id, tag: id, sentAt: sys.Eng.Now(), resp: glibc.NewChan(k)}
		meter.Submitted(req.sentAt)
		admit.Admit(func() { gwIn.Send(req) })
	})

	timedOut, err := sys.Run(cfg.Horizon)
	if err != nil {
		panic(err)
	}
	res := Result{
		Timeline:        traces,
		Tail:            meter.Stats(),
		TimedOut:        timedOut || completed < cfg.Requests,
		Preemptions:     k.Stats.Preemptions,
		ContextSwitches: k.Stats.ContextSwitches,
		Migrations:      k.Stats.Migrations,
		Events:          int64(sys.Eng.Processed()),
	}
	if reg != nil {
		res.Samples = reg.Samples()
	}
	if len(traces) > 0 {
		last := sim.Time(0)
		for _, tr := range traces {
			res.Latencies = append(res.Latencies, tr.Completed.Sub(tr.Submitted))
			if tr.Completed > last {
				last = tr.Completed
			}
		}
		res.Stats = metrics.Summarize(res.Latencies)
		res.Elapsed = sim.Duration(last)
		res.Throughput = float64(len(traces)) / last.Seconds()
	}
	return res
}

// partition returns affinity masks [gateway, server0, server1, server2]
// per the scheme.
func partition(scheme Scheme, models []Model, cores int) []kernel.Mask {
	n := len(models)
	masks := make([]kernel.Mask, n+1)
	switch scheme {
	case BlEq:
		gw := 2
		masks[0] = kernel.RangeMask(0, gw)
		per := (cores - gw) / n
		at := gw
		for i := 0; i < n; i++ {
			hi := at + per
			if i == n-1 {
				hi = cores
			}
			masks[i+1] = kernel.RangeMask(at, hi)
			at = hi
		}
	case BlOpt:
		gw := 2
		masks[0] = kernel.RangeMask(0, gw)
		at := gw
		for i, m := range models {
			share := int(m.OptShare * float64(cores-gw))
			hi := at + share
			if i == n-1 {
				hi = cores
			}
			masks[i+1] = kernel.RangeMask(at, hi)
			at = hi
		}
	}
	return masks
}
