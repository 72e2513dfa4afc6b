// Package usched is a deterministic simulation framework reproducing the
// PPoPP'26 paper "Rethinking Thread Scheduling under Oversubscription: A
// User-Space Framework for Coordinating Multi-runtime and Multi-process
// Workloads" (Roca & Beltran).
//
// It provides, fully in Go with no external dependencies:
//
//   - a simulated Linux kernel (EEVDF-style fair scheduler, SCHED_RR,
//     futexes, affinity, NUMA/cache/bandwidth cost models);
//   - a glibc-like pthread layer with two backends — standard futex
//     synchronisation and "glibcv", which routes every pthread and
//     blocking call through the nOS-V tasking library;
//   - USF, the user-space scheduling framework: a pluggable policy
//     interface over nOS-V, with the paper's SCHED_COOP cooperative
//     policy (examples/custom-policy writes another as user code);
//   - the runtime substrates the paper composes (OpenMP gomp/libomp,
//     OmpSs-2, oneTBB, OpenBLAS/BLIS, MPICH-like MPI);
//   - the four evaluation workloads (nested matmul, Cholesky runtime
//     compositions, AI microservices, LAMMPS+DeePMD ensembles) and
//     drivers that regenerate every table and figure of the paper's
//     evaluation section.
//
// # Quick start
//
//	sys := usched.NewSystem(usched.SmallNode(), 1)
//	sys.Start("app", usched.SchedCoop, usched.ProcessOptions{}, func(l *usched.CLib) {
//	    pt := l.PthreadCreate("worker", func() { l.Compute(time.Millisecond) })
//	    l.PthreadJoin(pt)
//	})
//	sys.Run(0)
//
// See the examples/ directory for runnable programs and cmd/uschedsim for
// the experiment CLI.
package usched

import (
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/glibc"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/nosv"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/usf"
	"repro/internal/workloads/cholesky"
	"repro/internal/workloads/inference"
	"repro/internal/workloads/matmul"
	"repro/internal/workloads/md"
)

// Core simulation types.
type (
	// System is a wired simulated machine (engine + kernel + USF).
	System = stack.System
	// Mode selects one of the paper's software stacks (Fig. 2).
	Mode = stack.Mode
	// MachineSpec describes the simulated hardware.
	MachineSpec = hw.Config
	// CLib is a process's C library handle (the pthread API surface).
	CLib = glibc.Lib
	// ProcessOptions configures a simulated process.
	ProcessOptions = glibc.Options
	// Pthread is a pthread_t handle.
	Pthread = glibc.Pthread
	// CPUMask is a cpu_set_t-style affinity mask.
	CPUMask = kernel.Mask
	// Duration / VTime are virtual time types (nanoseconds).
	Duration = sim.Duration
	// VTime is an absolute point in virtual time.
	VTime = sim.Time
)

// Stack modes (Fig. 2).
const (
	// Original: stock glibc, unpatched busy-wait barriers.
	Original = stack.ModeOriginal
	// Baseline: stock glibc + sched_yield barrier patch.
	Baseline = stack.ModeBaseline
	// Manual: hand-integrated nOS-V (blocking barriers).
	Manual = stack.ModeManual
	// SchedCoop: transparent glibcv + SCHED_COOP.
	SchedCoop = stack.ModeCoop
)

// USF policy framework types, for writing custom scheduling policies
// (see examples/custom-policy).
type (
	// Policy is the USF scheduling-policy interface.
	Policy = nosv.Policy
	// Task is a nOS-V task bound to a worker thread.
	Task = nosv.Task
	// Instance is a nOS-V shared-memory segment instance.
	Instance = nosv.Instance
	// CoopConfig tunes SCHED_COOP.
	CoopConfig = usf.CoopConfig
	// SchedCoopPolicy is the paper's cooperative policy.
	SchedCoopPolicy = usf.SchedCoop
)

// NewSchedCoop builds a SCHED_COOP policy instance.
func NewSchedCoop(cfg CoopConfig) *SchedCoopPolicy { return usf.NewSchedCoop(cfg) }

// DefaultCoopConfig returns the paper's SCHED_COOP defaults (20 ms
// process quantum, core→NUMA→any placement).
func DefaultCoopConfig() CoopConfig { return usf.DefaultCoopConfig() }

// Machine presets.

// MareNostrum5 is the paper's Table 1 machine: 2x56-core Sapphire Rapids.
func MareNostrum5() MachineSpec { return hw.MareNostrum5() }

// SmallNode is an 8-core single-socket machine for demos and tests.
func SmallNode() MachineSpec { return hw.SmallNode() }

// DualSocket16 is a 2x8-core machine exercising NUMA placement.
func DualSocket16() MachineSpec { return hw.DualSocket16() }

// NewSystem wires a simulated machine with the default kernel scheduler
// parameters (a CFS-era Linux, matching the paper's testbed).
func NewSystem(machine MachineSpec, seed uint64) *System { return stack.New(machine, seed) }

// NewSystemOnEngine wires a simulated machine over an existing engine,
// so several fully independent machines share one deterministic event
// loop — the building block of the cluster layer. seed roots the
// system's private RNG-stream namespace (System.Rand).
func NewSystemOnEngine(eng *sim.Engine, machine MachineSpec, seed uint64, params KernelSchedParams) *System {
	return stack.NewOnEngine(eng, machine, seed, params)
}

// NewEngine returns a bare discrete-event engine, for wiring multi-node
// clusters (see the cluster types below).
func NewEngine(seed uint64) *sim.Engine { return sim.NewEngine(seed) }

// Kernel scheduling classes. The simulated kernel's scheduler is a set
// of pluggable classes (kernel.Class): EEVDF-style fair, SCHED_RR,
// SCHED_FIFO, and SCHED_BATCH, listed in the constructor table of
// internal/kernel/class.go.
type (
	// KernelSchedParams are the simulated kernel's scheduler tunables,
	// including the DefaultClass every thread starts in.
	KernelSchedParams = kernel.SchedParams
	// KernelClass is one pluggable kernel scheduling class.
	KernelClass = kernel.Class
)

// DefaultKernelSchedParams returns the stock Linux-like tunables used by
// NewSystem.
func DefaultKernelSchedParams() KernelSchedParams { return kernel.DefaultSchedParams() }

// NewSystemWithParams wires a machine with explicit kernel scheduler
// parameters.
func NewSystemWithParams(machine MachineSpec, seed uint64, params KernelSchedParams) *System {
	return stack.NewWithParams(machine, seed, params)
}

// NewSystemWithClass wires a machine whose kernel schedules every thread
// under the named scheduling class ("fair", "rr", "fifo", "batch") —
// the kernel-scheduler ablation entry point (see the schedcmp scenario).
func NewSystemWithClass(machine MachineSpec, seed uint64, class string) *System {
	return stack.NewWithClass(machine, seed, class)
}

// KernelClasses returns the kernel scheduling-class names: fair, rr,
// fifo, batch.
func KernelClasses() []string { return kernel.ClassNames() }

// Workload configurations and single-run entry points. A workload runs
// on the System it is given, as an application runs on the machine and
// scheduler it is deployed on: the machine, seed, kernel class
// (NewSystemWithClass), SCHED_COOP tuning (System.CoopConfig) and
// tracer (System.K.Tracer) belong to the System, not to the workload's
// config. Each Run* drives its System's engine to completion, so give
// every run a fresh System; its engine's Processed() then counts the
// events the run fired.
type (
	// MatmulConfig parameterises the §5.3 nested-runtime matmul.
	MatmulConfig = matmul.Config
	// MatmulResult is its outcome.
	MatmulResult = matmul.Result
	// CholeskyConfig parameterises the §5.4 composition study.
	CholeskyConfig = cholesky.Config
	// CholeskyResult is its outcome.
	CholeskyResult = cholesky.Result
	// MicroservicesConfig parameterises the §5.5 AI service benchmark.
	MicroservicesConfig = inference.Config
	// MicroservicesResult is its outcome.
	MicroservicesResult = inference.Result
	// InferenceModel is one inference server's compute profile.
	InferenceModel = inference.Model
	// InferenceScheme is one of Fig. 4's resource-management schemes.
	InferenceScheme = inference.Scheme
	// MDConfig parameterises the §5.6 LAMMPS+DeePMD study.
	MDConfig = md.Config
	// MDResult is its outcome.
	MDResult = md.Result
)

// Microservices resource-management schemes (Fig. 4).
const (
	// InferenceBlNone: no partitioning, stock scheduler.
	InferenceBlNone = inference.BlNone
	// InferenceBlEq: equal core split between servers.
	InferenceBlEq = inference.BlEq
	// InferenceBlOpt: scalability-proportional split.
	InferenceBlOpt = inference.BlOpt
	// InferenceBlNoneSeq: no partitioning, sequential inference.
	InferenceBlNoneSeq = inference.BlNoneSeq
	// InferenceCoop: SCHED_COOP.
	InferenceCoop = inference.Coop
)

// RunMatmul executes one nested-runtime matmul configuration on sys.
func RunMatmul(sys *System, cfg MatmulConfig) MatmulResult { return matmul.Run(sys, cfg) }

// RunCholesky executes one runtime-composition configuration on sys.
func RunCholesky(sys *System, cfg CholeskyConfig) CholeskyResult { return cholesky.Run(sys, cfg) }

// RunMicroservices executes one microservices configuration on sys.
func RunMicroservices(sys *System, cfg MicroservicesConfig) MicroservicesResult {
	return inference.Run(sys, cfg)
}

// RunMD executes one molecular-dynamics scenario on sys, whose machine
// topology places the ranks.
func RunMD(sys *System, cfg MDConfig) MDResult { return md.Run(sys, cfg) }

// Experiment drivers: full table/figure reproductions.
type (
	// Figure3Config sweeps the matmul heatmaps.
	Figure3Config = experiments.Figure3Config
	// Figure3Result holds the four heatmaps.
	Figure3Result = experiments.Figure3Result
	// Table2Config sweeps the Cholesky compositions.
	Table2Config = experiments.Table2Config
	// Table2Result holds Table 2.
	Table2Result = experiments.Table2Result
	// Figure4Config sweeps the microservices schemes and rates.
	Figure4Config = experiments.Figure4Config
	// Figure4Result holds Fig. 4.
	Figure4Result = experiments.Figure4Result
	// Figure5Config sweeps the MD scenarios.
	Figure5Config = experiments.Figure5Config
	// Figure5Result holds Fig. 5.
	Figure5Result = experiments.Figure5Result
)

// RunFigure3 regenerates the Fig. 3 heatmaps.
func RunFigure3(cfg Figure3Config) *Figure3Result { return experiments.RunFigure3(cfg) }

// RunTable2 regenerates Table 2.
func RunTable2(cfg Table2Config) *Table2Result { return experiments.RunTable2(cfg) }

// RunFigure4 regenerates Fig. 4.
func RunFigure4(cfg Figure4Config) *Figure4Result { return experiments.RunFigure4(cfg) }

// RunFigure5 regenerates Fig. 5.
func RunFigure5(cfg Figure5Config) *Figure5Result { return experiments.RunFigure5(cfg) }

// Default and quick experiment configurations.

// DefaultFigure3 returns the scaled full sweep (112-core machine).
func DefaultFigure3() Figure3Config { return experiments.DefaultFigure3() }

// QuickFigure3 returns a small fast sweep.
func QuickFigure3() Figure3Config { return experiments.QuickFigure3() }

// DefaultTable2 returns the scaled full composition study.
func DefaultTable2() Table2Config { return experiments.DefaultTable2() }

// QuickTable2 returns a small fast composition study.
func QuickTable2() Table2Config { return experiments.QuickTable2() }

// DefaultFigure4 returns the paper-shaped microservices sweep.
func DefaultFigure4() Figure4Config { return experiments.DefaultFigure4() }

// QuickFigure4 returns a small fast microservices sweep.
func QuickFigure4() Figure4Config { return experiments.QuickFigure4() }

// DefaultFigure5 returns the paper-shaped MD study.
func DefaultFigure5() Figure5Config { return experiments.DefaultFigure5() }

// QuickFigure5 returns a small fast MD study.
func QuickFigure5() Figure5Config { return experiments.QuickFigure5() }

// Load generation and SLO/tail-latency accounting (internal/load).
type (
	// LoadSource is a pluggable client arrival process.
	LoadSource = load.Source
	// Poisson is the open-loop memoryless arrival process.
	Poisson = load.Poisson
	// Bursty is the MMPP-style two-state bursty arrival process.
	Bursty = load.Bursty
	// Ramp is the diurnal sinusoidal-rate arrival process.
	Ramp = load.Ramp
	// ClosedLoop models N clients with think time.
	ClosedLoop = load.Closed
	// Replay submits requests at exact recorded offsets.
	Replay = load.Replay
	// LoadMeter does streaming tail-latency and SLO accounting.
	LoadMeter = load.Meter
	// LoadMeterStats is a meter snapshot.
	LoadMeterStats = load.MeterStats
	// AdmissionLimiter caps concurrently admitted requests.
	AdmissionLimiter = load.Limiter
	// TailLoadConfig sweeps offered load × arrival shape × scheme.
	TailLoadConfig = experiments.TailLoadConfig
	// TailLoadResult holds the tailload grid and its SLO knees.
	TailLoadResult = experiments.TailLoadResult
)

// Cluster layer (internal/cluster): a fleet of named nodes — each a
// complete simulated machine — behind a routing policy and a network
// cost model, serving routed traffic end to end over the shards of one
// conservative-parallel engine group: one shard (NewCluster) or several
// (NewShardedCluster).
type (
	// Cluster is a multi-node fleet over one engine shard (NewCluster)
	// or several conservative-parallel shards (NewShardedCluster).
	Cluster = cluster.Cluster
	// ClusterNode is one named machine of a fleet.
	ClusterNode = cluster.Node
	// ClusterStats snapshots a cluster run (end-to-end tails, per-node
	// views, cluster-aggregated node percentiles, routing balance).
	ClusterStats = cluster.Stats
	// ClusterBackend is a node's resident serving workload.
	ClusterBackend = cluster.Backend
	// ClusterNetwork is the per-hop latency + per-link bandwidth model.
	ClusterNetwork = cluster.Network
	// ClusterRouting is the routing-policy interface.
	ClusterRouting = cluster.Router
	// ClusterOptions parameterises a cluster (network, SLO, sessions).
	ClusterOptions = cluster.Config
	// InferenceService is the resident microservice stack a cluster
	// node serves (the paper's §5.5 gateway + servers, push-driven).
	InferenceService = inference.Service
	// InferenceServiceConfig parameterises an InferenceService.
	InferenceServiceConfig = inference.ServiceConfig
	// ClusterConfig sweeps the fleet scenario (routers × schemes ×
	// shapes × offered load).
	ClusterConfig = experiments.ClusterConfig
	// ClusterResult holds the fleet sweep grid and its SLO knees.
	ClusterResult = experiments.ClusterResult
)

// Fault injection and resilience (internal/cluster): declarative
// node-fault schedules, client-edge retry/hedging policies, passive
// outlier ejection, and the queue-model node backend fault fleets run
// on. All of it keeps the cluster's determinism contract: a faulted run
// is byte-identical for any worker or shard count.
type (
	// FaultPlan is a declarative schedule of node crashes, recoveries,
	// and brownouts, installed via ClusterOptions.Faults.
	FaultPlan = cluster.FaultPlan
	// FaultAware is the optional backend extension crashes and
	// brownouts drive (SimService implements it).
	FaultAware = cluster.FaultAware
	// RetryPolicy is the client edge's resilience policy: per-attempt
	// deadlines, capped-backoff retries under an optional token-bucket
	// budget, and hedged requests (ClusterOptions.Retry).
	RetryPolicy = load.RetryPolicy
	// RetryBudget is the Finagle-style token-bucket retry budget.
	RetryBudget = load.RetryBudget
	// HealthConfig enables passive outlier ejection at the client edge
	// (ClusterOptions.Health).
	HealthConfig = cluster.HealthConfig
	// ResilienceStats counts a run's fault-handling activity (retries,
	// hedges, sheds, timeouts, ejections; ClusterStats.Resilience).
	ResilienceStats = cluster.Resilience
	// SimService is the lightweight queue-model node backend fault
	// fleets use (Cluster.AddSimNode).
	SimService = cluster.SimService
	// SimServiceConfig parameterises a SimService.
	SimServiceConfig = cluster.SimServiceConfig
	// PhasedPoisson is Poisson arrivals on a quantised timeline, the
	// arrival process that keeps faulted sharded runs tie-free.
	PhasedPoisson = load.PhasedPoisson
	// ChaosConfig sweeps the fault-injection scenario (faults × retry
	// policies × routers).
	ChaosConfig = experiments.ChaosConfig
	// ChaosResult holds the chaos sweep grid.
	ChaosResult = experiments.ChaosResult
)

// ErrNoLiveNodes is the typed routing failure when every node is
// crashed or ejected (errors.Is-matchable; see Cluster.PickNode).
var ErrNoLiveNodes = cluster.ErrNoLiveNodes

// NewFaultPlan returns an empty fault schedule; chain Crash, Recover,
// and Brownout calls onto it.
func NewFaultPlan() *FaultPlan { return cluster.NewFaultPlan() }

// NewRetryBudget returns a token-bucket retry budget allowing ratio
// retries per original request with the given burst allowance.
func NewRetryBudget(ratio, burst float64) *RetryBudget { return load.NewRetryBudget(ratio, burst) }

// NewBoundedAdmissionLimiter returns a limiter admitting at most limit
// concurrent requests and queueing at most queueCap more; admissions
// beyond that are shed (Admit returns false and the callback never
// runs).
func NewBoundedAdmissionLimiter(limit, queueCap int) *AdmissionLimiter {
	return load.NewBoundedLimiter(limit, queueCap)
}

// RunChaos executes the fault-injection sweep.
func RunChaos(cfg ChaosConfig) *ChaosResult { return experiments.RunChaos(cfg) }

// DefaultChaos returns the scaled fault-injection sweep (4-node fleet,
// kill + brownout legs, every retry policy and router).
func DefaultChaos() ChaosConfig { return experiments.DefaultChaos() }

// QuickChaos returns a small fast fault-injection sweep.
func QuickChaos() ChaosConfig { return experiments.QuickChaos() }

// Telemetry layer (internal/obs): deterministic simulated-time
// observability — metric samples scraped by engine timers and
// per-request hop spans — with the same byte-identity contract as the
// stats: identical for any worker or shard count. Enable via
// ClusterOptions.MetricsInterval / ClusterOptions.Spans and read back
// with Cluster.Samples / Cluster.Spans.
type (
	// MetricSample is one scraped telemetry row, keyed by (series, node,
	// simulated time).
	MetricSample = obs.Sample
	// RequestSpan is one request's hop timeline through the cluster
	// path (submit → arrive → start → done → reply).
	RequestSpan = obs.Span
	// TailBreakdown attributes tail latency to network, queueing, and
	// service shares ("where does p99 live").
	TailBreakdown = obs.TailBreakdown
)

// BreakSpanTail decomposes the spans at or beyond the q-th total-latency
// quantile into mean network/queue/service shares.
func BreakSpanTail(spans []RequestSpan, q float64) TailBreakdown { return obs.BreakTail(spans, q) }

// NewCluster builds an empty fleet on eng, the group's one shard: every
// node lives on eng and Run is a plain engine run. Add nodes, then
// Serve.
func NewCluster(eng *sim.Engine, opts ClusterOptions, r ClusterRouting) *Cluster {
	return cluster.New(eng, opts, r)
}

// NewShardedCluster builds a fleet spread over `shards` engines
// advanced in conservative lockstep windows (Chandy–Misra–Bryant
// lookahead synchronisation over the network's propagation delay),
// producing results byte-identical to one shard. It is NewCluster on a
// fresh engine plus shards 1..shards−1; shards <= 1 gives one shard.
// Build each node's system on NodeEngine(i), not on Eng. More than one
// shard needs positive request and reply latencies.
func NewShardedCluster(opts ClusterOptions, r ClusterRouting, shards int, seed uint64) *Cluster {
	return cluster.NewSharded(opts, r, shards, seed)
}

// NewRoundRobinRouter returns the stateless rotation policy.
func NewRoundRobinRouter() ClusterRouting { return cluster.NewRoundRobin() }

// NewLeastOutstandingRouter returns the power-of-two-choices
// least-outstanding policy (sampled on the cluster's RNG stream).
func NewLeastOutstandingRouter() ClusterRouting { return cluster.NewLeastOutstanding() }

// NewConsistentHashRouter returns the session-affinity consistent-hash
// policy.
func NewConsistentHashRouter() ClusterRouting { return cluster.NewConsistentHash() }

// NewInferenceService wires the resident microservice stack on a node;
// done fires once per completed request.
func NewInferenceService(sys *System, cfg InferenceServiceConfig, done func(id int)) (*InferenceService, error) {
	return inference.NewService(sys, cfg, done)
}

// RunCluster executes the fleet sweep.
func RunCluster(cfg ClusterConfig) *ClusterResult { return experiments.RunCluster(cfg) }

// DefaultCluster returns the scaled full fleet sweep (3 full nodes +
// 1 straggler).
func DefaultCluster() ClusterConfig { return experiments.DefaultCluster() }

// QuickCluster returns a small fast fleet sweep.
func QuickCluster() ClusterConfig { return experiments.QuickCluster() }

// NewLoadMeter returns a meter judging completions against slo (0 =
// none).
func NewLoadMeter(slo sim.Duration) *LoadMeter { return load.NewMeter(slo) }

// NewAdmissionLimiter returns a limiter admitting at most limit
// concurrent requests (non-positive = unlimited).
func NewAdmissionLimiter(limit int) *AdmissionLimiter { return load.NewLimiter(limit) }

// RunTailLoad executes the tail-latency-under-load sweep.
func RunTailLoad(cfg TailLoadConfig) *TailLoadResult { return experiments.RunTailLoad(cfg) }

// DefaultTailLoad returns the scaled full tailload sweep.
func DefaultTailLoad() TailLoadConfig { return experiments.DefaultTailLoad() }

// QuickTailLoad returns a small fast tailload sweep.
func QuickTailLoad() TailLoadConfig { return experiments.QuickTailLoad() }
