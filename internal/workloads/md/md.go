// Package md reproduces §5.6: LAMMPS molecular dynamics coupled with
// DeePMD-kit. Two simulation ensembles of hybrid MPI+OpenMP ranks run a
// spatially imbalanced CH4 box (14 interleaved dense/sparse x-regions,
// dense regions hold 90% of the atoms). Each step every rank computes
// bandwidth-heavy DeePMD force inference over its local atoms, exchanges
// halos with its neighbours (busy-polling MPI) and joins an allreduce.
// The seven execution scenarios of Fig. 5 vary co-execution, pinning and
// the scheduler.
package md

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/glibc"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/rt/omp"
	"repro/internal/sim"
	"repro/internal/stack"
)

// Scenario is one of Fig. 5's execution configurations.
type Scenario int

// Scenarios. The paper's naming: "socket" spreads each ensemble over both
// sockets; "node" confines each ensemble to one socket.
const (
	Exclusive Scenario = iota
	ColocationNode
	ColocationSocket
	CoexecutionNode
	CoexecutionSocket
	SchedCoopNode
	SchedCoopSocket
)

func (s Scenario) String() string {
	switch s {
	case Exclusive:
		return "exclusive"
	case ColocationNode:
		return "colocation_node"
	case ColocationSocket:
		return "colocation_socket"
	case CoexecutionNode:
		return "coexecution_node"
	case CoexecutionSocket:
		return "coexecution_socket"
	case SchedCoopNode:
		return "schedcoop_node"
	}
	return "schedcoop_socket"
}

// Coop reports whether the scenario uses SCHED_COOP.
func (s Scenario) Coop() bool { return s == SchedCoopNode || s == SchedCoopSocket }

// Colocated reports whether ranks are halved and pinned disjointly.
func (s Scenario) Colocated() bool { return s == ColocationNode || s == ColocationSocket }

// perSocket reports whether each ensemble is confined to one socket
// (the paper's "node" variants).
func (s Scenario) perSocket() bool {
	return s == ColocationNode || s == CoexecutionNode || s == SchedCoopNode
}

// Config parameterises one MD evaluation on the System it is given,
// whose machine topology places the ranks.
type Config struct {
	Scenario Scenario
	// Ensembles is the ensemble count (paper: 2).
	Ensembles int
	// RanksPerEnsemble (paper: 56; colocation scenarios halve this).
	RanksPerEnsemble int
	// OMPPerRank is the OpenMP width per rank (paper: 2).
	OMPPerRank int
	// Steps per simulation (paper: 100).
	Steps int
	// Atoms per ensemble (paper: 100k, 20k CH4 molecules).
	Atoms int
	// Regions along x (paper: 14, alternating dense/sparse, 90/10).
	Regions int
	// PerAtomWork is the single-core DeePMD force cost per atom-step.
	PerAtomWork sim.Duration
	// BWPerThread is the inference memory-bandwidth demand (bytes/ns).
	BWPerThread float64
	// InitWork is the sequential per-ensemble initialisation cost.
	InitWork sim.Duration
	Horizon  sim.Duration
}

// DefaultConfig returns the paper-shaped configuration for MareNostrum5
// (hw.MareNostrum5; the paper's seed is 11).
func DefaultConfig(s Scenario) Config {
	cfg := Config{
		Scenario:         s,
		Ensembles:        2,
		RanksPerEnsemble: 56,
		OMPPerRank:       2,
		Steps:            100,
		Atoms:            100_000,
		Regions:          14,
		PerAtomWork:      650 * sim.Microsecond,
		BWPerThread:      2.0,
		InitWork:         20 * sim.Second,
		Horizon:          3000 * sim.Second,
	}
	if s.Colocated() {
		cfg.RanksPerEnsemble = 28
	}
	return cfg
}

// Result reports one evaluation.
type Result struct {
	// PerEnsemble is each ensemble's Katom-step/s over its own runtime.
	PerEnsemble []float64
	// Aggregate is total atom-steps over total wall time, in Katom/s.
	Aggregate float64
	// BW is the whole-node consumed-bandwidth time series (GB/s).
	BW *metrics.Series
	// AvgBandwidth is the mean of BW over the run (paper's Fig. 5b
	// caption values).
	AvgBandwidth float64
	Elapsed      sim.Duration
	TimedOut     bool
}

// atomsOfRank integrates the dense/sparse density over rank r's x-slab.
func atomsOfRank(cfg Config, r int) int {
	// Density per unit x: regions alternate dense (0.9 of atoms over
	// half the box) and sparse (0.1 over the other half).
	R := cfg.Regions
	denseShare := 0.9 / float64((R+1)/2)
	sparseShare := 0.1 / float64(R/2)
	lo := float64(r) / float64(cfg.RanksPerEnsemble)
	hi := float64(r+1) / float64(cfg.RanksPerEnsemble)
	total := 0.0
	for reg := 0; reg < R; reg++ {
		rLo := float64(reg) / float64(R)
		rHi := float64(reg+1) / float64(R)
		overlap := minF(hi, rHi) - maxF(lo, rLo)
		if overlap <= 0 {
			continue
		}
		share := denseShare
		if reg%2 == 1 {
			share = sparseShare
		}
		total += share * overlap / (rHi - rLo)
	}
	return int(total * float64(cfg.Atoms))
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Run executes one scenario on sys, a fresh system the run drives to
// completion.
func Run(sys *stack.System, cfg Config) Result {
	k := sys.K
	topo := k.HW.Topo

	// Bandwidth tracing: per-socket consumption summed into one series.
	bw := &metrics.Series{}
	perSocket := make([]float64, topo.Sockets)
	k.BWSample = func(at sim.Time, socket int, used float64) {
		perSocket[socket] = used
		total := 0.0
		for _, v := range perSocket {
			total += v
		}
		bw.Add(at, total)
	}

	mode := stack.ModeBaseline
	if cfg.Scenario.Coop() {
		mode = stack.ModeCoop
	}

	ensembleDone := make([]sim.Time, cfg.Ensembles)
	ensembleStart := make([]sim.Time, cfg.Ensembles)
	finished := 0

	var launch func(e int)
	launch = func(e int) {
		ensembleStart[e] = sys.Eng.Now()
		world := mpi.NewWorld(cfg.RanksPerEnsemble, true) // MPICH yield patch (§5.2)
		remaining := cfg.RanksPerEnsemble
		for r := 0; r < cfg.RanksPerEnsemble; r++ {
			r := r
			opts := glibc.Options{Affinity: rankMask(cfg, topo, e, r)}
			_, err := sys.Start(fmt.Sprintf("lmp-e%d-r%d", e, r), mode, opts, func(l *glibc.Lib) {
				runRank(cfg, l, world, e, r)
				remaining--
				if remaining == 0 {
					ensembleDone[e] = l.K.Eng.Now()
					finished++
					if cfg.Scenario == Exclusive && e+1 < cfg.Ensembles {
						launch(e + 1)
					}
				}
			})
			if err != nil {
				panic(err)
			}
		}
	}
	if cfg.Scenario == Exclusive {
		launch(0)
	} else {
		for e := 0; e < cfg.Ensembles; e++ {
			launch(e)
		}
	}

	timedOut, err := sys.Run(cfg.Horizon)
	if err != nil {
		panic(err)
	}
	end := sys.Eng.Now()
	res := Result{BW: bw, TimedOut: timedOut || finished < cfg.Ensembles, Elapsed: sim.Duration(end)}
	if res.TimedOut {
		return res
	}
	totalAtomSteps := 0.0
	var last sim.Time
	for e := 0; e < cfg.Ensembles; e++ {
		el := ensembleDone[e].Sub(ensembleStart[e])
		res.PerEnsemble = append(res.PerEnsemble,
			float64(cfg.Atoms)*float64(cfg.Steps)/el.Seconds()/1000)
		totalAtomSteps += float64(cfg.Atoms) * float64(cfg.Steps)
		if ensembleDone[e] > last {
			last = ensembleDone[e]
		}
	}
	res.Aggregate = totalAtomSteps / last.Seconds() / 1000
	res.AvgBandwidth = bw.Mean(0, last)
	res.Elapsed = sim.Duration(last)
	return res
}

// rankMask returns the rank's process cpuset per scenario.
func rankMask(cfg Config, topo hw.Topology, e, r int) kernel.Mask {
	cores := topo.Cores()
	switch {
	case cfg.Scenario == Exclusive:
		// Disjoint 2-core pins across the whole node.
		base := r * cfg.OMPPerRank % cores
		return kernel.RangeMask(base, base+cfg.OMPPerRank)
	case cfg.Scenario.Colocated():
		// Half ranks, disjoint pins; per the scenario either both
		// ensembles share each socket or each gets its own.
		if cfg.Scenario.perSocket() {
			base := e*topo.CoresPerSocket + r*cfg.OMPPerRank
			return kernel.RangeMask(base, base+cfg.OMPPerRank)
		}
		// spread: ensembles interleave across sockets
		base := (r*cfg.OMPPerRank*2 + e*cfg.OMPPerRank) % cores
		return kernel.RangeMask(base, base+cfg.OMPPerRank)
	case cfg.Scenario.perSocket():
		// Coexecution/coop "node": confine each ensemble to a socket,
		// threads free to migrate within it.
		s := e % topo.Sockets
		return kernel.RangeMask(s*topo.CoresPerSocket, (s+1)*topo.CoresPerSocket)
	default:
		// Spread across the node, no pinning.
		return kernel.Mask{}
	}
}

// runRank is one MPI rank's program.
func runRank(cfg Config, l *glibc.Lib, world *mpi.World, e, r int) {
	rank := world.Register(r, l)
	atoms := atomsOfRank(cfg, r)

	rt := omp.New(l, omp.Config{Flavor: omp.Gomp, NumThreads: cfg.OMPPerRank, WaitPolicy: omp.WaitPassive})
	b := blas.New(l, blas.Config{
		Impl:           blas.OpenBLAS,
		Backend:        blas.BackendOpenMP,
		Threads:        cfg.OMPPerRank,
		OMP:            rt,
		YieldInBarrier: true,
		BWPerThread:    cfg.BWPerThread,
	})

	// Sequential initialisation: rank 0 reads and broadcasts the system
	// (the bandwidth valleys of Fig. 5b); everyone else waits.
	if r == 0 {
		l.Compute(cfg.InitWork)
	}
	rank.Barrier()

	haloBytes := int64(atoms) * 80 / 10 // ~10% boundary atoms, 80B each
	n := world.Size()
	for step := 0; step < cfg.Steps; step++ {
		// Force inference over local atoms (bandwidth-heavy GEMMs).
		b.KernelWork(sim.Duration(atoms) * cfg.PerAtomWork)
		// Halo exchange with x-neighbours.
		if n > 1 {
			left := (r + n - 1) % n
			right := (r + 1) % n
			rank.Send(right, 100+step, haloBytes)
			rank.Send(left, 200+step, haloBytes)
			rank.Recv(left, 100+step)
			rank.Recv(right, 200+step)
		}
		// Global thermodynamic reduction.
		rank.Allreduce(1024)
	}
	rt.Shutdown()
}
