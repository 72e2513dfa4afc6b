// Package stack wires complete simulated systems for the paper's four
// software stacks (Fig. 2): Original, Baseline, Manual, and SCHED_COOP.
// Experiment drivers build a System, start processes in a chosen mode, and
// run the engine.
package stack

import (
	"fmt"

	"repro/internal/glibc"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/nosv"
	"repro/internal/sim"
	"repro/internal/usf"
)

// Mode selects one of the paper's evaluated stacks (Fig. 2).
type Mode int

// Stack modes.
const (
	// ModeOriginal: stock glibc, unpatched busy-wait barriers.
	ModeOriginal Mode = iota
	// ModeBaseline: stock glibc, sched_yield patch in busy-wait
	// barriers (the paper's reference point).
	ModeBaseline
	// ModeManual: glibcv/nOS-V with hand-tuned integration (blocking
	// primitives replace busy-wait inside the libraries).
	ModeManual
	// ModeCoop: glibcv with SCHED_COOP, fully transparent.
	ModeCoop
)

func (m Mode) String() string {
	switch m {
	case ModeOriginal:
		return "original"
	case ModeBaseline:
		return "baseline"
	case ModeManual:
		return "manual"
	}
	return "sched_coop"
}

// UsesUSF reports whether the mode runs processes under glibcv.
func (m Mode) UsesUSF() bool { return m == ModeManual || m == ModeCoop }

// YieldInBarrier reports whether busy-wait barriers carry the sched_yield
// patch in this mode (everything except Original).
func (m Mode) YieldInBarrier() bool { return m != ModeOriginal }

// BlockingBarrier reports whether libraries use blocking primitives
// instead of busy-wait (the Manual integration).
func (m Mode) BlockingBarrier() bool { return m == ModeManual }

// System is a fully wired simulated machine.
type System struct {
	Eng *sim.Engine
	K   *kernel.Kernel
	// Coop is the SCHED_COOP policy instance (nil until the first USF
	// process starts).
	Coop *usf.SchedCoop
	// CoopConfig configures the policy created for USF processes.
	CoopConfig usf.CoopConfig

	// rng is the machine's own RNG-stream root, seeded independently of
	// the engine so several systems can share one engine while each keeps
	// the exact stream namespace it would have had on a private engine.
	rng *sim.Rand
}

// New builds a system on the given machine.
func New(machine hw.Config, seed uint64) *System {
	return NewWithParams(machine, seed, kernel.DefaultSchedParams())
}

// NewWithParams builds a system on a private engine with explicit kernel
// scheduler parameters.
func NewWithParams(machine hw.Config, seed uint64, params kernel.SchedParams) *System {
	return NewOnEngine(sim.NewEngine(seed), machine, seed, params)
}

// NewOnEngine builds a system over an existing engine, so N fully
// independent simulated machines can share one deterministic event loop
// (the multi-node cluster layer). All kernel, glibc, nOS-V, and USF
// state is per-system — the kernel owns its cores, stats, tracer, and
// the nOS-V segment registry (kernel.Segments) — so systems on one engine
// never observe each other except through virtual time.
//
// seed roots the system's private RNG-stream namespace (see Rand): a
// system built on a shared engine draws exactly the streams it would
// have drawn on a private engine seeded the same way. A system that
// shares its engine must not use System.Run — the horizon and teardown
// there apply to the whole engine; the owner of the engine (e.g.
// cluster.Cluster) drives the run instead.
func NewOnEngine(eng *sim.Engine, machine hw.Config, seed uint64, params kernel.SchedParams) *System {
	if err := machine.Validate(); err != nil {
		panic(fmt.Errorf("stack: invalid machine %q: %w", machine.Name, err))
	}
	k := kernel.New(eng, machine, params)
	return &System{Eng: eng, K: k, CoopConfig: usf.DefaultCoopConfig(), rng: sim.NewRand(seed)}
}

// Rand returns an independent RNG stream for the given label, rooted at
// the system's own seed. On a private engine (New/NewWithParams) it is
// identical to Eng.Rand; on a shared engine it keeps each system's
// streams independent of its neighbours'.
func (s *System) Rand(label string) *sim.Rand { return s.rng.Stream(label) }

// NewWithClass builds a system whose kernel runs every thread under the
// named scheduling class ("fair", "rr", "fifo", "batch") — the knob the
// kernel-scheduler ablation sweeps. An empty name keeps the default fair
// class.
func NewWithClass(machine hw.Config, seed uint64, class string) *System {
	params := kernel.DefaultSchedParams()
	if class != "" {
		params.DefaultClass = class
	}
	return NewWithParams(machine, seed, params)
}

// Start launches a process under the given mode. Affinity/nice and other
// per-process options come via opts (USF/Policy fields are overridden by
// the mode).
func (s *System) Start(name string, mode Mode, opts glibc.Options, main func(l *glibc.Lib)) (*glibc.Lib, error) {
	opts.USF = mode.UsesUSF()
	if opts.USF {
		opts.Policy = func() nosv.Policy {
			s.Coop = usf.NewSchedCoop(s.CoopConfig)
			return s.Coop
		}
	}
	return glibc.StartProcess(s.K, name, opts, main)
}

// Run drives the simulation to completion with a horizon; it reports
// whether the horizon was hit (the paper's timed-out white squares) and
// tears the system down in that case.
func (s *System) Run(horizon sim.Duration) (timedOut bool, err error) {
	_, hit, err := s.Eng.RunHorizon(horizon)
	if err != nil {
		return false, err
	}
	if hit && s.Eng.Live() > 0 {
		s.Eng.KillAll()
		return true, nil
	}
	return false, nil
}
