// Package hw models the hardware substrate: CPU topology (sockets, NUMA
// nodes, cores), the scheduling-relevant cost constants (context switch,
// migration, cache re-pollution), and the shared per-socket memory
// bandwidth that bounds bandwidth-heavy workloads.
package hw

import (
	"fmt"

	"repro/internal/sim"
)

// Topology describes the CPU layout. Cores are numbered 0..Cores()-1,
// socket-major: core c belongs to socket c / CoresPerSocket. A socket's
// NUMA nodes split it into equal runs of consecutive cores (Validate
// requires NUMAPerSocket to divide CoresPerSocket), so every NUMA node is
// a contiguous core range; see NUMARange.
type Topology struct {
	Sockets        int
	CoresPerSocket int
	// NUMAPerSocket lets a socket expose multiple NUMA domains
	// (sub-NUMA clustering). 1 for most configurations.
	NUMAPerSocket int
}

// Cores returns the total number of cores.
func (t Topology) Cores() int { return t.Sockets * t.CoresPerSocket }

// NUMANodes returns the total number of NUMA domains.
func (t Topology) NUMANodes() int { return t.Sockets * t.NUMAPerSocket }

// SocketOf returns the socket that owns core c.
func (t Topology) SocketOf(c int) int { return c / t.CoresPerSocket }

// NUMAOf returns the NUMA node that owns core c.
func (t Topology) NUMAOf(c int) int {
	perNode := t.CoresPerSocket / t.NUMAPerSocket
	return c / perNode
}

// NUMARange returns the cores of c's NUMA node as the half-open range
// [lo, hi). Per-core loops that prefer c's node walk [lo, hi) and then
// [0, lo) and [hi, Cores()) for the remote cores, which visits the cores
// in the same ascending order as filtering 0..Cores()-1 by SameNUMA, with
// one division per call instead of two per core.
func (t Topology) NUMARange(c int) (lo, hi int) {
	perNode := t.CoresPerSocket / t.NUMAPerSocket
	lo = c - c%perNode
	return lo, lo + perNode
}

// SameSocket reports whether cores a and b share a socket.
func (t Topology) SameSocket(a, b int) bool { return t.SocketOf(a) == t.SocketOf(b) }

// SameNUMA reports whether cores a and b share a NUMA node.
func (t Topology) SameNUMA(a, b int) bool { return t.NUMAOf(a) == t.NUMAOf(b) }

// SocketCores returns the core ids belonging to socket s.
func (t Topology) SocketCores(s int) []int {
	out := make([]int, t.CoresPerSocket)
	for i := range out {
		out[i] = s*t.CoresPerSocket + i
	}
	return out
}

// Costs holds the scheduling cost constants. All values are in virtual
// time; they are calibrated to typical Linux/x86 figures, and the defaults
// approximate the paper's Sapphire Rapids testbed.
type Costs struct {
	// ContextSwitch is the direct cost of switching the thread running
	// on a core (register state, kernel path).
	ContextSwitch sim.Duration
	// MigrationSameNUMA / MigrationCrossNUMA / MigrationCrossSocket are
	// added when a thread resumes on a different core than it last ran
	// on, before any cache-refill effect.
	MigrationSameNUMA    sim.Duration
	MigrationCrossNUMA   sim.Duration
	MigrationCrossSocket sim.Duration
	// CacheRefillBytesPerNs converts a thread's working-set footprint
	// into a warm-up penalty when its cache state was evicted (another
	// thread ran on the core in between, or it migrated).
	CacheRefillBytesPerNs float64
	// L2Bytes caps the per-core refill penalty (beyond L2 the model
	// assumes the data was never core-local anyway).
	L2Bytes int64
	// SyscallEntry is the fixed cost of entering the simulated kernel
	// (futex, yield, nanosleep, ...).
	SyscallEntry sim.Duration
	// TimerTick is the cost charged when a preemption timer fires and
	// interrupts a running thread.
	TimerTick sim.Duration
}

// Memory describes the per-socket shared memory system.
type Memory struct {
	// SocketBandwidth is the sustainable read+write bandwidth of one
	// socket's memory controllers, in bytes per virtual nanosecond
	// (i.e. GB/s when multiplied by ~1).
	SocketBandwidth float64
	// RemotePenalty scales effective bandwidth demand for accesses that
	// cross the socket interconnect (>1 means remote traffic is more
	// expensive).
	RemotePenalty float64
}

// Config is a complete machine description.
type Config struct {
	Name  string
	Topo  Topology
	Costs Costs
	Mem   Memory
	// CoreGFLOPS is the per-core peak double-precision rate used by the
	// BLAS cost model (flops per ns = GFLOPS).
	CoreGFLOPS float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Topo.Sockets <= 0 || c.Topo.CoresPerSocket <= 0 {
		return fmt.Errorf("hw: invalid topology %+v", c.Topo)
	}
	if c.Topo.NUMAPerSocket <= 0 || c.Topo.CoresPerSocket%c.Topo.NUMAPerSocket != 0 {
		return fmt.Errorf("hw: NUMAPerSocket %d must divide CoresPerSocket %d",
			c.Topo.NUMAPerSocket, c.Topo.CoresPerSocket)
	}
	if c.CoreGFLOPS <= 0 {
		return fmt.Errorf("hw: CoreGFLOPS must be positive")
	}
	if c.Mem.SocketBandwidth <= 0 {
		return fmt.Errorf("hw: SocketBandwidth must be positive")
	}
	return nil
}

// DefaultCosts returns cost constants calibrated to contemporary x86
// server parts.
func DefaultCosts() Costs {
	return Costs{
		ContextSwitch:         1800 * sim.Nanosecond,
		MigrationSameNUMA:     3 * sim.Microsecond,
		MigrationCrossNUMA:    6 * sim.Microsecond,
		MigrationCrossSocket:  12 * sim.Microsecond,
		CacheRefillBytesPerNs: 20, // ~20 GB/s effective refill stream
		L2Bytes:               2 << 20,
		SyscallEntry:          300 * sim.Nanosecond,
		TimerTick:             900 * sim.Nanosecond,
	}
}

// MareNostrum5 models the paper's evaluation node (Table 1): dual-socket
// Intel Sapphire Rapids 8480+, 56 cores per socket, 256 GiB, ~307 GB/s
// per-socket theoretical DDR5 bandwidth of which ~60% is sustainable; the
// paper's Fig. 5b observes ~250 GB/s total, so we use 128 GB/s per socket.
func MareNostrum5() Config {
	return Config{
		Name:  "MareNostrum5",
		Topo:  Topology{Sockets: 2, CoresPerSocket: 56, NUMAPerSocket: 1},
		Costs: DefaultCosts(),
		Mem: Memory{
			SocketBandwidth: 128, // bytes/ns == GB/s
			RemotePenalty:   1.6,
		},
		CoreGFLOPS: 48, // sustained dgemm per core (AVX-512, derated)
	}
}

// SmallNode returns an 8-core single-socket machine for tests and the
// quickstart example.
func SmallNode() Config {
	cfg := MareNostrum5()
	cfg.Name = "SmallNode"
	cfg.Topo = Topology{Sockets: 1, CoresPerSocket: 8, NUMAPerSocket: 1}
	cfg.Mem.SocketBandwidth = 64
	return cfg
}

// DualSocket16 returns a 2x8-core machine, the smallest shape that still
// exercises NUMA and cross-socket placement logic.
func DualSocket16() Config {
	cfg := MareNostrum5()
	cfg.Name = "DualSocket16"
	cfg.Topo = Topology{Sockets: 2, CoresPerSocket: 8, NUMAPerSocket: 1}
	cfg.Mem.SocketBandwidth = 64
	return cfg
}
