package kernel

import "repro/internal/sim"

// batchClass is SCHED_BATCH: weighted-fair scheduling for threads known
// to be CPU hogs. It shares the fair class's vruntime clock and per-core
// min_vruntime (its queue is a separate instance of the same heap), but
// runs below fair, hands out slices batchSliceMult times longer, never
// preempts on wake-up, and gets no sleeper bonus — fewer, longer quanta
// in exchange for latency.
//
// Simplification vs Linux: real SCHED_BATCH shares the cfs_rq with
// SCHED_OTHER and keeps its weighted share alongside fair threads; here
// batch owns a separate queue ranked below fair, so on a saturated core
// batch threads run only when no fair thread is runnable (closer to
// SCHED_IDLE in mixed fair+batch workloads).
type batchClass struct{ fairClass }

func (b *batchClass) Name() string { return "batch" }
func (b *batchClass) Rank() int    { return rankBatch }

// Slice is the fair slice scaled by batchSliceMult, computed over the
// batch queue's own depth.
func (b *batchClass) Slice(c *Core, t *Thread) sim.Duration {
	p := b.kern.Params
	nr := c.qs[b.slot()].Len() + 1
	s := batchSliceMult * p.TargetLatency / sim.Duration(nr)
	if min := batchSliceMult * p.MinGranularity; s < min {
		s = min
	}
	return s
}

// WakeupPreempts is false: batch threads never disturb the current
// thread on wake-up.
func (b *batchClass) WakeupPreempts(c *Core, t, curr *Thread) bool { return false }

// OnWake places the waking thread at min_vruntime with no sleeper bonus.
func (b *batchClass) OnWake(c *Core, t *Thread) {
	if t.vruntime < c.minVruntime {
		t.vruntime = c.minVruntime
	}
}

// batchSliceMult scales the fair slice for SCHED_BATCH threads.
const batchSliceMult = 4
