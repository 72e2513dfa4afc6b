// MD ensembles: a scaled-down §5.6 run — two LAMMPS+DeePMD ensembles
// under the seven execution scenarios, reporting the per-ensemble and
// aggregate Katom-step/s plus the memory-bandwidth usage of each.
package main

import (
	"fmt"

	usched "repro"
	"repro/internal/sim"
	"repro/internal/workloads/md"
)

func main() {
	fmt.Println("Two MD ensembles, 16 cores (scaled): Fig. 5 scenarios")
	for _, s := range []md.Scenario{
		md.Exclusive, md.ColocationNode, md.ColocationSocket,
		md.CoexecutionNode, md.CoexecutionSocket,
		md.SchedCoopNode, md.SchedCoopSocket,
	} {
		cfg := usched.MDConfig{
			Scenario:         s,
			Ensembles:        2,
			RanksPerEnsemble: 8,
			OMPPerRank:       2,
			Steps:            5,
			Atoms:            4000,
			Regions:          14,
			PerAtomWork:      650 * sim.Microsecond,
			BWPerThread:      2.0,
			InitWork:         500 * sim.Millisecond,
			Horizon:          1200 * sim.Second,
		}
		if s.Colocated() {
			cfg.RanksPerEnsemble = 4
		}
		res := usched.RunMD(usched.NewSystem(usched.DualSocket16(), 11), cfg)
		if res.TimedOut {
			fmt.Printf("%-20s timed out\n", s)
			continue
		}
		fmt.Printf("%-20s per-ensemble %6.1f / %6.1f   aggregate %6.1f Katom-step/s   avg BW %6.1f GB/s\n",
			s, res.PerEnsemble[0], res.PerEnsemble[1], res.Aggregate, res.AvgBandwidth)
	}
}
