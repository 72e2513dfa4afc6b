package hw

import (
	"testing"
	"testing/quick"
)

func TestTopologyMapping(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 56, NUMAPerSocket: 1}
	if topo.Cores() != 112 {
		t.Fatalf("Cores = %d, want 112", topo.Cores())
	}
	if topo.SocketOf(0) != 0 || topo.SocketOf(55) != 0 || topo.SocketOf(56) != 1 || topo.SocketOf(111) != 1 {
		t.Fatal("SocketOf mapping wrong")
	}
	if !topo.SameSocket(3, 50) || topo.SameSocket(55, 56) {
		t.Fatal("SameSocket wrong")
	}
	if !topo.SameNUMA(0, 55) || topo.SameNUMA(55, 56) {
		t.Fatal("SameNUMA wrong")
	}
}

func TestTopologySubNUMA(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 8, NUMAPerSocket: 2}
	if topo.NUMANodes() != 4 {
		t.Fatalf("NUMANodes = %d, want 4", topo.NUMANodes())
	}
	if topo.NUMAOf(0) != 0 || topo.NUMAOf(3) != 0 || topo.NUMAOf(4) != 1 || topo.NUMAOf(8) != 2 || topo.NUMAOf(15) != 3 {
		t.Fatal("sub-NUMA mapping wrong")
	}
	if topo.SameNUMA(3, 4) {
		t.Fatal("cores 3 and 4 must be in different sub-NUMA nodes")
	}
	if !topo.SameSocket(3, 4) {
		t.Fatal("cores 3 and 4 share a socket")
	}
}

func TestSocketCores(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 4, NUMAPerSocket: 1}
	got := topo.SocketCores(1)
	want := []int{4, 5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SocketCores(1) = %v, want %v", got, want)
		}
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []Config{MareNostrum5(), SmallNode(), DualSocket16()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestMareNostrum5Shape(t *testing.T) {
	cfg := MareNostrum5()
	if cfg.Topo.Cores() != 112 {
		t.Fatalf("MN5 cores = %d, want 112 (Table 1: 56x2)", cfg.Topo.Cores())
	}
	if cfg.Topo.Sockets != 2 {
		t.Fatal("MN5 must be dual-socket")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Topo: Topology{Sockets: 0, CoresPerSocket: 8, NUMAPerSocket: 1}, CoreGFLOPS: 1, Mem: Memory{SocketBandwidth: 1}},
		{Topo: Topology{Sockets: 1, CoresPerSocket: 8, NUMAPerSocket: 3}, CoreGFLOPS: 1, Mem: Memory{SocketBandwidth: 1}},
		{Topo: Topology{Sockets: 1, CoresPerSocket: 8, NUMAPerSocket: 1}, CoreGFLOPS: 0, Mem: Memory{SocketBandwidth: 1}},
		{Topo: Topology{Sockets: 1, CoresPerSocket: 8, NUMAPerSocket: 1}, CoreGFLOPS: 1, Mem: Memory{SocketBandwidth: 0}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestSocketOfNUMAOfConsistency(t *testing.T) {
	// Property: a core's NUMA node always lies within its socket's NUMA
	// range, for arbitrary (small) topologies.
	f := func(sockets, cps, npsRaw uint8) bool {
		s := int(sockets%4) + 1
		c := (int(cps%8) + 1) * 2
		nps := 1
		if npsRaw%2 == 1 && c%2 == 0 {
			nps = 2
		}
		topo := Topology{Sockets: s, CoresPerSocket: c, NUMAPerSocket: nps}
		for core := 0; core < topo.Cores(); core++ {
			sock := topo.SocketOf(core)
			numa := topo.NUMAOf(core)
			if numa < sock*nps || numa >= (sock+1)*nps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNUMARangeMatchesSameNUMA: for every topology the tests use (the
// presets, their shrunken single-socket variants, the sub-NUMA shape)
// and every small valid shape besides, NUMARange(c) is exactly the set
// {d : SameNUMA(c, d)}.
func TestNUMARangeMatchesSameNUMA(t *testing.T) {
	topos := []Topology{
		MareNostrum5().Topo,
		SmallNode().Topo,
		DualSocket16().Topo,
		{Sockets: 1, CoresPerSocket: 1, NUMAPerSocket: 1},
		{Sockets: 1, CoresPerSocket: 2, NUMAPerSocket: 1},
		{Sockets: 1, CoresPerSocket: 4, NUMAPerSocket: 1},
		{Sockets: 1, CoresPerSocket: 28, NUMAPerSocket: 1},
		{Sockets: 2, CoresPerSocket: 4, NUMAPerSocket: 1},
		{Sockets: 2, CoresPerSocket: 8, NUMAPerSocket: 2},
	}
	for s := 1; s <= 4; s++ {
		for cps := 1; cps <= 16; cps++ {
			for nps := 1; nps <= cps; nps++ {
				if cps%nps == 0 {
					topos = append(topos, Topology{Sockets: s, CoresPerSocket: cps, NUMAPerSocket: nps})
				}
			}
		}
	}
	for _, topo := range topos {
		n := topo.Cores()
		for c := 0; c < n; c++ {
			lo, hi := topo.NUMARange(c)
			if lo < 0 || hi > n || lo > c || c >= hi {
				t.Fatalf("%+v: NUMARange(%d) = [%d, %d) does not hold core %d inside [0, %d)", topo, c, lo, hi, c, n)
			}
			for d := 0; d < n; d++ {
				if in := d >= lo && d < hi; in != topo.SameNUMA(c, d) {
					t.Fatalf("%+v: core %d in NUMARange(%d) = [%d, %d) is %v, SameNUMA is %v",
						topo, d, c, lo, hi, in, topo.SameNUMA(c, d))
				}
			}
		}
	}
}
