package sim

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/partition"
)

// TestPCIeLinkCapsHotBandwidth checks the +PCIe architecture end to end:
// the off-die Sextans can never draw more than the 32 GB/s link, visible in
// both the trace's per-pool split and the HotOnly makespan.
func TestPCIeLinkCapsHotBandwidth(t *testing.T) {
	a := scaledArch(arch.SpadeSextansPCIe(), 64)
	g, _, _ := testSetup(t, &a, 71)

	r, err := Run(g, partition.AllHot(g), &a, nil, Options{SkipFunctional: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	const pcie = 32e9
	for _, p := range r.Trace {
		if p.PoolBW[1] > pcie*(1+1e-9) {
			t.Fatalf("hot pool drew %.3g B/s over a %.3g link", p.PoolBW[1], pcie)
		}
	}
	// The makespan respects the link as a hard lower bound.
	if r.Time < r.HotBytes/pcie-1e-12 {
		t.Fatalf("HotOnly time %.3e below link-limited bound %.3e", r.Time, r.HotBytes/pcie)
	}

	// The on-die SPADE pool is not PCIe-limited: a heterogeneous run may
	// exceed 32 GB/s in aggregate.
	res := hotTiles(t, g, a.Config(2))
	both, err := Run(g, res.Hot, &a, nil, Options{Serial: res.Serial, SkipFunctional: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if PeakBW(both.Trace) <= pcie {
		t.Fatalf("aggregate peak %.3g should exceed the PCIe link", PeakBW(both.Trace))
	}
}

// TestPCIeSlowsHotOnly: the same HotOnly workload must be slower behind the
// PCIe link than with the on-die Sextans of the plain architecture.
func TestPCIeSlowsHotOnly(t *testing.T) {
	onDie := scaledArch(arch.SpadeSextans(4), 64)
	offDie := scaledArch(arch.SpadeSextansPCIe(), 64)
	g, _, _ := testSetup(t, &onDie, 72)
	hot := partition.AllHot(g)
	rOn, err := Run(g, hot, &onDie, nil, Options{SkipFunctional: true})
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := Run(g, hot, &offDie, nil, Options{SkipFunctional: true})
	if err != nil {
		t.Fatal(err)
	}
	if rOff.Time <= rOn.Time {
		t.Fatalf("PCIe HotOnly %.3e not slower than on-die %.3e", rOff.Time, rOn.Time)
	}
}
