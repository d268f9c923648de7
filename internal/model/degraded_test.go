package model

import (
	"errors"
	"math"
	"testing"

	"repro/internal/topology"
)

func degradedNet(t *testing.T, spec string, fs topology.FaultSet) *topology.Degraded {
	t.Helper()
	d, err := topology.Overlay(topology.MustParseSpec(spec), fs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Degraded phase costs dominate the healthy closed forms: slow wires
// scale the steps that cross them, dead wires stretch routes by their
// detours.
func TestPhaseCostOnDegradedDominatesHealthy(t *testing.T) {
	p := IPSC860()
	bare := topology.MustParseSpec("torus-4x4")
	healthyCost := func(lo, w int) float64 {
		c, err := p.PhaseCostOn(bare, 64, lo, w)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	slow := degradedNet(t, "torus-4x4", topology.FaultSet{
		SlowLinks: []topology.SlowLink{{Link: topology.Link{A: 0, B: 1}, Factor: 3}},
	})
	dead := degradedNet(t, "torus-4x4", topology.FaultSet{
		DeadLinks: []topology.Link{{A: 0, B: 1}},
	})
	for _, f := range [][2]int{{0, 1}, {1, 1}, {0, 2}} {
		lo, w := f[0], f[1]
		h := healthyCost(lo, w)
		s, err := p.PhaseCostOn(slow, 64, lo, w)
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.PhaseCostOn(dead, 64, lo, w)
		if err != nil {
			t.Fatal(err)
		}
		// The slow wire sits in dimension 0 (nodes 0 and 1); fields that
		// route over it must cost strictly more, none may cost less.
		if s < h || d < h {
			t.Fatalf("field [%d,%d): degraded costs (slow %v, dead %v) below healthy %v", lo, lo+w, s, d, h)
		}
		if lo == 0 && (s <= h || d <= h) {
			t.Fatalf("field [%d,%d) crosses the fault but costs (slow %v, dead %v) ≤ healthy %v",
				lo, lo+w, s, d, h)
		}
	}
}

// A non-operational overlay is an error wrapping ErrUnroutable, never a
// cost.
func TestPhaseCostOnNonOperational(t *testing.T) {
	p := IPSC860()
	dead := degradedNet(t, "torus-4x4", topology.FaultSet{DeadNodes: []int{3}})
	if _, err := p.PhaseCostOn(dead, 64, 0, 1); !errors.Is(err, topology.ErrUnroutable) {
		t.Fatalf("PhaseCostOn with dead node: %v, want ErrUnroutable", err)
	}
	if _, _, err := p.MultiphaseOn(dead, 64, []int{1, 1}); !errors.Is(err, topology.ErrUnroutable) {
		t.Fatalf("MultiphaseOn with dead node: %v, want ErrUnroutable", err)
	}
}

// The admissible lower bound stays below the degraded phase cost —
// detours and slow factors only push the cost up, so the healthy-form
// bound keeps its pruning guarantee on faulty overlays.
func TestLowerBoundAdmissibleOnDegraded(t *testing.T) {
	p := IPSC860()
	slow := degradedNet(t, "torus-4x4", topology.FaultSet{
		SlowLinks: []topology.SlowLink{{Link: topology.Link{A: 0, B: 1}, Factor: 7}},
		DeadLinks: []topology.Link{{A: 4, B: 8}},
	})
	for _, f := range [][2]int{{0, 1}, {1, 1}, {0, 2}} {
		lo, w := f[0], f[1]
		for _, m := range []int{0, 16, 256} {
			lb, err := p.PhaseLowerBoundOn(slow, m, lo, w)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := p.PhaseCostOn(slow, m, lo, w)
			if err != nil {
				t.Fatal(err)
			}
			syncAdjust := 0.0
			if !p.GlobalSyncPerPhase {
				// The bound charges the simulator's unconditional
				// per-phase barrier; the analytic cost only charges it
				// when GlobalSyncPerPhase is set.
				syncAdjust = p.GlobalSync(slow.Diameter())
			}
			if lb-syncAdjust > cost {
				t.Fatalf("field [%d,%d) m=%d: lower bound %v above degraded cost %v",
					lo, lo+w, m, lb, cost)
			}
		}
	}
}

// Past degradedExactWork a degraded phase is priced by the fallback: every
// step charged one (distance, slow factor) pair, which is kept once, not
// once per step. The sum still adds span−1 equal terms in step order, so
// PhaseCostOn and PhaseLineOn are pinned to the bits they had when every
// step kept its own copy: two fallback fields of a 65 536-node torus with a
// dead and a slow wire, three block sizes, two machines. The [0,2) rows
// (span 65 536) were re-recorded when the healthy distance total they
// share out became exact instead of a per-dimension upper bound.
func TestDegradedFallbackBits(t *testing.T) {
	net := topology.MustParseSpec("torus-256x256!dl=0-1!sl=2-3:2.5")
	type row struct {
		lo, w, m               int
		cost, slope, intercept uint64
	}
	for _, tc := range []struct {
		machine string
		prm     Params
		rows    []row
	}{
		{"ipsc860", IPSC860(), []row{
			{0, 2, 0, 0x41bbfcfb493fea8e, 0x40ef84ff33333334, 0x41bbfcfb493fea8e},
			{0, 2, 40, 0x41bc246188403712, 0x40ef84ff33333334, 0x41bbfcfb493fea8e},
			{0, 2, 512, 0x41bdf54b3c730b8e, 0x40ef84ff33333334, 0x41bbfcfb493fea8e},
			{1, 1, 0, 0x412f2f9280000019, 0x40f856a3d70a3d71, 0x412f2f9280000019},
			{1, 1, 40, 0x41531c18b6666674, 0x40f856a3d70a3d71, 0x412f2f9280000019},
			{1, 1, 512, 0x4188d362210a3d60, 0x40f856a3d70a3d71, 0x412f2f9280000019},
		}},
		{"hypo", Hypothetical(), []row{
			{0, 2, 0, 0x41bb70e4a7ffeb61, 0x4103ffec00000000, 0x41bb70e4a7ffeb61},
			{0, 2, 40, 0x41bbd4e443ffeb51, 0x4103ffec00000000, 0x41bb70e4a7ffeb61},
			{0, 2, 512, 0x41c0386fd3fff55a, 0x4103ffec00000000, 0x41bb70e4a7ffeb61},
			{1, 1, 0, 0x412dab4fffffffeb, 0x410bec0000000000, 0x412dab4fffffffeb},
			{1, 1, 40, 0x41634e34fffffff6, 0x410bec0000000000, 0x412dab4fffffffeb},
			{1, 1, 512, 0x419c27569fffffe6, 0x410bec0000000000, 0x412dab4fffffffeb},
		}},
	} {
		for _, r := range tc.rows {
			if span, _ := topology.SpanSize(net, r.lo, r.w); uint64(net.Nodes())*uint64(span-1) <= degradedExactWork {
				t.Fatalf("field [%d,%d) is priced exactly; the test needs the fallback", r.lo, r.lo+r.w)
			}
			cost, err := tc.prm.PhaseCostOn(net, r.m, r.lo, r.w)
			if err != nil {
				t.Fatal(err)
			}
			slope, intercept, err := tc.prm.PhaseLineOn(net, r.lo, r.w)
			if err != nil {
				t.Fatal(err)
			}
			if got := [3]uint64{math.Float64bits(cost), math.Float64bits(slope), math.Float64bits(intercept)}; got != [3]uint64{r.cost, r.slope, r.intercept} {
				t.Errorf("%s field [%d,%d) m=%d: cost, slope, intercept bits %#x, recorded %#x",
					tc.machine, r.lo, r.lo+r.w, r.m, got, [3]uint64{r.cost, r.slope, r.intercept})
			}
		}
	}
	pm, err := phaseMetricsDegraded(net.(*topology.Degraded), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pm.steps != 65535 || len(pm.dist) != 1 || len(pm.slow) != 1 {
		t.Errorf("fallback keeps %d distances and %d slow factors for %d steps, want one pair", len(pm.dist), len(pm.slow), pm.steps)
	}
}
