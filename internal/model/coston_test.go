package model

import (
	"math"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/topology"
)

// MultiphaseOn on a hypercube must agree exactly with the original
// eq.-(3) closed form, for every machine, partition and block size.
func TestMultiphaseOnMatchesMultiphaseOnHypercube(t *testing.T) {
	for name, prm := range Machines() {
		for _, d := range []int{1, 3, 5, 7} {
			h := topology.MustNew(d)
			for _, D := range partition.All(d) {
				for _, m := range []int{0, 1, 40, 400} {
					want, wantPhases := prm.Multiphase(m, d, D)
					got, gotPhases, err := prm.MultiphaseOn(h, m, D)
					if err != nil {
						t.Fatalf("%s d=%d %v: %v", name, d, D, err)
					}
					if got != want {
						t.Fatalf("%s d=%d %v m=%d: MultiphaseOn %v, Multiphase %v",
							name, d, D, m, got, want)
					}
					if len(gotPhases) != len(wantPhases) {
						t.Fatalf("%s d=%d %v: phase count differs", name, d, D)
					}
				}
			}
		}
	}
}

// The hypercube fast path must still validate groupings.
func TestMultiphaseOnValidation(t *testing.T) {
	prm := IPSC860()
	h := topology.MustNew(4)
	if _, _, err := prm.MultiphaseOn(h, 10, partition.Partition{3}); err == nil {
		t.Error("short grouping must fail")
	}
	if _, _, err := prm.MultiphaseOn(h, 10, partition.Partition{5, -1}); err == nil {
		t.Error("negative group must fail")
	}
	tor := topology.MustParseSpec("torus-4x4")
	if _, _, err := prm.MultiphaseOn(tor, 10, partition.Partition{3}); err == nil {
		t.Error("short torus grouping must fail")
	}
	if _, _, err := prm.MultiphaseOn(topology.MustNew(0), 10, nil); err != nil {
		t.Error("single-node topology with empty grouping must cost 0")
	}
}

// Torus phase costs must be structurally sane: a single-phase plan pays
// no shuffle, multi-phase plans pay one per phase, and the distance term
// reflects wraparound (a torus phase is never costlier than the same
// mesh phase).
func TestPhaseCostOnStructure(t *testing.T) {
	prm := IPSC860()
	tor := topology.MustParseSpec("torus-4x4")
	mesh := topology.MustParseSpec("mesh-4x4")

	single, phases, err := prm.MultiphaseOn(tor, 32, partition.Partition{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 1 || single <= 0 {
		t.Fatalf("single phase: %v %v", single, phases)
	}
	two, phases2, err := prm.MultiphaseOn(tor, 32, partition.Partition{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases2) != 2 {
		t.Fatalf("two phases: %v", phases2)
	}
	// Each single-dimension phase moves superblocks of m·n/r bytes.
	if phases2[0].EffBlock != 32*16/4 {
		t.Errorf("EffBlock = %d", phases2[0].EffBlock)
	}

	tSingleTor, err := prm.PhaseCostOn(tor, 32, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	tSingleMesh, err := prm.PhaseCostOn(mesh, 32, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tSingleTor > tSingleMesh {
		t.Errorf("torus phase (%v) costlier than mesh phase (%v): wraparound should not hurt",
			tSingleTor, tSingleMesh)
	}
	if math.IsNaN(single) || math.IsNaN(two) {
		t.Error("NaN phase cost")
	}
}

// The memoized shift-distance term must equal a direct enumeration of
// the cyclic schedule's worst-case step distances.
func TestPhaseDistTotalMatchesEnumeration(t *testing.T) {
	net := topology.MustParseSpec("torus-5x3")
	lo, w := 0, 2
	span := 15
	want := 0.0
	for j := 1; j < span; j++ {
		maxDist := 0
		for f := 0; f < span; f++ {
			if d := net.Distance(f, (f+j)%span); d > maxDist {
				maxDist = d
			}
		}
		want += float64(maxDist)
	}
	if got := phaseDistTotal(net, lo, w, span); got != want {
		t.Errorf("phaseDistTotal = %v, enumeration %v", got, want)
	}
	// Second call must hit the memo and agree.
	if got := phaseDistTotal(net, lo, w, span); got != want {
		t.Errorf("memoized phaseDistTotal = %v, want %v", got, want)
	}
}

// An out-of-range field must be an error, never a zero cost.
func TestPhaseCostOnRejectsBadField(t *testing.T) {
	prm := IPSC860()
	tor := topology.MustParseSpec("torus-4x4")
	if _, err := prm.PhaseCostOn(tor, 10, 1, 2); err == nil {
		t.Error("field past the last dimension must fail")
	}
	if _, err := prm.PhaseCostOn(tor, 10, 0, 0); err == nil {
		t.Error("zero-width field must fail")
	}
}

// Beyond exactShiftDistSpan the distance term switches to the
// per-dimension closed form: it must return promptly for huge tori and
// upper-bound the exact enumeration on a span just past the cutoff.
func TestPhaseDistTotalLargeSpanClosedForm(t *testing.T) {
	big := topology.MustParseSpec("torus-1024x1024")
	start := time.Now()
	total, _, err := IPSC860().MultiphaseOn(big, 40, partition.Partition{2})
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Error("non-positive large-torus cost")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("large-torus analytic cost took %v: the O(span²) path leaked back in", elapsed)
	}

	// On a span just over the cutoff, the closed form must dominate the
	// exact worst-case enumeration (it is an upper bound).
	net := topology.MustParseSpec("torus-84x84") // span 7056 > exactShiftDistSpan
	closed := phaseDistTotal(net, 0, 2, 84*84)
	span := 84 * 84
	exact := 0.0
	for j := 1; j < span; j++ {
		maxDist := 0
		for f := 0; f < span; f += 97 { // sampled f, still a lower bound on the max
			if d := net.Distance(f, (f+j)%span); d > maxDist {
				maxDist = d
			}
		}
		exact += float64(maxDist)
	}
	if closed < exact {
		t.Errorf("closed form %v below sampled exact lower bound %v", closed, exact)
	}
}

// PhaseLineOn is PhaseCostOn regrouped by power of m: on every machine,
// every field of a cube, a torus, a mixed-radix mesh and the three kinds
// of overlay, intercept + slope·m must agree with PhaseCostOn — and, on a
// hypercube, with eq. (3)'s PhaseCost — to rounding.
func TestPhaseLineOnMatchesPhaseCostOn(t *testing.T) {
	for name, prm := range Machines() {
		for _, spec := range []string{
			"hypercube-5", "torus-4x4x4", "mesh-3x5x4", "torus-4x8x2",
			"hypercube-6!dl=0-1", "hypercube-6!sl=0-1:2.5", "torus-8x8!dl=0-1",
		} {
			net := topology.MustParseSpec(spec)
			cube, _ := topology.AsHypercube(net)
			for lo := 0; lo < net.NumDims(); lo++ {
				for w := 1; lo+w <= net.NumDims(); w++ {
					slope, intercept, err := prm.PhaseLineOn(net, lo, w)
					if err != nil {
						t.Fatalf("%s %s [%d,%d): %v", name, spec, lo, lo+w, err)
					}
					for _, m := range []int{0, 1, 40, 512, 1 << 20} {
						want, err := prm.PhaseCostOn(net, m, lo, w)
						if err != nil {
							t.Fatal(err)
						}
						got := intercept + slope*float64(m)
						if math.Abs(got-want) > 1e-12*want {
							t.Errorf("%s %s [%d,%d) m=%d: line %v, PhaseCostOn %v", name, spec, lo, lo+w, m, got, want)
						}
						if cube != nil {
							if eq3 := prm.PhaseCost(m, cube.Dim(), w); math.Abs(got-eq3) > 1e-12*eq3 {
								t.Errorf("%s %s w=%d m=%d: line %v, PhaseCost %v", name, spec, w, m, got, eq3)
							}
						}
					}
				}
			}
		}
	}
	if _, _, err := IPSC860().PhaseLineOn(topology.MustParseSpec("torus-4x4"), 1, 2); err == nil {
		t.Error("field past the last dimension must fail")
	}
}

// A warm answer on a grid fabric prices its segment without copying the
// fabric: the per-phase breakdown is the only allocation.
func TestMultiphaseOnAllocs(t *testing.T) {
	prm := IPSC860()
	net, err := topology.Resolve("torus-4x4x4")
	if err != nil {
		t.Fatal(err)
	}
	D := partition.Partition{2, 1}
	if _, _, err := prm.MultiphaseOn(net, 40, D); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { prm.MultiphaseOn(net, 40, D) }); allocs != 1 {
		t.Fatalf("MultiphaseOn on %s allocates %v times, want 1 (the phase slice)", net.Name(), allocs)
	}
}
