package model

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/topology"
)

// MultiphaseOn on a hypercube must agree exactly with the original
// eq.-(3) closed form, for every machine, partition and block size, and
// PhaseLineOn with eq. (3)'s line, bit for bit, on every field.
func TestMultiphaseOnMatchesMultiphaseOnHypercube(t *testing.T) {
	for name, prm := range Machines() {
		for _, d := range []int{1, 3, 5, 7} {
			h := topology.MustNew(d)
			for w := 1; w <= d; w++ {
				wantSlope, wantIntercept := prm.PhaseLine(d, w)
				for lo := 0; lo+w <= d; lo++ {
					slope, intercept, err := prm.PhaseLineOn(h, lo, w)
					if err != nil {
						t.Fatalf("%s d=%d [%d,%d): %v", name, d, lo, lo+w, err)
					}
					if math.Float64bits(slope) != math.Float64bits(wantSlope) || math.Float64bits(intercept) != math.Float64bits(wantIntercept) {
						t.Fatalf("%s d=%d [%d,%d): PhaseLineOn %v + %v·m, PhaseLine %v + %v·m",
							name, d, lo, lo+w, intercept, slope, wantIntercept, wantSlope)
					}
				}
			}
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

// MultiphaseOn must validate groupings on a hypercube as on a grid.
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
// the cyclic schedule's worst-case step distances, on the first call and
// when read back from the memo.
func TestPhaseDistTotalMatchesEnumeration(t *testing.T) {
	net := topology.MustParseSpec("torus-5x3")
	want, _ := shiftDistOracle(net, 0, 2)
	for range 2 {
		if got := phaseDistTotal(net, 0, 2, 15); got != float64(want) {
			t.Errorf("phaseDistTotal = %v, enumeration %d", got, want)
		}
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

// The distance facts are exact at every span: a torus of a million nodes
// prices promptly (no O(span²) path), and a field past span 4096 equals
// the enumeration, so no span size switches the method.
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
	checkShiftDist(t, topology.MustParseSpec("torus-65x65")) // span 4225
}

// shiftDistOracle enumerates the cyclic phase over the field [lo, lo+w) of
// a healthy net in O(span²): the sum over steps of the worst distance of
// the step (phaseDistTotal) and the busiest node's total distance over
// the steps (maxNodeShiftDist).
func shiftDistOracle(net topology.Network, lo, w int) (total, busiest int) {
	span, _ := topology.SpanSize(net, lo, w)
	stride := net.Stride(lo)
	node := make([]int, span)
	for j := 1; j < span; j++ {
		worst := 0
		for f := range node {
			d := net.Distance(f*stride, ((f+j)%span)*stride)
			worst = max(worst, d)
			node[f] += d
		}
		total += worst
	}
	return total, slices.Max(node)
}

// checkShiftDist requires both distance facts of every cyclic field of net
// to equal the enumeration.
func checkShiftDist(t *testing.T, net topology.Network) {
	t.Helper()
	for lo := 0; lo < net.NumDims(); lo++ {
		for w := 1; lo+w <= net.NumDims(); w++ {
			span, _ := topology.SpanSize(net, lo, w)
			if span == 1<<w {
				continue // XOR field: neither fact is asked
			}
			total, busiest := shiftDistOracle(net, lo, w)
			if got := phaseDistTotal(net, lo, w, span); got != float64(total) {
				t.Errorf("%s [%d,%d): phaseDistTotal %v, enumeration %d", net.Name(), lo, lo+w, got, total)
			}
			if got := maxNodeShiftDist(net, lo, w, span); got != float64(busiest) {
				t.Errorf("%s [%d,%d): maxNodeShiftDist %v, enumeration %d", net.Name(), lo, lo+w, got, busiest)
			}
		}
	}
}

// The carry recursion and the closed form equal the O(span²) enumeration
// on every cyclic field of tori and meshes of mixed radices, and on a
// faulted overlay the bound is the healthy base's — at most what the
// detoured enumeration gives, so it stays admissible.
func TestShiftDistExact(t *testing.T) {
	for _, spec := range []string{
		"torus-7", "mesh-9", "torus-3x5", "mesh-3x5", "torus-2x3x2x3", "mesh-2x3x4", "torus-4x8x2",
		"mesh-3x3x3x3", "torus-9x7x5", "mesh-9x8x7", "torus-4x4x4x4", "mesh-5x2x6", "torus-2x9x2x9",
	} {
		checkShiftDist(t, topology.MustParseSpec(spec))
	}
	for _, spec := range []string{"torus-4x4!dl=0-1", "mesh-3x5!dl=0-1", "torus-4x8x2!sl=0-1:2.5"} {
		net := topology.MustParseSpec(spec)
		base := net.(*topology.Degraded).Base()
		for lo := 0; lo < net.NumDims(); lo++ {
			for w := 1; lo+w <= net.NumDims(); w++ {
				span, _ := topology.SpanSize(net, lo, w)
				got, healthy := maxNodeShiftDist(net, lo, w, span), maxNodeShiftDist(base, lo, w, span)
				if _, detoured := shiftDistOracle(net, lo, w); got != healthy || got > float64(detoured) {
					t.Errorf("%s [%d,%d): bound %v, healthy base %v, detoured enumeration %d", spec, lo, lo+w, got, healthy, detoured)
				}
			}
		}
	}
}

// FuzzShiftDist checks both distance facts against the enumeration on
// random tori and meshes: one to four dimensions of radix 2–9, span at
// most 4096.
func FuzzShiftDist(f *testing.F) {
	f.Add([]byte{1, 3}, false)
	f.Add([]byte{0, 1, 2, 3}, true)
	f.Add([]byte{7, 6, 5}, false)
	f.Add([]byte{2, 2, 2, 2}, true)
	f.Fuzz(func(t *testing.T, raw []byte, mesh bool) {
		var radices []string
		span := 1
		for _, b := range raw[:min(len(raw), 4)] {
			r := 2 + int(b)%8
			if span*r > 4096 {
				break
			}
			span *= r
			radices = append(radices, strconv.Itoa(r))
		}
		if len(radices) == 0 {
			return
		}
		kind := "torus-"
		if mesh {
			kind = "mesh-"
		}
		checkShiftDist(t, topology.MustParseSpec(kind+strings.Join(radices, "x")))
	})
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
			cube, _ := net.(*topology.Hypercube)
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

// BenchmarkFirstDerivation prices every field of a fabric on a handle that
// has derived nothing yet — its line (PhaseLineOn) and its admissible bound
// (PhaseLowerBoundOn) — as the first request for a fabric does.
func BenchmarkFirstDerivation(b *testing.B) {
	prm := IPSC860()
	for _, spec := range []string{"torus-16x16x16", "torus-64x64", "torus-2x3x2x3x2x3x2x3x2x3x2x3", "hypercube-16"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, err := topology.ParseSpec(spec)
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < net.NumDims(); lo++ {
					for w := 1; lo+w <= net.NumDims(); w++ {
						if _, _, err := prm.PhaseLineOn(net, lo, w); err != nil {
							b.Fatal(err)
						}
						if _, err := prm.PhaseLowerBoundOn(net, 40, lo, w); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
