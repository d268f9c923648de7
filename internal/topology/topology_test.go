package topology

import (
	"slices"
	"testing"

	"repro/internal/bitutil"
)

func TestNewBounds(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("New(-1) must fail")
	}
	if _, err := New(31); err == nil {
		t.Error("New(31) must fail")
	}
	h, err := New(5)
	if err != nil || h.Dim() != 5 || h.Nodes() != 32 {
		t.Errorf("New(5) = %v, %v", h, err)
	}
	if h := MustNew(0); h.Nodes() != 1 {
		t.Error("0-cube must have one node")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(-1) must panic")
		}
	}()
	MustNew(-1)
}

func TestNeighborsAllAdjacent(t *testing.T) {
	h := MustNew(5)
	for p := 0; p < h.Nodes(); p++ {
		ns := h.Neighbors(p)
		if len(ns) != 5 {
			t.Fatalf("node %d has %d neighbours", p, len(ns))
		}
		seen := map[int]bool{}
		for i, q := range ns {
			if h.Distance(p, q) != 1 {
				t.Errorf("neighbour %d of %d not adjacent", q, p)
			}
			if bitutil.LowestSetBit(p^q) != i {
				t.Errorf("neighbour %d of %d crosses wrong dimension", q, p)
			}
			if seen[q] {
				t.Errorf("duplicate neighbour %d", q)
			}
			seen[q] = true
		}
	}
}

func TestRouteErrors(t *testing.T) {
	h := MustNew(3)
	if _, err := h.Route(0, 8); err == nil {
		t.Error("route to node outside cube must fail")
	}
	if _, err := h.Route(-1, 0); err == nil {
		t.Error("route from negative node must fail")
	}
}

func TestRouteSelf(t *testing.T) {
	h := MustNew(3)
	p, err := h.Route(5, 5)
	if err != nil || len(p) != 1 || p[0] != 5 {
		t.Errorf("self route = %v, %v", p, err)
	}
}

func TestEdgeDim(t *testing.T) {
	e := Edge{From: 0b0100, To: 0b0000}
	if e.Dim() != 2 {
		t.Errorf("Edge.Dim = %d", e.Dim())
	}
	if e.String() != "4-0" {
		t.Errorf("Edge.String = %q", e.String())
	}
}

// Paper §5.2 and Figure 3: for d=3 with partition {2,1}, the first partial
// exchange uses bits 2,1 and the second uses bit 0.
func TestPhaseFieldsFigure3(t *testing.T) {
	h := MustNew(3)
	fields, err := PhaseFields(h, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if fields[0] != [2]int{1, 2} {
		t.Errorf("phase 1 field = %v, want bits 1..2", fields[0])
	}
	if fields[1] != [2]int{0, 1} {
		t.Errorf("phase 2 field = %v, want bit 0", fields[1])
	}
}

func TestPhaseFieldsCoverAllBits(t *testing.T) {
	h := MustNew(7)
	for _, dims := range [][]int{{7}, {3, 4}, {2, 2, 3}, {1, 1, 1, 1, 1, 1, 1}, {4, 3}} {
		fields, err := PhaseFields(h, dims)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, f := range fields {
			covered |= (1<<f[1] - 1) << f[0]
		}
		if covered != 127 {
			t.Errorf("dims %v cover bits %b, want all 7", dims, covered)
		}
	}
}

func TestPhaseFieldsErrors(t *testing.T) {
	h := MustNew(5)
	if _, err := PhaseFields(h, []int{2, 2}); err == nil {
		t.Error("wrong sum must fail")
	}
	if _, err := PhaseFields(h, []int{6}); err == nil {
		t.Error("oversized phase must fail")
	}
	if _, err := PhaseFields(h, []int{5, 0}); err == nil {
		t.Error("zero phase must fail")
	}
	if _, err := PhaseFields(h, []int{-2, 7}); err == nil {
		t.Error("negative phase must fail")
	}
}

// Paper §2: the e-cube route from 0 to 31 corrects bit 0 first and has
// length 5; 2→23 has length 3 and 14→11 length 2. (The edge and node the
// three routes contend for are TestAnalyzeStepPaperExample's.)
func TestECubePathPaperExamples(t *testing.T) {
	h := MustNew(5)
	route, err := h.Route(0, 31)
	if err != nil || !slices.Equal(route, []int{0, 1, 3, 7, 15, 31}) {
		t.Errorf("route 0→31 = %v, %v; want [0 1 3 7 15 31]", route, err)
	}
	for _, c := range []struct{ src, dst, hops int }{{0, 31, 5}, {2, 23, 3}, {14, 11, 2}} {
		if route, err := h.Route(c.src, c.dst); err != nil || len(route)-1 != c.hops {
			t.Errorf("route %d→%d = %v, %v; want %d hops", c.src, c.dst, route, err, c.hops)
		}
	}
}

// Route on a cube must be the e-cube walk bitutil's primitives define:
// each hop flips the lowest set bit of cur^dst, so a route is a shortest
// path that corrects dimensions in ascending order.
func TestRouteMatchesBitutil(t *testing.T) {
	h := MustNew(7)
	for s := 0; s < h.Nodes(); s++ {
		for d := 0; d < h.Nodes(); d++ {
			route, err := h.Route(s, d)
			if err != nil {
				t.Fatal(err)
			}
			cur := s
			want := []int{cur}
			for cur != d {
				cur = bitutil.FlipBit(cur, bitutil.LowestSetBit(cur^d))
				want = append(want, cur)
			}
			if !slices.Equal(route, want) {
				t.Fatalf("route %d→%d = %v, want %v", s, d, route, want)
			}
		}
	}
}
