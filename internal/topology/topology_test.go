package topology

import (
	"testing"
	"testing/quick"

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

func TestNeighbor(t *testing.T) {
	h := MustNew(4)
	n, err := h.Neighbor(0b0101, 1)
	if err != nil || n != 0b0111 {
		t.Errorf("Neighbor = %b, %v", n, err)
	}
	if _, err := h.Neighbor(99, 0); err == nil {
		t.Error("out-of-cube node must fail")
	}
	if _, err := h.Neighbor(0, 4); err == nil {
		t.Error("out-of-range dimension must fail")
	}
	if _, err := h.Neighbor(0, -1); err == nil {
		t.Error("negative dimension must fail")
	}
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

func TestTotalLinks(t *testing.T) {
	if got := MustNew(5).TotalLinks(); got != 160 {
		t.Errorf("32-node cube has %d directed links, want 160", got)
	}
}

func TestAveragePathLength(t *testing.T) {
	// eq. (2) distance term: d·2^(d-1)/(2^d−1). For d=5: 80/31.
	h := MustNew(5)
	want := 80.0 / 31.0
	if got := h.AveragePathLength(); got != want {
		t.Errorf("avg path length = %v, want %v", got, want)
	}
	if MustNew(0).AveragePathLength() != 0 {
		t.Error("0-cube average path length must be 0")
	}
	// Cross-check by brute force for d=4.
	h4 := MustNew(4)
	sum, cnt := 0, 0
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if a != b {
				sum += h4.Distance(a, b)
				cnt++
			}
		}
	}
	if got, want := h4.AveragePathLength(), float64(sum)/float64(cnt); got != want {
		t.Errorf("d=4 avg = %v, brute force %v", got, want)
	}
}

func TestSubcubesPartitionNodes(t *testing.T) {
	h := MustNew(5)
	for lo := 0; lo <= 3; lo++ {
		for w := 1; lo+w <= 5; w++ {
			subs, err := h.Subcubes(lo, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(subs) != 1<<uint(5-w) {
				t.Fatalf("lo=%d w=%d: %d subcubes", lo, w, len(subs))
			}
			seen := map[int]int{}
			for _, s := range subs {
				for _, p := range s.Nodes() {
					seen[p]++
					if !s.Contains(p) {
						t.Errorf("%v does not contain own member %d", s, p)
					}
					if s.Member(s.Rank(p)) != p {
						t.Errorf("rank/member roundtrip failed for %d in %v", p, s)
					}
				}
			}
			for p := 0; p < 32; p++ {
				if seen[p] != 1 {
					t.Errorf("lo=%d w=%d: node %d covered %d times", lo, w, p, seen[p])
				}
			}
		}
	}
}

func TestSubcubesErrors(t *testing.T) {
	h := MustNew(4)
	for _, c := range [][2]int{{-1, 2}, {0, -1}, {3, 2}, {0, 5}} {
		if _, err := h.Subcubes(c[0], c[1]); err == nil {
			t.Errorf("Subcubes(%d,%d) must fail", c[0], c[1])
		}
	}
}

func TestSubcubeString(t *testing.T) {
	s := Subcube{Lo: 1, Width: 2, Fixed: 0b1000}
	if s.String() == "" {
		t.Error("empty String")
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
			covered |= bitutil.Mask(f[1]) << uint(f[0])
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

func TestRouteMatchesBitutil(t *testing.T) {
	h := MustNew(7)
	f := func(a, b uint8) bool {
		s, d := int(a)&127, int(b)&127
		route, err := h.Route(s, d)
		if err != nil {
			return false
		}
		want := bitutil.ECubePath(s, d)
		if len(route) != len(want) {
			return false
		}
		for i := range want {
			if route[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
