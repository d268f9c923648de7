package bitutil

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDistance(t *testing.T) {
	if got := Distance(0, 31); got != 5 {
		t.Errorf("Distance(0,31) = %d, want 5", got)
	}
	if got := Distance(2, 23); got != 3 {
		t.Errorf("Distance(2,23) = %d, want 3", got)
	}
	if got := Distance(14, 11); got != 2 {
		t.Errorf("Distance(14,11) = %d, want 2", got)
	}
	if got := Distance(9, 9); got != 0 {
		t.Errorf("Distance(9,9) = %d, want 0", got)
	}
}

func TestBitOps(t *testing.T) {
	x := 0b1010
	if got := FlipBit(x, 3); got != 0b0010 {
		t.Errorf("FlipBit = %b", got)
	}
	if got := FlipBit(x, 0); got != 0b1011 {
		t.Errorf("FlipBit = %b", got)
	}
}

func TestLowestHighestSetBit(t *testing.T) {
	if LowestSetBit(0) != -1 || HighestSetBit(0) != -1 {
		t.Error("zero must give -1")
	}
	if LowestSetBit(0b1010) != 1 {
		t.Errorf("LowestSetBit = %d", LowestSetBit(0b1010))
	}
	if HighestSetBit(0b1010) != 3 {
		t.Errorf("HighestSetBit = %d", HighestSetBit(0b1010))
	}
}

func TestLog2Exact(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {2, 1}, {4, 2}, {1024, 10}, {3, -1}, {0, -1}, {-8, -1}, {6, -1},
	}
	for _, c := range cases {
		if got := Log2Exact(c.n); got != c.want {
			t.Errorf("Log2Exact(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1 << 20} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 12, 1<<20 + 1} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

// ecubePath is the e-cube walk LowestSetBit's rule defines: each hop from
// src toward dst flips the lowest set bit of cur^dst. (Production walks it
// in topology.Hypercube.AppendRoute.)
func ecubePath(src, dst int) []int {
	path := []int{src}
	for cur := src; cur != dst; {
		cur = FlipBit(cur, LowestSetBit(cur^dst))
		path = append(path, cur)
	}
	return path
}

func TestECubePathPaperExamples(t *testing.T) {
	// Paper §2: path 0→31 has length 5, 2→23 length 3, 14→11 length 2.
	for _, c := range []struct{ src, dst, hops int }{{0, 31, 5}, {2, 23, 3}, {14, 11, 2}} {
		if p := ecubePath(c.src, c.dst); len(p)-1 != c.hops || Distance(c.src, c.dst) != c.hops {
			t.Errorf("path %d→%d = %v, want %d hops", c.src, c.dst, p, c.hops)
		}
	}
}

func TestECubePathCorrectsLowestBitFirst(t *testing.T) {
	// 0 → 31: e-cube corrects bit 0 first, so the second node is 1.
	p := ecubePath(0, 31)
	want := []int{0, 1, 3, 7, 15, 31}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestECubeSharedEdgePaperExample(t *testing.T) {
	// Paper §2: paths 0→31 and 2→23 share edge 3–7.
	hasEdge := func(p []int, a, b int) bool {
		for i := 0; i+1 < len(p); i++ {
			if p[i] == a && p[i+1] == b {
				return true
			}
		}
		return false
	}
	p1, p2 := ecubePath(0, 31), ecubePath(2, 23)
	if !hasEdge(p1, 3, 7) || !hasEdge(p2, 3, 7) {
		t.Errorf("paths 0→31 (%v) and 2→23 (%v) must both use edge 3-7", p1, p2)
	}
}

func TestECubeNodeContentionPaperExample(t *testing.T) {
	// Paper §2: paths 0→31 and 14→11 share node 15.
	if !slices.Contains(ecubePath(0, 31), 15) || !slices.Contains(ecubePath(14, 11), 15) {
		t.Error("paths 0→31 and 14→11 must share node 15")
	}
}

func TestECubePathProperties(t *testing.T) {
	f := func(a, b uint8) bool {
		src, dst := int(a)&127, int(b)&127
		p := ecubePath(src, dst)
		if p[0] != src || p[len(p)-1] != dst {
			return false
		}
		if len(p)-1 != Distance(src, dst) {
			return false // e-cube paths are shortest paths
		}
		for i := 0; i+1 < len(p); i++ {
			if Distance(p[i], p[i+1]) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
