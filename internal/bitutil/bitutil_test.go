package bitutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPopCount(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 1}, {3, 2}, {0xFF, 8}, {1 << 63, 1}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := PopCount(c.x); got != c.want {
			t.Errorf("PopCount(%#x) = %d, want %d", c.x, got, c.want)
		}
	}
}

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
	if !Bit(x, 1) || !Bit(x, 3) || Bit(x, 0) || Bit(x, 2) {
		t.Errorf("Bit pattern wrong for %b", x)
	}
	if got := SetBit(x, 0); got != 0b1011 {
		t.Errorf("SetBit = %b", got)
	}
	if got := ClearBit(x, 1); got != 0b1000 {
		t.Errorf("ClearBit = %b", got)
	}
	if got := FlipBit(x, 3); got != 0b0010 {
		t.Errorf("FlipBit = %b", got)
	}
}

func TestMaskField(t *testing.T) {
	if Mask(0) != 0 || Mask(-3) != 0 {
		t.Error("Mask of nonpositive width must be 0")
	}
	if Mask(5) != 31 {
		t.Errorf("Mask(5) = %d", Mask(5))
	}
	// x = 0b110_10_1: field at lo=1 w=2 is 0b10=2
	x := 0b1101101
	if got := Field(x, 1, 2); got != 0b10 {
		t.Errorf("Field = %b", got)
	}
	if got := WithField(x, 1, 2, 0b01); got != 0b1101011 {
		t.Errorf("WithField = %b", got)
	}
}

func TestWithFieldMasksValue(t *testing.T) {
	// Value wider than the field must be truncated to w bits.
	if got := WithField(0, 2, 2, 0xFF); got != 0b1100 {
		t.Errorf("WithField overflow = %b, want 1100", got)
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

func TestGrayCodeRoundTrip(t *testing.T) {
	f := func(x uint16) bool {
		return GrayToBinary(GrayCode(int(x))) == int(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrayCodeAdjacency(t *testing.T) {
	// Successive Gray codes differ in exactly one bit.
	for i := 0; i < 1<<10-1; i++ {
		if Distance(GrayCode(i), GrayCode(i+1)) != 1 {
			t.Fatalf("Gray codes of %d and %d are not adjacent", i, i+1)
		}
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

func TestECubePathPaperExamples(t *testing.T) {
	// Paper §2: path 0→31 has length 5, 2→23 length 3, 14→11 length 2.
	if p := ECubePath(0, 31); len(p)-1 != 5 {
		t.Errorf("path 0→31 length %d, want 5", len(p)-1)
	}
	if p := ECubePath(2, 23); len(p)-1 != 3 {
		t.Errorf("path 2→23 length %d, want 3", len(p)-1)
	}
	if p := ECubePath(14, 11); len(p)-1 != 2 {
		t.Errorf("path 14→11 length %d, want 2", len(p)-1)
	}
}

func TestECubePathCorrectsLowestBitFirst(t *testing.T) {
	// 0 → 31: e-cube corrects bit 0 first, so the second node is 1.
	p := ECubePath(0, 31)
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
	has := func(edges [][2]int, a, b int) bool {
		for _, e := range edges {
			if e[0] == a && e[1] == b {
				return true
			}
		}
		return false
	}
	e1 := ECubeEdges(0, 31)
	e2 := ECubeEdges(2, 23)
	if !has(e1, 3, 7) || !has(e2, 3, 7) {
		t.Errorf("paths 0→31 (%v) and 2→23 (%v) must both use edge 3-7", e1, e2)
	}
}

func TestECubeNodeContentionPaperExample(t *testing.T) {
	// Paper §2: paths 0→31 and 14→11 share node 15.
	in := func(p []int, v int) bool {
		for _, x := range p {
			if x == v {
				return true
			}
		}
		return false
	}
	if !in(ECubePath(0, 31), 15) || !in(ECubePath(14, 11), 15) {
		t.Error("paths 0→31 and 14→11 must share node 15")
	}
}

func TestECubePathProperties(t *testing.T) {
	f := func(a, b uint8) bool {
		src, dst := int(a)&127, int(b)&127
		p := ECubePath(src, dst)
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

func TestECubeEdgesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s, d := rng.Intn(256), rng.Intn(256)
		if got := len(ECubeEdges(s, d)); got != Distance(s, d) {
			t.Fatalf("edges(%d,%d) = %d, want %d", s, d, got, Distance(s, d))
		}
	}
}
