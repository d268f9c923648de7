package bitutil

import "testing"

// FuzzECubePath checks the shortest-path and adjacency invariants of
// e-cube routes for arbitrary node pairs.
func FuzzECubePath(f *testing.F) {
	f.Add(0, 31)
	f.Add(14, 11)
	f.Fuzz(func(t *testing.T, a, b int) {
		src := a & 0xFFFF
		dst := b & 0xFFFF
		p := ecubePath(src, dst)
		if p[0] != src || p[len(p)-1] != dst {
			t.Fatal("endpoints wrong")
		}
		if len(p)-1 != Distance(src, dst) {
			t.Fatal("not a shortest path")
		}
		for i := 0; i+1 < len(p); i++ {
			if Distance(p[i], p[i+1]) != 1 {
				t.Fatal("non-adjacent hop")
			}
			if LowestSetBit(p[i]^dst) != LowestSetBit(p[i]^p[i+1]) {
				t.Fatal("not lowest-bit-first routing")
			}
		}
	})
}
