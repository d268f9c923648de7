// Package bitutil provides the bit-manipulation primitives used throughout
// the hypercube simulator and the complete-exchange algorithms: population
// counts, bit-field extraction, Gray codes, and e-cube path expansion.
//
// Hypercube node labels are d-bit integers. Two nodes are adjacent iff
// their labels differ in exactly one bit; dimension i corresponds to bit i.
package bitutil

import "math/bits"

// PopCount returns the number of set bits in x (the Hamming weight).
// For hypercube labels a and b, PopCount(a^b) is the graph distance.
func PopCount(x uint64) int { return bits.OnesCount64(x) }

// Distance returns the hypercube (Hamming) distance between labels a and b.
func Distance(a, b int) int { return bits.OnesCount64(uint64(a) ^ uint64(b)) }

// Bit reports whether bit i of x is set.
func Bit(x, i int) bool { return x&(1<<uint(i)) != 0 }

// SetBit returns x with bit i set.
func SetBit(x, i int) int { return x | 1<<uint(i) }

// ClearBit returns x with bit i cleared.
func ClearBit(x, i int) int { return x &^ (1 << uint(i)) }

// FlipBit returns x with bit i flipped.
func FlipBit(x, i int) int { return x ^ 1<<uint(i) }

// Mask returns a mask with the w low bits set: (1<<w)-1.
func Mask(w int) int {
	if w <= 0 {
		return 0
	}
	return (1 << uint(w)) - 1
}

// Field extracts the bit field of width w starting at bit lo of x
// (bits lo .. lo+w-1), right-justified.
func Field(x, lo, w int) int { return (x >> uint(lo)) & Mask(w) }

// WithField returns x with bits lo..lo+w-1 replaced by the low w bits of v.
func WithField(x, lo, w, v int) int {
	m := Mask(w) << uint(lo)
	return (x &^ m) | ((v << uint(lo)) & m)
}

// LowestSetBit returns the index of the least significant set bit of x,
// or -1 if x is zero. Under e-cube routing, the next hop from s toward t
// flips the lowest set bit of s^t.
func LowestSetBit(x int) int {
	if x == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(x))
}

// HighestSetBit returns the index of the most significant set bit of x,
// or -1 if x is zero.
func HighestSetBit(x int) int {
	if x == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(x))
}

// GrayCode returns the binary-reflected Gray code of x.
func GrayCode(x int) int { return x ^ (x >> 1) }

// GrayToBinary inverts GrayCode.
func GrayToBinary(g int) int {
	b := 0
	for ; g != 0; g >>= 1 {
		b ^= g
	}
	return b
}

// Log2Exact returns log2(n) when n is a power of two, and -1 otherwise.
func Log2Exact(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(n))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// ECubePath returns the ordered sequence of node labels visited by a
// message routed from src to dst under e-cube routing: at each step the
// lowest differing bit is corrected. The returned slice starts with src
// and ends with dst; adjacent entries differ in exactly one bit.
func ECubePath(src, dst int) []int {
	path := make([]int, 0, Distance(src, dst)+1)
	path = append(path, src)
	cur := src
	for cur != dst {
		b := LowestSetBit(cur ^ dst)
		cur = FlipBit(cur, b)
		path = append(path, cur)
	}
	return path
}

// ECubeEdges returns the directed edges (as [2]int{from,to} pairs) used by
// the e-cube route from src to dst. Empty when src == dst.
func ECubeEdges(src, dst int) [][2]int {
	p := ECubePath(src, dst)
	edges := make([][2]int, 0, len(p)-1)
	for i := 0; i+1 < len(p); i++ {
		edges = append(edges, [2]int{p[i], p[i+1]})
	}
	return edges
}
