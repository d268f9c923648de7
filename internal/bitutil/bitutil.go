// Package bitutil provides the bit-manipulation primitives the hypercube
// topology and the collectives share: Hamming distance, bit flips, the
// lowest and highest set bit, and exact powers of two. The e-cube walk
// itself is topology.Hypercube's.
//
// Hypercube node labels are d-bit integers. Two nodes are adjacent iff
// their labels differ in exactly one bit; dimension i corresponds to bit i.
package bitutil

import "math/bits"

// Distance returns the hypercube (Hamming) distance between labels a and b.
func Distance(a, b int) int { return bits.OnesCount64(uint64(a) ^ uint64(b)) }

// FlipBit returns x with bit i flipped.
func FlipBit(x, i int) int { return x ^ 1<<uint(i) }

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

// Log2Exact returns log2(n) when n is a power of two, and -1 otherwise.
func Log2Exact(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(n))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
