// Package topology models circuit-switched interconnection networks:
// the hypercube of §2 (node labels, links, e-cube routes, sub-block
// decompositions) generalized behind the Network interface to
// mixed-radix Torus and Mesh machines, plus the edge/node contention
// analysis that motivates the circuit-switched schedules. Registry
// specs ("hypercube-7", "torus-4x4x4", "mesh-8x8", with an optional
// "!dl=0-1" fault suffix) resolve through ParseSpec; every shape routes
// dimension-ordered (see Network for the per-shape deadlock properties
// under hold-and-wait acquisition).
//
// Every Network is immutable once constructed and safe for concurrent
// use, so a fabric needs one value per process, not one per request:
// ParseSpec is the pure constructor, Resolve the same thing through a
// bounded process-wide table that returns one shared handle per fabric
// whatever the spelling. What a handle derives lazily — a Degraded
// overlay's connectivity and diameter (one pass, exact up to
// maxExactMetricNodes nodes) and its detours, a grid's digit
// table — is a pure function of the canonical spec (simulated time never
// consults the host), derived on first use and kept with the handle.
//
// That is the one rule for every per-fabric fact, whichever layer derives
// it: the cost model's routed-distance sums and degraded per-step metrics,
// the simulator's phase certificates. Derived(net, key, build) computes a
// value once per handle and keeps it there, so it lives exactly as long as
// someone holds the fabric, and no layer keeps a table keyed by a fabric's
// name.
package topology

import (
	"fmt"
	"math/bits"

	"repro/internal/bitutil"
)

// Hypercube describes a d-dimensional binary hypercube with 2^d nodes —
// the all-radix-2 special case of Network, with bit-trick fast paths for
// routing and distance.
type Hypercube struct {
	dim  int
	n    int
	name string
	memo memo
}

// Hypercube is the radix-2 Network; Torus and Mesh are the mixed-radix
// ones.
var (
	_ Network = (*Hypercube)(nil)
	_ Network = (*Torus)(nil)
	_ Network = (*Mesh)(nil)
)

// cubes shares one immutable instance per dimension, so hot request
// paths (the plan cache's Get) resolve a hypercube without allocating.
var cubes = func() [31]*Hypercube {
	var out [31]*Hypercube
	for d := range out {
		out[d] = &Hypercube{dim: d, n: 1 << uint(d), name: fmt.Sprintf("hypercube-%d", d)}
	}
	return out
}()

// New returns a hypercube of dimension d (0 ≤ d ≤ 30). Hypercubes are
// immutable and shared: repeated calls return the same instance.
func New(d int) (*Hypercube, error) {
	if d < 0 || d > 30 {
		return nil, fmt.Errorf("topology: dimension %d out of range [0,30]", d)
	}
	return cubes[d], nil
}

// Name returns the canonical spec, e.g. "hypercube-7".
func (h *Hypercube) Name() string { return h.name }

// NumDims returns d: one routing dimension per label bit.
func (h *Hypercube) NumDims() int { return h.dim }

// Dims returns d radices of 2.
func (h *Hypercube) Dims() []int {
	out := make([]int, h.dim)
	for i := range out {
		out[i] = 2
	}
	return out
}

func (h *Hypercube) derived() *memo { return &h.memo }

// Stride returns 2^i, the label stride of bit i.
func (h *Hypercube) Stride(i int) int { return 1 << uint(i) }

// Degree returns d, the directed-link slots per node.
func (h *Hypercube) Degree() int { return h.dim }

// Diameter returns d, the maximum Hamming distance.
func (h *Hypercube) Diameter() int { return h.dim }

// AppendRoute appends the e-cube route src..dst (both endpoints
// included) into buf without validation or allocation beyond buf growth.
func (h *Hypercube) AppendRoute(buf []int, src, dst int) []int {
	buf = append(buf[:0], src)
	cur := src
	for diff := src ^ dst; diff != 0; diff &= diff - 1 {
		cur ^= diff & -diff
		buf = append(buf, cur)
	}
	return buf
}

// LinkSlot returns from·d + i for the link crossing dimension i.
func (h *Hypercube) LinkSlot(from, to int) int {
	return from*h.dim + bitutil.LowestSetBit(from^to)
}

// AppendRouteSlots appends the slot of every hop of the e-cube route:
// from the current node across each differing dimension, lowest first.
func (h *Hypercube) AppendRouteSlots(buf []int, src, dst int) []int {
	cur := src
	for diff := src ^ dst; diff != 0; diff &= diff - 1 {
		buf = append(buf, cur*h.dim+bits.TrailingZeros(uint(diff)))
		cur ^= diff & -diff
	}
	return buf
}

// MustNew is New, panicking on error; for tests and fixed-size tools.
func MustNew(d int) *Hypercube {
	h, err := New(d)
	if err != nil {
		panic(err)
	}
	return h
}

// Dim returns the dimension d.
func (h *Hypercube) Dim() int { return h.dim }

// Nodes returns the node count n = 2^d.
func (h *Hypercube) Nodes() int { return h.n }

// Contains reports whether label p names a node of the cube.
func (h *Hypercube) Contains(p int) bool { return p >= 0 && p < h.n }

// Neighbors returns all d neighbours of p in dimension order.
func (h *Hypercube) Neighbors(p int) []int {
	out := make([]int, h.dim)
	for i := 0; i < h.dim; i++ {
		out[i] = bitutil.FlipBit(p, i)
	}
	return out
}

// Distance returns the Hamming distance between two node labels.
func (h *Hypercube) Distance(a, b int) int { return bitutil.Distance(a, b) }

// Edge is a directed communication link between adjacent nodes. The
// iPSC-class machines have full-duplex links, so the two directions of a
// physical wire are distinct resources; two circuits contend only when
// they use the same direction of the same wire (paper §2, [2]).
type Edge struct {
	From, To int
}

// Dim returns the dimension the edge crosses.
func (e Edge) Dim() int { return bitutil.LowestSetBit(e.From ^ e.To) }

func (e Edge) String() string { return fmt.Sprintf("%d-%d", e.From, e.To) }

// Route returns the e-cube route from src to dst as the sequence of nodes
// visited, beginning with src and ending with dst.
func (h *Hypercube) Route(src, dst int) ([]int, error) {
	if !h.Contains(src) || !h.Contains(dst) {
		return nil, fmt.Errorf("topology: route %d→%d outside %d-cube", src, dst, h.dim)
	}
	return h.AppendRoute(nil, src, dst), nil
}
