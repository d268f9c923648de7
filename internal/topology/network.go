package topology

import (
	"fmt"
	"sync"
)

// Network is the abstract interconnect every layer above routing is
// written against: a set of nodes labelled by mixed-radix coordinates
// with deterministic dimension-ordered routing. The three concrete
// implementations are Hypercube (all radices 2, bit-trick fast paths),
// Torus (wraparound mixed-radix grid) and Mesh (open boundaries); a
// Degraded overlay puts faults on any of them. What the layers above read
// is what the paper prices a phase from: routes and their link slots,
// routed distances (eq. 3's δ·distance term) and the diameter (§7.3's
// global sync).
//
// Node labels are integers in [0, Nodes()): label p decomposes into
// digits p = Σ c_i·Stride(i) with 0 ≤ c_i < Dims()[i], dimension 0 being
// the least significant. On a hypercube the digits are the label bits.
//
// Routing is dimension-ordered ("e-cube" on the hypercube): a route
// corrects the lowest differing dimension first, one link per hop; on a
// torus each dimension takes the shorter wrap direction (ties toward
// increasing coordinates). Under hop-level hold-and-wait acquisition,
// dimension-ordered routing is deadlock-free on hypercubes and meshes
// (links are acquired in a fixed global order), but torus wraparound
// reintroduces cyclic waits within a ring — the classical result that
// k-ary n-cubes need virtual channels. The path-level simulator (package
// simnet) reserves whole circuits atomically, so it is deadlock-free on
// every shape. A route between nodes differing only inside a dimension
// group never leaves that group's sub-block — the property the multiphase
// exchange planner relies on.
type Network interface {
	// Name returns the canonical registry spelling, e.g. "hypercube-7",
	// "torus-4x4x4", "mesh-8x8". ParseSpec(Name()) round-trips.
	Name() string
	// Nodes returns the node count.
	Nodes() int
	// Contains reports whether label p names a node.
	Contains(p int) bool
	// NumDims returns the number of coordinate dimensions.
	NumDims() int
	// Dims returns the per-dimension radices, dimension 0 first. The
	// returned slice is a fresh copy.
	Dims() []int
	// Stride returns the label stride of dimension i: Π_{j<i} radix j.
	Stride(i int) int
	// Degree returns the directed-link slot stride per node: LinkSlot
	// values fall in [0, Nodes()·Degree()). Some slots may be unused
	// (mesh boundaries, radix-2 rings).
	Degree() int
	// Neighbors returns the distinct nodes one link away from p, in
	// dimension order.
	Neighbors(p int) []int
	// Distance returns the routed hop count between two node labels.
	Distance(a, b int) int
	// Diameter returns the maximum Distance over all node pairs — the
	// weight of a global synchronization (150·Diameter µs on the
	// iPSC-860 model, §7.3; the hypercube's diameter is its dimension).
	Diameter() int
	// Route returns the dimension-ordered route from src to dst as the
	// node sequence visited, beginning with src and ending with dst.
	Route(src, dst int) ([]int, error)
	// AppendRoute is Route appending into buf (contents discarded,
	// storage reused) without validation — the allocation-free form the
	// simulator's hot loops use. Both endpoints must be valid nodes.
	AppendRoute(buf []int, src, dst int) []int
	// LinkSlot returns the directed-link slot id of the link from one
	// node to an adjacent one, unique per directed link, in
	// [0, Nodes()·Degree()). from and to must be neighbors.
	LinkSlot(from, to int) int
	// AppendRouteSlots appends to buf the LinkSlot of every hop of the
	// route from src to dst, in route order, and returns the extended
	// slice: the route as the simulator consumes it, produced in the one
	// walk that already knows each hop's dimension and direction. It
	// appends Distance(src, dst) slots (none when src == dst), validates
	// and allocates like AppendRoute, and unlike AppendRoute keeps what
	// buf already holds.
	AppendRouteSlots(buf []int, src, dst int) []int

	// derived returns the memo Derived keeps this handle's values in.
	derived() *memo
}

// memo is what one handle keeps of the values other layers derive from it
// (Derived): one per Hypercube, grid and Degraded overlay.
type memo struct{ m sync.Map } // key → *memoCell

type memoCell struct {
	once sync.Once
	v    any
}

// Derived returns build's value for key on net. build runs at most once per
// handle — concurrent first callers wait for that one run — and its value
// is kept with the handle: shared by everyone holding it (Resolve hands out
// one handle per fabric) and collected with it. build must be a pure
// function of the fabric; a key's type should be private to the calling
// package, so that two packages never collide.
func Derived[K comparable, V any](net Network, key K, build func() V) V {
	m := &net.derived().m
	c, ok := m.Load(key)
	if !ok {
		c, _ = m.LoadOrStore(key, new(memoCell))
	}
	cell := c.(*memoCell)
	cell.once.Do(func() { cell.v = build() })
	return cell.v.(V)
}

// NumDims-related helpers shared by the exchange planner.

// PhaseFields returns the dimension ranges (lo, width) used by each phase
// of a multiphase exchange whose grouping has the given group sizes, in
// phase order. Groups consume dimensions from the top down — phase 1 uses
// the highest g_1 dimensions — generalizing the §5.2 bit-field layout to
// mixed-radix coordinate blocks (on a hypercube, dimensions are bits: the
// j-th partial exchange uses bits Σ_{i≤j}d_i − d_j .. Σ_{i≤j}d_i − 1 counting
// down from the top of the label). A caller that only walks the fields
// checks the grouping with CheckGroups and steps lo down from NumDims by
// each group size, without the slice.
func PhaseFields(net Network, groups []int) ([][2]int, error) {
	if err := CheckGroups(net, groups); err != nil {
		return nil, err
	}
	out := make([][2]int, len(groups))
	hi := net.NumDims()
	for j, g := range groups {
		out[j] = [2]int{hi - g, g}
		hi -= g
	}
	return out, nil
}

// CheckGroups reports whether the group sizes are a grouping of net's
// dimensions: every group positive, the sizes summing to NumDims.
func CheckGroups(net Network, groups []int) error {
	sum := 0
	for _, g := range groups {
		if g <= 0 {
			return fmt.Errorf("topology: nonpositive phase group %d", g)
		}
		sum += g
	}
	if k := net.NumDims(); sum != k {
		return fmt.Errorf("topology: phase groups sum to %d, want %d dimensions", sum, k)
	}
	return nil
}

// SpanSize returns the number of nodes in one sub-block of the dimension
// field [lo, lo+w): the product of the radices of those dimensions (2^w
// on a hypercube), read off the strides as Stride(lo+w)/Stride(lo) with
// Nodes() above the top dimension, so it copies nothing. A field is
// all-radix-2 exactly when its span is 2^w, every radix being at least 2.
func SpanSize(net Network, lo, w int) (int, error) {
	k := net.NumDims()
	if w < 0 || lo < 0 || lo+w > k {
		return 0, fmt.Errorf("topology: dimension field [%d,%d) not in %s", lo, lo+w, net.Name())
	}
	if w == 0 {
		return 1, nil
	}
	top := net.Nodes()
	if lo+w < k {
		top = net.Stride(lo + w)
	}
	return top / net.Stride(lo), nil
}

// UniformRadices reports whether every dimension of net has the same
// radix, in which case a group's radix multiset depends only on its size
// and phase order cannot change a cost. Each radix is read off the
// strides (SpanSize of a one-wide field), so the check copies nothing:
// the serving check and the optimizer both run it per call.
func UniformRadices(net Network) bool {
	if _, ok := net.(*Hypercube); ok {
		return true
	}
	r0, _ := SpanSize(net, 0, 1)
	for i := 1; i < net.NumDims(); i++ {
		if r, _ := SpanSize(net, i, 1); r != r0 {
			return false
		}
	}
	return true
}

// SubBlocks partitions the node set into the sub-blocks of the dimension
// field [lo, lo+w): each block lists, in increasing field value, the
// nodes that agree on every digit outside the field. On a hypercube the
// blocks are the subcubes of the bit field (§5.2); phase j of the
// multiphase exchange operates simultaneously on all blocks of its field.
func SubBlocks(net Network, lo, w int) ([][]int, error) {
	span, err := SpanSize(net, lo, w)
	if err != nil {
		return nil, err
	}
	stride := net.Stride(lo)
	n := net.Nodes()
	outer := n / (stride * span)
	blocks := make([][]int, 0, n/span)
	for hi := 0; hi < outer; hi++ {
		for low := 0; low < stride; low++ {
			fixed := hi*stride*span + low
			block := make([]int, span)
			for v := 0; v < span; v++ {
				block[v] = fixed + v*stride
			}
			blocks = append(blocks, block)
		}
	}
	return blocks, nil
}

// Analyze computes the contention report for a set of simultaneous
// transfers routed on any network. Transfers with Src == Dst are ignored.
func Analyze(net Network, step []Transfer) (ContentionReport, error) {
	r := ContentionReport{
		EdgeLoad: make(map[Edge]int),
		NodeLoad: make(map[int]int),
	}
	for _, tr := range step {
		if tr.Src == tr.Dst {
			continue
		}
		route, err := net.Route(tr.Src, tr.Dst)
		if err != nil {
			return r, fmt.Errorf("transfer %d→%d: %w", tr.Src, tr.Dst, err)
		}
		for i := 0; i+1 < len(route); i++ {
			e := Edge{From: route[i], To: route[i+1]}
			r.EdgeLoad[e]++
			if c := r.EdgeLoad[e]; c > r.MaxEdgeLoad {
				r.MaxEdgeLoad = c
			}
		}
		for _, v := range route[1 : len(route)-1] {
			r.NodeLoad[v]++
			if c := r.NodeLoad[v]; c > r.MaxNodeLoad {
				r.MaxNodeLoad = c
			}
		}
	}
	return r, nil
}

// ShiftStep returns the transfer set in which node p sends to
// (p+i) mod n — the cyclic-shift step family the generalized multiphase
// schedule uses on non-binary radices. On the hypercube, cyclic shifts
// are, perhaps surprisingly, edge-contention-free under e-cube routing.
func ShiftStep(net Network, i int) []Transfer {
	n := net.Nodes()
	step := make([]Transfer, 0, n)
	for p := 0; p < n; p++ {
		step = append(step, Transfer{Src: p, Dst: (p + i) % n})
	}
	return step
}

// NaiveStep returns the transfer set of step i of the naive
// complete-exchange schedule: every node simultaneously sends to node i.
// All n−1 circuits converge on one destination, so on a hypercube of
// d ≥ 2 the step suffers heavy edge contention — the contrast that
// motivates the carefully scheduled algorithms of §4.2.
func NaiveStep(net Network, i int) []Transfer {
	n := net.Nodes()
	step := make([]Transfer, 0, n-1)
	for p := 0; p < n; p++ {
		if p != i {
			step = append(step, Transfer{Src: p, Dst: i})
		}
	}
	return step
}
