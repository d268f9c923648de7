package topology

import (
	"fmt"
	"strings"
	"sync"
)

// grid is the shared mixed-radix coordinate machine behind Torus and
// Mesh: k dimensions of radices r_0..r_{k-1}, node labels in mixed-radix
// digit order (dimension 0 least significant), dimension-ordered routing
// correcting dimension 0 first. wrap selects torus (wraparound links,
// shorter direction per dimension, ties toward +) or mesh (open
// boundaries, monotone walks).
type grid struct {
	radices  []int
	strides  []int
	n        int
	degree   int
	diameter int
	wrap     bool
	name     string

	// digits is the per-node coordinate table AppendRouteSlots reads in
	// place of a divide and a modulo per digit: node p's coordinates are
	// digits[p·k : (p+1)·k]. It is built on the first walk — only networks
	// that are simulated pay for it, not every spec a request resolves.
	digitsOnce sync.Once
	digits     []int32

	memo memo
}

// Torus is a mixed-radix k-dimensional torus with wraparound links and
// dimension-ordered shortest-wrap routing. A radix-2 dimension has a
// single full-duplex wire between its two nodes (both wrap directions
// coincide), which LinkSlot canonicalizes to the + direction.
type Torus struct{ grid }

// Mesh is the open-boundary variant of Torus: no wraparound links, so
// routes walk monotonically toward the destination in every dimension.
type Mesh struct{ grid }

// maxGridNodes bounds constructed networks, matching the hypercube's
// label-arithmetic comfort zone.
const maxGridNodes = 1 << 24

// init fills in the grid in place (it holds a sync.Once and a memo, so it
// is never copied).
func (g *grid) init(radices []int, wrap bool, kind string) error {
	if len(radices) == 0 {
		return fmt.Errorf("topology: %s needs at least one dimension", kind)
	}
	if len(radices) > 24 {
		return fmt.Errorf("topology: %s with %d dimensions exceeds the limit of 24", kind, len(radices))
	}
	g.radices = append([]int(nil), radices...)
	g.strides = make([]int, len(radices))
	g.n = 1
	g.degree = 2 * len(radices)
	g.wrap = wrap
	var b strings.Builder
	b.WriteString(kind)
	b.WriteByte('-')
	for i, r := range radices {
		if r < 2 {
			return fmt.Errorf("topology: %s radix %d in dimension %d (want ≥ 2)", kind, r, i)
		}
		g.strides[i] = g.n
		if g.n > maxGridNodes/r {
			return fmt.Errorf("topology: %s exceeds %d nodes", kind, maxGridNodes)
		}
		g.n *= r
		if wrap {
			g.diameter += r / 2
		} else {
			g.diameter += r - 1
		}
		if i > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%d", r)
	}
	g.name = b.String()
	return nil
}

// NewTorus returns a torus with the given per-dimension radices (each
// ≥ 2), dimension 0 being the least significant label digit.
func NewTorus(radices ...int) (*Torus, error) {
	t := &Torus{}
	if err := t.init(radices, true, "torus"); err != nil {
		return nil, err
	}
	return t, nil
}

// NewMesh returns an open-boundary mesh with the given per-dimension
// radices (each ≥ 2).
func NewMesh(radices ...int) (*Mesh, error) {
	m := &Mesh{}
	if err := m.init(radices, false, "mesh"); err != nil {
		return nil, err
	}
	return m, nil
}

func (g *grid) Name() string        { return g.name }
func (g *grid) Nodes() int          { return g.n }
func (g *grid) Contains(p int) bool { return p >= 0 && p < g.n }
func (g *grid) NumDims() int        { return len(g.radices) }
func (g *grid) Dims() []int         { return append([]int(nil), g.radices...) }
func (g *grid) Stride(i int) int    { return g.strides[i] }
func (g *grid) Degree() int         { return g.degree }
func (g *grid) Diameter() int       { return g.diameter }
func (g *grid) derived() *memo      { return &g.memo }

// digit returns coordinate i of label p.
func (g *grid) digit(p, i int) int { return (p / g.strides[i]) % g.radices[i] }

// dimDist returns the routed distance between two coordinates of
// dimension i.
func (g *grid) dimDist(a, b, i int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if g.wrap {
		if wd := g.radices[i] - d; wd < d {
			return wd
		}
	}
	return d
}

// Distance returns the routed hop count: the sum of per-dimension
// distances.
func (g *grid) Distance(a, b int) int {
	total := 0
	for i := range g.radices {
		total += g.dimDist(g.digit(a, i), g.digit(b, i), i)
	}
	return total
}

// step returns the neighbor of p one unit along dimension i in direction
// dir (+1 or -1), wrapping on a torus; ok is false for a mesh boundary.
func (g *grid) step(p, i, dir int) (int, bool) {
	c := g.digit(p, i)
	nc := c + dir
	r := g.radices[i]
	if nc < 0 || nc >= r {
		if !g.wrap {
			return 0, false
		}
		nc = (nc + r) % r
	}
	return p + (nc-c)*g.strides[i], true
}

// Neighbors returns the distinct adjacent nodes in dimension order
// (+ before − within a dimension).
func (g *grid) Neighbors(p int) []int {
	out := make([]int, 0, g.degree)
	for i, r := range g.radices {
		up, upOK := g.step(p, i, +1)
		if upOK {
			out = append(out, up)
		}
		if down, ok := g.step(p, i, -1); ok && !(g.wrap && r == 2) && !(upOK && down == up) {
			out = append(out, down)
		}
	}
	return out
}

// dimDir returns the routing direction (+1 or -1) for correcting
// dimension i from coordinate a to b: the shorter wrap direction on a
// torus (ties toward +), the monotone direction on a mesh.
func (g *grid) dimDir(a, b, i int) int {
	if !g.wrap {
		if b > a {
			return +1
		}
		return -1
	}
	r := g.radices[i]
	delta := ((b-a)%r + r) % r
	if 2*delta <= r {
		return +1
	}
	return -1
}

// AppendRoute appends the dimension-ordered route src..dst (both
// endpoints included) into buf.
func (g *grid) AppendRoute(buf []int, src, dst int) []int {
	buf = append(buf[:0], src)
	cur := src
	for i := range g.radices {
		a, b := g.digit(cur, i), g.digit(dst, i)
		if a == b {
			continue
		}
		dir := g.dimDir(a, b, i)
		for a != b {
			cur, _ = g.step(cur, i, dir)
			a = g.digit(cur, i)
			buf = append(buf, cur)
		}
	}
	return buf
}

// AppendRouteSlots walks the dimension-ordered route once, emitting each
// hop's slot from what the walk already knows — the node it leaves, the
// dimension it is correcting and the direction it chose — so nothing is
// re-derived from a pair of node labels the way LinkSlot must.
func (g *grid) AppendRouteSlots(buf []int, src, dst int) []int {
	g.digitsOnce.Do(g.buildDigits)
	k := len(g.radices)
	from, to := g.digits[src*k:src*k+k], g.digits[dst*k:dst*k+k]
	cur := src
	for i, r := range g.radices {
		a, b := int(from[i]), int(to[i])
		if a == b {
			continue
		}
		// Hops and direction as dimDist and dimDir choose them: the
		// shorter way round a ring (ties toward +), monotone on a mesh.
		hops, up := b-a, true
		if hops < 0 {
			hops, up = -hops, false
		}
		if g.wrap {
			if !up {
				hops = r - hops // b − a mod r
			}
			if up = 2*hops <= r; !up {
				hops = r - hops
			}
		}
		stride := g.strides[i]
		slot := 2 * i // LinkSlot's dir bit: 0 for +, 1 for −; a radix-2 ring only ever goes +
		if !up {
			slot++
		}
		for ; hops > 0; hops-- {
			buf = append(buf, cur*g.degree+slot)
			if up {
				a++
				cur += stride
				if a == r {
					a, cur = 0, cur-r*stride
				}
			} else {
				if a == 0 {
					a, cur = r, cur+r*stride
				}
				a--
				cur -= stride
			}
		}
	}
	return buf
}

func (g *grid) buildDigits() {
	k := len(g.radices)
	g.digits = make([]int32, g.n*k)
	for p := 0; p < g.n; p++ {
		for i := range g.radices {
			g.digits[p*k+i] = int32(g.digit(p, i))
		}
	}
}

// Route returns the dimension-ordered route from src to dst.
func (g *grid) Route(src, dst int) ([]int, error) {
	if !g.Contains(src) || !g.Contains(dst) {
		return nil, fmt.Errorf("topology: route %d→%d outside %s", src, dst, g.name)
	}
	return g.AppendRoute(nil, src, dst), nil
}

// LinkSlot returns the directed-link slot of the hop from → to:
// from·Degree() + 2·dim + dir, with dir 0 for + and 1 for −. On a
// radix-2 torus dimension both directions reach the same neighbor over
// the same wire, canonicalized to dir 0 so the two logical directions
// contend for the one physical link.
func (g *grid) LinkSlot(from, to int) int {
	for i, r := range g.radices {
		af, at := g.digit(from, i), g.digit(to, i)
		if af == at {
			continue
		}
		dir := 0
		if g.wrap {
			if r > 2 && ((at-af+r)%r) == r-1 {
				dir = 1
			}
		} else if at < af {
			dir = 1
		}
		return from*g.degree + 2*i + dir
	}
	panic(fmt.Sprintf("topology: LinkSlot(%d,%d): nodes are not adjacent in %s", from, to, g.name))
}
