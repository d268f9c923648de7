package topology

import (
	"errors"
	"testing"
)

// routeDim returns the dimension a single hop crosses on net, or -1 if
// the nodes are not adjacent in exactly one dimension.
func routeDim(net Network, from, to int) int {
	dim := -1
	k := net.NumDims()
	dims := net.Dims()
	for i := 0; i < k; i++ {
		stride := net.Stride(i)
		af := (from / stride) % dims[i]
		at := (to / stride) % dims[i]
		if af == at {
			continue
		}
		if dim != -1 {
			return -1
		}
		dim = i
	}
	return dim
}

// checkRouteSlots asserts that AppendRouteSlots agrees with LinkSlot over
// the hops of route, and that it extends buf instead of replacing it.
func checkRouteSlots(t *testing.T, net Network, route []int) {
	t.Helper()
	const sentinel = -7
	src, dst := route[0], route[len(route)-1]
	slots := net.AppendRouteSlots([]int{sentinel}, src, dst)
	if slots[0] != sentinel || len(slots) != len(route) {
		t.Fatalf("%s: AppendRouteSlots(%d,%d) = %v for route %v", net.Name(), src, dst, slots, route)
	}
	for i, slot := range slots[1:] {
		if want := net.LinkSlot(route[i], route[i+1]); slot != want {
			t.Fatalf("%s: route %d→%d hop %d→%d: AppendRouteSlots says slot %d, LinkSlot %d",
				net.Name(), src, dst, route[i], route[i+1], slot, want)
		}
	}
}

// TestRouteSlotsAllPairs checks the one-walk slot form against the
// node-route form on every ordered pair of small networks of each shape,
// healthy and with dead wires and a dead node to detour around.
func TestRouteSlotsAllPairs(t *testing.T) {
	for _, spec := range []string{
		"hypercube-5", "torus-4x4x4", "torus-3x5", "torus-2x6", "torus-2x2x3", "torus-7",
		"mesh-5x3", "mesh-2x2", "mesh-4x4x2",
		"hypercube-4!dl=0-1,5-7", "torus-4x4!dl=0-1,0-4", "mesh-4x4!dl=5-6", "torus-4x4!dn=5", "torus-4x4!sl=0-1:2",
	} {
		net := MustParseSpec(spec)
		for src := 0; src < net.Nodes(); src++ {
			for dst := 0; dst < net.Nodes(); dst++ {
				route, err := net.Route(src, dst)
				if err != nil {
					continue // a dead endpoint; the slot form shares AppendRoute's panic
				}
				checkRouteSlots(t, net, route)
			}
		}
	}
}

// FuzzRoute drives dimension-ordered routing on all three topology
// shapes with fuzzer-chosen endpoints and checks the routing contract:
// the route starts at src and ends at dst, every consecutive pair is one
// hop apart, the dimensions are corrected in monotone (non-decreasing)
// order, and the hop count equals Distance.
func FuzzRoute(f *testing.F) {
	f.Add(uint8(0), 0, 0)
	f.Add(uint8(1), 3, 61)
	f.Add(uint8(2), 7, 12)
	f.Add(uint8(5), 100, 2)
	f.Fuzz(func(t *testing.T, which uint8, src, dst int) {
		nets := []Network{
			MustNew(6),
			MustParseSpec("torus-4x4x4"),
			MustParseSpec("mesh-5x3"),
			MustParseSpec("torus-3x2x2"),
			MustParseSpec("mesh-2x2"),
			MustParseSpec("torus-7"),
		}
		net := nets[int(which)%len(nets)]
		n := net.Nodes()
		src, dst = ((src%n)+n)%n, ((dst%n)+n)%n

		route, err := net.Route(src, dst)
		if err != nil {
			t.Fatalf("%s: route %d→%d: %v", net.Name(), src, dst, err)
		}
		if len(route) == 0 || route[0] != src || route[len(route)-1] != dst {
			t.Fatalf("%s: route %d→%d endpoints wrong: %v", net.Name(), src, dst, route)
		}
		if hops, dist := len(route)-1, net.Distance(src, dst); hops != dist {
			t.Fatalf("%s: route %d→%d has %d hops, Distance says %d", net.Name(), src, dst, hops, dist)
		}
		prevDim := -1
		for i := 0; i+1 < len(route); i++ {
			from, to := route[i], route[i+1]
			if net.Distance(from, to) != 1 {
				t.Fatalf("%s: hop %d→%d is not a link", net.Name(), from, to)
			}
			found := false
			for _, nb := range net.Neighbors(from) {
				if nb == to {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: hop %d→%d not among Neighbors(%d) = %v",
					net.Name(), from, to, from, net.Neighbors(from))
			}
			dim := routeDim(net, from, to)
			if dim < 0 {
				t.Fatalf("%s: hop %d→%d crosses multiple dimensions", net.Name(), from, to)
			}
			if dim < prevDim {
				t.Fatalf("%s: route %d→%d corrects dim %d after dim %d (not dimension-ordered)",
					net.Name(), src, dst, dim, prevDim)
			}
			prevDim = dim
			// The allocation-free form and LinkSlot must agree with the
			// validated route.
			if slot := net.LinkSlot(from, to); slot < 0 || slot >= net.Nodes()*net.Degree() {
				t.Fatalf("%s: LinkSlot(%d,%d) = %d out of range", net.Name(), from, to, slot)
			}
		}
		buf := net.AppendRoute(make([]int, 0, 8), src, dst)
		if len(buf) != len(route) {
			t.Fatalf("%s: AppendRoute length %d, Route length %d", net.Name(), len(buf), len(route))
		}
		for i := range buf {
			if buf[i] != route[i] {
				t.Fatalf("%s: AppendRoute disagrees with Route at %d: %v vs %v",
					net.Name(), i, buf, route)
			}
		}
		checkRouteSlots(t, net, route)
	})
}

// FuzzDegradedRoute drives fault-aware routing with fuzzer-chosen dead
// wire sets and checks the degraded contract: every returned route
// avoids all dead wires and matches Distance, or the pair reports
// ErrUnroutable — never a route through a fault, never a panic from the
// error-returning form. A mask that kills nothing must be refused.
func FuzzDegradedRoute(f *testing.F) {
	f.Add(uint8(0), 0, 0, uint64(0))
	f.Add(uint8(1), 3, 61, uint64(0x9e3779b97f4a7c15))
	f.Add(uint8(2), 7, 12, uint64(1))
	f.Add(uint8(4), 5, 2, uint64(0xffffffffffffffff))
	f.Fuzz(func(t *testing.T, which uint8, src, dst int, kills uint64) {
		nets := []Network{
			MustNew(4),
			MustParseSpec("torus-4x4"),
			MustParseSpec("mesh-5x3"),
			MustParseSpec("torus-3x2x2"),
			MustParseSpec("mesh-2x2"),
			MustParseSpec("torus-7"),
		}
		base := nets[int(which)%len(nets)]
		n := base.Nodes()
		src, dst = ((src%n)+n)%n, ((dst%n)+n)%n

		// Derive a dead-wire set from the kill mask: enumerate each
		// node's wires in deterministic order and kill wire i when bit
		// i%64 of a rotating mask is set, capped so some fabric is left.
		var fs FaultSet
		bit, killed := 0, 0
		for p := 0; p < n && killed < 6; p++ {
			for _, q := range base.Neighbors(p) {
				if q < p {
					continue // one decision per undirected wire
				}
				if kills&(1<<(bit%64)) != 0 {
					fs.DeadLinks = append(fs.DeadLinks, Link{A: p, B: q})
					killed++
					if killed >= 6 {
						break
					}
				}
				bit = (bit + 7) % 64
			}
		}
		d, err := Overlay(base, fs)
		if fs.Empty() {
			if err == nil {
				t.Fatalf("%s: Overlay with no faults = %s, want an error", base.Name(), d.Name())
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: Overlay(%v): %v", base.Name(), fs, err)
		}

		route, err := d.Route(src, dst)
		if err != nil {
			if !errors.Is(err, ErrUnroutable) {
				t.Fatalf("%s: Route(%d,%d) unexpected error kind: %v", d.Name(), src, dst, err)
			}
			// Unroutable must be real: BFS over live wires from src must
			// not reach dst.
			seen := make([]bool, n)
			seen[src] = true
			queue := []int{src}
			for len(queue) > 0 {
				p := queue[0]
				queue = queue[1:]
				for _, q := range d.Neighbors(p) {
					if !seen[q] {
						seen[q] = true
						queue = append(queue, q)
					}
				}
			}
			if seen[dst] {
				t.Fatalf("%s: Route(%d,%d) says unroutable but a live path exists", d.Name(), src, dst)
			}
			return
		}
		if len(route) == 0 || route[0] != src || route[len(route)-1] != dst {
			t.Fatalf("%s: route %d→%d endpoints wrong: %v", d.Name(), src, dst, route)
		}
		if hops := len(route) - 1; hops != d.Distance(src, dst) {
			t.Fatalf("%s: route %d→%d has %d hops, Distance says %d",
				d.Name(), src, dst, hops, d.Distance(src, dst))
		}
		for i := 0; i+1 < len(route); i++ {
			from, to := route[i], route[i+1]
			if base.Distance(from, to) != 1 {
				t.Fatalf("%s: hop %d→%d is not a link", d.Name(), from, to)
			}
			if !d.LinkAlive(from, to) {
				t.Fatalf("%s: route %d→%d crosses dead wire %d→%d: %v",
					d.Name(), src, dst, from, to, route)
			}
		}
		checkRouteSlots(t, d, route)
	})
}
