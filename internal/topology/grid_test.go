package topology

import (
	"reflect"
	"testing"
)

func TestGridConstructionErrors(t *testing.T) {
	if _, err := NewTorus(); err == nil {
		t.Error("zero-dimension torus must fail")
	}
	if _, err := NewTorus(4, 1); err == nil {
		t.Error("radix 1 must fail")
	}
	if _, err := NewMesh(0, 4); err == nil {
		t.Error("radix 0 must fail")
	}
	if _, err := NewTorus(1<<13, 1<<13); err == nil {
		t.Error("oversized torus must fail")
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{"hypercube-0", "hypercube-7", "torus-4x4x4", "torus-3", "mesh-5x3", "mesh-2x2x2"} {
		net, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if net.Name() != spec {
			t.Errorf("ParseSpec(%q).Name() = %q", spec, net.Name())
		}
		again, err := ParseSpec(net.Name())
		if err != nil || again.Name() != spec {
			t.Errorf("%s does not round-trip: %v", spec, err)
		}
	}
	// Aliases and case-insensitivity.
	if net, err := ParseSpec(" Cube-3 "); err != nil || net.Name() != "hypercube-3" {
		t.Errorf("cube alias: %v", err)
	}
	for _, bad := range []string{"", "torus", "torus-", "torus-4y4", "ring-9", "hypercube-x", "mesh-4x-2", "hypercube-31"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) must fail", bad)
		}
	}
}

func TestGridBasics(t *testing.T) {
	tor := MustParseSpec("torus-4x4x4")
	if tor.Nodes() != 64 || tor.NumDims() != 3 || tor.Diameter() != 6 {
		t.Fatalf("torus-4x4x4 basics wrong: %d nodes, %d dims, diameter %d",
			tor.Nodes(), tor.NumDims(), tor.Diameter())
	}
	if tor.Stride(0) != 1 || tor.Stride(1) != 4 || tor.Stride(2) != 16 {
		t.Error("strides wrong")
	}

	mesh := MustParseSpec("mesh-3x3")
	if mesh.Diameter() != 4 {
		t.Errorf("mesh-3x3 diameter = %d", mesh.Diameter())
	}
	// Corner, edge and center degrees.
	if got := len(mesh.Neighbors(0)); got != 2 {
		t.Errorf("corner degree %d", got)
	}
	if got := len(mesh.Neighbors(1)); got != 3 {
		t.Errorf("edge degree %d", got)
	}
	if got := len(mesh.Neighbors(4)); got != 4 {
		t.Errorf("center degree %d", got)
	}
	// Torus degree is uniform 2k for radices > 2.
	for p := 0; p < tor.Nodes(); p++ {
		if got := len(tor.Neighbors(p)); got != 6 {
			t.Fatalf("torus node %d degree %d", p, got)
		}
	}
	// A radix-2 torus dimension contributes one distinct neighbor.
	t22 := MustParseSpec("torus-2x2")
	if got := len(t22.Neighbors(0)); got != 2 {
		t.Errorf("torus-2x2 degree %d, want 2", got)
	}
}

// Distance must be a metric consistent with shortest paths: symmetric,
// triangle-inequality-respecting, and equal to the length of a route whose
// every hop is a link — on the grids and on the e-cube-routed hypercube.
func TestGridDistanceIsRouteLength(t *testing.T) {
	for _, spec := range []string{"torus-5x3", "mesh-4x4", "torus-2x3x2", "hypercube-6"} {
		net := MustParseSpec(spec)
		n := net.Nodes()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if net.Distance(a, b) != net.Distance(b, a) {
					t.Fatalf("%s: asymmetric distance %d,%d", spec, a, b)
				}
				r, err := net.Route(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if len(r)-1 != net.Distance(a, b) {
					t.Fatalf("%s: route %d→%d length %d, distance %d",
						spec, a, b, len(r)-1, net.Distance(a, b))
				}
				for i := 0; i+1 < len(r); i++ {
					if net.Distance(r[i], r[i+1]) != 1 {
						t.Fatalf("%s: route %d→%d hop %d→%d is not a link", spec, a, b, r[i], r[i+1])
					}
				}
			}
		}
	}
}

// Every directed link slot must be unique per directed link and in range,
// and the usable-slot census must match the adjacency lists.
func TestLinkSlotsUniqueAndCounted(t *testing.T) {
	for _, spec := range []string{"hypercube-4", "torus-4x4", "torus-2x3", "mesh-3x3", "torus-2x2"} {
		net := MustParseSpec(spec)
		seen := make(map[int]bool)
		adjacent := 0
		for p := 0; p < net.Nodes(); p++ {
			adjacent += len(net.Neighbors(p))
			for _, q := range net.Neighbors(p) {
				slot := net.LinkSlot(p, q)
				if slot < 0 || slot >= net.Nodes()*net.Degree() {
					t.Fatalf("%s: slot %d out of range", spec, slot)
				}
				if seen[slot] {
					t.Fatalf("%s: duplicate slot %d for %d→%d", spec, slot, p, q)
				}
				seen[slot] = true
			}
		}
		if len(seen) != adjacent {
			t.Errorf("%s: %d distinct link slots, %d adjacency entries", spec, len(seen), adjacent)
		}
	}
}

// The adjacency lists must hold the shape's closed-form count of directed
// links: d·2^d on a cube; per dimension, n on a radix-2 ring (one wire per
// pair), 2n on a longer ring, and 2·(r−1) per row of a mesh.
func TestTotalLinks(t *testing.T) {
	for _, c := range []struct {
		spec  string
		links int
	}{
		{"hypercube-5", 5 * 32}, {"hypercube-4", 4 * 16}, {"torus-4x4", 2 * 2 * 16},
		{"torus-4x4x4", 64 * 6}, {"torus-2x3", 6 + 2*6}, {"mesh-3x3", 2 * 2 * 3 * 2},
		{"torus-2x2", 4 + 4},
	} {
		net := MustParseSpec(c.spec)
		links := 0
		for p := 0; p < net.Nodes(); p++ {
			links += len(net.Neighbors(p))
		}
		if links != c.links {
			t.Errorf("%s has %d directed links, want %d", c.spec, links, c.links)
		}
	}
}

// SubBlocks must partition the node set into spans of agreeing outer
// digits.
func TestSubBlocksPartition(t *testing.T) {
	net := MustParseSpec("torus-3x2x4")
	blocks, err := SubBlocks(net, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	span, _ := SpanSize(net, 1, 2)
	if span != 8 {
		t.Fatalf("span = %d", span)
	}
	seen := make(map[int]bool)
	for _, blk := range blocks {
		if len(blk) != span {
			t.Fatalf("block size %d, want %d", len(blk), span)
		}
		for _, p := range blk {
			if seen[p] {
				t.Fatalf("node %d in two blocks", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != net.Nodes() {
		t.Fatalf("blocks cover %d of %d nodes", len(seen), net.Nodes())
	}
	if _, err := SubBlocks(net, 2, 2); err == nil {
		t.Error("out-of-range field must fail")
	}
}

// On a hypercube the blocks are the §5.2 subcubes of the bit field:
// 2^(d−w) of them, member v of a block carrying v in bits lo..lo+w−1 and
// agreeing with the block's other members outside them.
func TestSubcubesPartitionNodes(t *testing.T) {
	h := MustNew(5)
	for lo := 0; lo <= 4; lo++ {
		for w := 1; lo+w <= 5; w++ {
			blocks, err := SubBlocks(h, lo, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(blocks) != 1<<(5-w) {
				t.Fatalf("lo=%d w=%d: %d subcubes", lo, w, len(blocks))
			}
			field := (1<<w - 1) << lo
			covered := make(map[int]int)
			for _, blk := range blocks {
				for v, p := range blk {
					covered[p]++
					if p&field != v<<lo || p&^field != blk[0]&^field {
						t.Fatalf("lo=%d w=%d: member %d of %v is %b", lo, w, v, blk, p)
					}
				}
			}
			for p := 0; p < h.Nodes(); p++ {
				if covered[p] != 1 {
					t.Errorf("lo=%d w=%d: node %d covered %d times", lo, w, p, covered[p])
				}
			}
		}
	}
}

func TestSubcubesErrors(t *testing.T) {
	h := MustNew(5)
	for _, c := range [][2]int{{-1, 2}, {0, -1}, {3, 3}, {0, 6}} {
		if _, err := SubBlocks(h, c[0], c[1]); err == nil {
			t.Errorf("SubBlocks(hypercube-5, %d, %d) must fail", c[0], c[1])
		}
	}
}

// PhaseFields on a hypercube is the §5.2 bit-range layout: fields consume
// the label's bits from the top down.
func TestPhaseFieldsMatchesHypercube(t *testing.T) {
	h := MustNew(7)
	for _, tc := range []struct {
		groups []int
		want   [][2]int
	}{
		{[]int{7}, [][2]int{{0, 7}}},
		{[]int{3, 4}, [][2]int{{4, 3}, {0, 4}}},
		{[]int{1, 2, 4}, [][2]int{{6, 1}, {4, 2}, {0, 4}}},
		{[]int{1, 1, 1, 1, 1, 1, 1}, [][2]int{{6, 1}, {5, 1}, {4, 1}, {3, 1}, {2, 1}, {1, 1}, {0, 1}}},
	} {
		got, err := PhaseFields(h, tc.groups)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%v: %v, want %v", tc.groups, got, tc.want)
		}
	}
	if _, err := PhaseFields(h, []int{3, 3}); err == nil {
		t.Error("bad grouping must fail")
	}
}

// The contention analyzer on a hypercube: XOR step 5 of the 4-cube routes
// 16 two-hop circuits over 32 distinct directed links. Cyclic shifts
// within a torus use links; the naive step contends harder.
func TestAnalyzeOnGrids(t *testing.T) {
	h := MustNew(4)
	got, err := Analyze(h, h.XORStep(5))
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxEdgeLoad != 1 || len(got.EdgeLoad) != 32 {
		t.Errorf("XOR step 5: max edge load %d over %d links, want 1 over 32", got.MaxEdgeLoad, len(got.EdgeLoad))
	}

	tor := MustParseSpec("torus-4x4")
	r, err := Analyze(tor, ShiftStep(tor, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxEdgeLoad < 1 {
		t.Error("shift step must use links")
	}
	if n, err := Analyze(tor, NaiveStep(tor, 0)); err != nil || n.MaxEdgeLoad <= r.MaxEdgeLoad {
		t.Errorf("naive step should contend harder than a shift: %d vs %d (%v)",
			n.MaxEdgeLoad, r.MaxEdgeLoad, err)
	}
}

// Routes between nodes that differ only inside a dimension field must
// stay inside the field's sub-block — the property the multiphase
// exchange planner relies on.
func TestRoutesStayInSubBlock(t *testing.T) {
	net := MustParseSpec("torus-3x4x2")
	blocks, err := SubBlocks(net, 1, 1) // the radix-4 middle dimension
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		members := make(map[int]bool, len(blk))
		for _, p := range blk {
			members[p] = true
		}
		for _, a := range blk {
			for _, b := range blk {
				route, err := net.Route(a, b)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range route {
					if !members[v] {
						t.Fatalf("route %d→%d leaves its sub-block at %d", a, b, v)
					}
				}
			}
		}
	}
}

// SpanSize reads a field's span off the strides; it must equal the
// product of the field's radices, be 2^w exactly on all-binary fields,
// and reject fields outside the network.
func TestSpanSizeMatchesRadices(t *testing.T) {
	for _, spec := range []string{"hypercube-0", "hypercube-5", "torus-4x4x4", "mesh-2x3x4", "torus-3x2x2x5", "torus-8x8!dl=0-1"} {
		net, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		dims, k := net.Dims(), net.NumDims()
		for lo := 0; lo <= k; lo++ {
			for w := 0; lo+w <= k; w++ {
				want, binary := 1, true
				for _, r := range dims[lo : lo+w] {
					want *= r
					binary = binary && r == 2
				}
				got, err := SpanSize(net, lo, w)
				if err != nil || got != want {
					t.Fatalf("%s: SpanSize(%d, %d) = %d, %v; want %d", spec, lo, w, got, err, want)
				}
				if (got == 1<<w) != binary {
					t.Fatalf("%s [%d,%d): span %d, all-binary %v", spec, lo, lo+w, got, binary)
				}
			}
		}
		for _, f := range [][2]int{{-1, 1}, {0, -1}, {0, k + 1}, {k, 1}} {
			if _, err := SpanSize(net, f[0], f[1]); err == nil {
				t.Fatalf("%s: SpanSize(%d, %d) accepted a field outside the network", spec, f[0], f[1])
			}
		}
	}
}
