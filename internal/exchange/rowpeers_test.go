package exchange

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// The certificate pass finds the batched path by a type assertion, so a
// drifted signature would silently put it back on the per-node path.
var _ simnet.RowPeers = (*CompiledPlan)(nil)

// The row-peer promise the certificate pass relies on without checking
// it: for every row i and node p, Op(p, i) is UniformRow(i)'s kind and
// byte count with AppendRowPeers' partner of p, and nothing else. The
// corpus must reach every partner rule the compiler emits — XOR mask
// rows, XOR rows on a stride that is not a power of two, cyclic rows on a
// bit-range field and on a general one — and barrier and shuffle rows,
// in whole plans and in CompilePhase fragments.
func TestRowPeersMatchOp(t *testing.T) {
	cases := []struct {
		spec string
		D    partition.Partition
	}{
		{"hypercube-5", partition.Partition{2, 3}},
		{"hypercube-4", partition.Partition{4}},
		{"hypercube-6", partition.Partition{1, 2, 3}},
		{"torus-3x2x2", partition.Partition{1, 2}},
		{"torus-6x2x2", partition.Partition{1, 2}},
		{"torus-4x4", partition.Partition{1, 1}},
		{"torus-4x4x4", partition.Partition{2, 1}},
		{"torus-8x2x2", partition.Partition{1, 2}},
		{"mesh-3x3", partition.Partition{2}},
		{"torus-3x5", partition.Partition{1, 1}},
		{"mesh-4x3x2", partition.Partition{1, 2}},
	}
	var seen struct{ mask, xorStride, bitRange, general, barrier, shuffle int }
	var peers []int32
	check := func(label string, c *CompiledPlan) {
		for i, r := range c.rows {
			switch {
			case r.kind == simnet.OpBarrier:
				seen.barrier++
			case r.kind == simnet.OpShuffle:
				seen.shuffle++
			case r.mask != 0:
				seen.mask++
			case r.xor:
				seen.xorStride++
			case r.fieldMask != 0:
				seen.bitRange++
			default:
				seen.general++
			}
			kind, bytes, ok := c.UniformRow(i)
			if !ok {
				t.Fatalf("%s row %d: not uniform", label, i)
			}
			// A prefix in dst must be kept, and the row appended after it.
			peers = c.AppendRowPeers(append(peers[:0], -7), i)
			if len(peers) != 1+c.n || peers[0] != -7 {
				t.Fatalf("%s row %d: %d entries after a kept prefix %d, want %d after -7",
					label, i, len(peers)-1, peers[0], c.n)
			}
			for p := 0; p < c.n; p++ {
				want := simnet.Op{Kind: kind, Bytes: bytes, Peer: int(peers[1+p])}
				if got := c.Op(p, i); got != want {
					t.Fatalf("%s row %d node %d: Op %+v, row peers give %+v", label, i, p, got, want)
				}
			}
		}
	}
	for _, tc := range cases {
		plan, err := NewPlanOn(topology.MustParseSpec(tc.spec), 24, tc.D)
		if err != nil {
			t.Fatalf("%s %v: %v", tc.spec, tc.D, err)
		}
		check(tc.spec+" "+tc.D.String(), plan.Compile())
		for i := 0; i < plan.NumPhases(); i++ {
			check(tc.spec+" "+tc.D.String()+" fragment", plan.CompilePhase(i))
		}
	}
	t.Logf("rows checked: %+v", seen)
	if seen.mask == 0 || seen.xorStride == 0 || seen.bitRange == 0 || seen.general == 0 ||
		seen.barrier == 0 || seen.shuffle == 0 {
		t.Fatalf("the corpus misses a row rule: %+v", seen)
	}
}
