package optimize

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/topology"
)

// tableFixture is a hand-built three-segment table:
//
//	[10,40] → {1,1,1,1,1,1,1}   [41,160] → {3,4}   [161,400] → {7}
func tableFixture() Table {
	return Table{D: 7, Segments: []model.HullSegment{
		{Part: partition.Partition{1, 1, 1, 1, 1, 1, 1}, MinBlock: 10, MaxBlock: 40},
		{Part: partition.Partition{3, 4}, MinBlock: 41, MaxBlock: 160},
		{Part: partition.Partition{7}, MinBlock: 161, MaxBlock: 400},
	}}
}

func TestTableLookupBelowLowBound(t *testing.T) {
	tbl := tableFixture()
	got := tbl.Lookup(0)
	if !got.Equal(tbl.Segments[0].Part) {
		t.Errorf("Lookup(0) = %v, want first segment %v", got, tbl.Segments[0].Part)
	}
	seg, ok := tbl.LookupSegment(3)
	if ok {
		t.Error("LookupSegment(3) reported in-range below the table's low bound 10")
	}
	if !seg.Part.Equal(tbl.Segments[0].Part) {
		t.Errorf("LookupSegment(3) clamped to %v, want first segment", seg.Part)
	}
}

func TestTableLookupAboveHighBound(t *testing.T) {
	tbl := tableFixture()
	got := tbl.Lookup(1_000_000)
	last := tbl.Segments[len(tbl.Segments)-1]
	if !got.Equal(last.Part) {
		t.Errorf("Lookup(1e6) = %v, want last segment %v", got, last.Part)
	}
	seg, ok := tbl.LookupSegment(401)
	if ok {
		t.Error("LookupSegment(401) reported in-range above the table's high bound 400")
	}
	if !seg.Part.Equal(last.Part) {
		t.Errorf("LookupSegment(401) clamped to %v, want last segment", seg.Part)
	}
}

func TestTableLookupOnSegmentBoundaries(t *testing.T) {
	tbl := tableFixture()
	for _, tc := range []struct {
		m    int
		want partition.Partition
	}{
		{10, tbl.Segments[0].Part},  // table low bound
		{40, tbl.Segments[0].Part},  // last block of segment 0
		{41, tbl.Segments[1].Part},  // first block of segment 1
		{160, tbl.Segments[1].Part}, // last block of segment 1
		{161, tbl.Segments[2].Part}, // first block of segment 2
		{400, tbl.Segments[2].Part}, // table high bound
	} {
		got := tbl.Lookup(tc.m)
		if !got.Equal(tc.want) {
			t.Errorf("Lookup(%d) = %v, want %v", tc.m, got, tc.want)
		}
		seg, ok := tbl.LookupSegment(tc.m)
		if !ok {
			t.Errorf("LookupSegment(%d) reported out-of-range on a boundary", tc.m)
		}
		if tc.m < seg.MinBlock || tc.m > seg.MaxBlock {
			t.Errorf("LookupSegment(%d) returned segment [%d,%d] not containing m",
				tc.m, seg.MinBlock, seg.MaxBlock)
		}
	}
}

func TestTableLookupEmpty(t *testing.T) {
	var tbl Table
	if got := tbl.Lookup(40); got != nil {
		t.Errorf("empty table Lookup = %v, want nil", got)
	}
	if seg, ok := tbl.LookupSegment(40); ok || seg.Part != nil {
		t.Errorf("empty table LookupSegment = (%+v, %v), want zero segment and false", seg, ok)
	}
	if _, _, ok := tbl.Bounds(); ok {
		t.Error("empty table Bounds reported ok")
	}
}

func TestTableBounds(t *testing.T) {
	tbl := tableFixture()
	lo, hi, ok := tbl.Bounds()
	if !ok || lo != 10 || hi != 400 {
		t.Errorf("Bounds = (%d, %d, %v), want (10, 400, true)", lo, hi, ok)
	}
}

// TestBuiltTableLookupMatchesBest pins the property the plan cache leans
// on: inside a step-1 table's range, Lookup answers exactly what Best
// would, for every block size (not just swept grid points).
func TestBuiltTableLookupMatchesBest(t *testing.T) {
	o := New(model.IPSC860())
	tbl, err := o.BuildTableOnCtx(context.Background(), topology.MustNew(6), 0, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := tbl.Bounds(); !ok || lo != 0 || hi != 300 {
		t.Fatalf("Bounds = (%d,%d,%v), want (0,300,true)", lo, hi, ok)
	}
	for m := 0; m <= 300; m += 7 {
		c, err := o.BestOn(topology.MustNew(6), m)
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.Lookup(m); !got.Equal(c.Part) {
			t.Errorf("m=%d: table %v, Best %v", m, got, c.Part)
		}
	}
}

// An analytic build's working memory is reused from build to build: all it
// allocates is the Table it returns, one Segments slice and one partition
// per segment, whatever the fabric — a cube, a uniform torus, a mixed-radix
// one.
func TestAnalyticBuildAllocatesOnlyItsTable(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops reused items at random under the race detector")
	}
	ctx := context.Background()
	for _, spec := range []string{"hypercube-8", "hypercube-16", "torus-8x8", "torus-4x8x2"} {
		net := topology.MustParseSpec(spec)
		o := New(model.IPSC860())
		build := func() Table {
			tbl, err := o.BuildTableOnCtx(ctx, net, 0, 512, 1)
			if err != nil {
				t.Fatal(err)
			}
			return tbl
		}
		segs := len(build().Segments) // the first build fills the pool and the fabric's derived lines
		allocs := testing.AllocsPerRun(50, func() { build() })
		t.Logf("%s: %.0f allocs for %d segments", spec, allocs, segs)
		if allocs > float64(segs+2) {
			t.Errorf("%s: an analytic build made %.0f allocations for %d segments, want ≤ %d", spec, allocs, segs, segs+2)
		}
	}
}
