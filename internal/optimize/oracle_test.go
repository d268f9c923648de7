package optimize

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
)

// sweepTable is the table build the envelope replaced, kept as its oracle:
// BestOn at every lattice point of [mLo, mHi], equal neighbours folded into
// segments, on an optimizer of its own.
func sweepTable(t testing.TB, prm model.Params, net topology.Network, mLo, mHi, step int) Table {
	t.Helper()
	o := New(prm)
	tbl := Table{Topo: net.Name(), D: net.NumDims()}
	for m := mLo; m <= mHi; m += step {
		c, err := o.BestOn(net, m)
		if err != nil {
			t.Fatalf("%s m=%d: %v", net.Name(), m, err)
		}
		if n := len(tbl.Segments); n > 0 && tbl.Segments[n-1].Part.Equal(c.Part) {
			tbl.Segments[n-1].MaxBlock = m
			continue
		}
		tbl.Segments = append(tbl.Segments, model.HullSegment{Part: c.Part, MinBlock: m, MaxBlock: m})
	}
	return tbl
}

// checkEnvelope builds one table both ways and requires them identical.
func checkEnvelope(t testing.TB, prm model.Params, net topology.Network, mLo, mHi, step int) {
	t.Helper()
	got, err := New(prm).BuildTableOnCtx(context.Background(), net, mLo, mHi, step)
	if err != nil {
		t.Fatalf("%s [%d,%d]/%d: %v", net.Name(), mLo, mHi, step, err)
	}
	if want := sweepTable(t, prm, net, mLo, mHi, step); !reflect.DeepEqual(got, want) {
		t.Errorf("%s [%d,%d]/%d under %+v:\nenvelope %v\nsweep    %v", net.Name(), mLo, mHi, step, prm, got.Segments, want.Segments)
	}
}

// The tentpole invariant of the analytic table build: the envelope's table
// is, segment for segment, the one the point-by-point sweep builds — on
// every registry machine, on cubes of every size the serving tier takes,
// uniform and mixed-radix grids and the three kinds of overlay, on the
// serving range at three steps and on a range that starts off the origin.
func TestEnvelopeEqualsSweep(t *testing.T) {
	specs := []string{
		"torus-4x4x4", "torus-8x8", "mesh-8x8", "torus-16x16", "torus-4x8x2", "mesh-3x5x4",
		"hypercube-10!dl=0-1", "hypercube-8!sl=0-1:2.5", "torus-8x8!dl=0-1",
	}
	for d := 0; d <= 16; d++ {
		specs = append(specs, fmt.Sprintf("hypercube-%d", d))
	}
	for _, spec := range specs {
		net := topology.MustParseSpec(spec)
		for _, prm := range model.Machines() {
			for _, step := range []int{1, 7, 16} {
				checkEnvelope(t, prm, net, 0, 512, step)
				checkEnvelope(t, prm, net, 37, 300, step)
			}
		}
	}
}

// Lines the registry machines never draw: every candidate tied at every
// block size, lines through the origin (tied at m = 0 only), a machine the
// rounding bound does not cover (a negative constant: no lead is trusted),
// and a lattice of one point.
func TestEnvelopeDegenerateLines(t *testing.T) {
	cube, mixed := topology.MustNew(7), topology.MustParseSpec("mesh-3x5x4")
	for _, prm := range []model.Params{
		{},
		{Lambda: 100, Delta: 3},
		{Tau: 0.4, Rho: 0.5},
		{Lambda: 95, Tau: 0.394, Delta: -10.3, Rho: 0.54},
	} {
		for _, net := range []topology.Network{cube, mixed} {
			checkEnvelope(t, prm, net, 0, 512, 1)
			checkEnvelope(t, prm, net, 5, 100, 9)
			checkEnvelope(t, prm, net, 40, 40, 1)
		}
	}
}

// FuzzEnvelopeEqualsSweep explores machines instead of listing them:
// constants drawn on coarse grids (zeros included) so that exact ties and
// near-parallel lines occur, all three exchange modes, both sync settings,
// small topologies of every family, any lattice.
func FuzzEnvelopeEqualsSweep(f *testing.F) {
	specs := []string{
		"hypercube-1", "hypercube-5", "hypercube-9", "torus-4x4x4", "mesh-3x3", "torus-8x2x2",
		"torus-4x8x2", "mesh-3x5x4", "torus-2x3x2x3", "hypercube-6!dl=0-1", "hypercube-5!sl=0-1:2.5", "torus-4x4!dl=0-1",
	}
	f.Add(uint16(950), uint16(394), uint16(103), uint16(540), uint16(825), uint16(150), uint8(1), true, uint8(1), uint16(0), uint16(512), uint8(1))
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint8(0), false, uint8(0), uint16(0), uint16(64), uint8(1))
	f.Add(uint16(2000), uint16(1000), uint16(200), uint16(1000), uint16(0), uint16(0), uint8(0), false, uint8(7), uint16(3), uint16(400), uint8(5))
	f.Add(uint16(0), uint16(8), uint16(0), uint16(4), uint16(0), uint16(0), uint8(2), true, uint8(8), uint16(10), uint16(300), uint8(16))
	f.Fuzz(func(t *testing.T, lambda, tau, delta, rho, lambda0, gsync uint16, mode uint8, syncPerPhase bool, spec uint8, lo, span uint16, step uint8) {
		prm := model.Params{
			Lambda:             float64(lambda) / 10,
			Tau:                float64(tau) / 1000,
			Delta:              float64(delta) / 10,
			Rho:                float64(rho) / 1000,
			LambdaZero:         float64(lambda0) / 10,
			GlobalSyncPerDim:   float64(gsync),
			Exchange:           model.ExchangeMode(mode % 3),
			GlobalSyncPerPhase: syncPerPhase,
		}
		net := topology.MustParseSpec(specs[int(spec)%len(specs)])
		checkEnvelope(t, prm, net, int(lo), int(lo)+int(span)%1024, int(step)%32+1)
	})
}
