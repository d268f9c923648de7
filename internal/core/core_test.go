package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/plancache"
	"repro/internal/topology"
)

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(-1, model.IPSC860()); err == nil {
		t.Error("negative dim must fail")
	}
	s, err := NewSystem(5, model.IPSC860())
	if err != nil || s.Dim() != 5 || s.Nodes() != 32 {
		t.Fatalf("NewSystem: %v %v", s, err)
	}
	if s.Params().Lambda != 95.0 {
		t.Error("Params accessor")
	}
}

func TestMustNewSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewSystem(-1) must panic")
		}
	}()
	MustNewSystem(-1, model.IPSC860())
}

func TestCompleteExchangeAutoTunes(t *testing.T) {
	s := MustNewSystem(6, model.IPSC860())
	res, err := s.CompleteExchange(40)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 5: at 40 bytes on d=6 the best partition is {3,3}.
	if !res.Partition.Canonical().Equal(partition.Partition{3, 3}) {
		t.Errorf("partition = %v, want {3,3}", res.Partition)
	}
	if res.SimulatedMicros <= 0 || res.PredictedMicros <= 0 {
		t.Error("times must be positive")
	}
	if res.ContentionStall != 0 {
		t.Errorf("paper schedule must be contention-free, stall=%v", res.ContentionStall)
	}
	if !res.DataVerified {
		t.Error("the simulated fabric carries real data, so every exchange is verified")
	}
}

func TestPredictionMatchesSimulation(t *testing.T) {
	s := MustNewSystem(5, model.IPSC860())
	for _, m := range []int{1, 40, 200} {
		res, err := s.CompleteExchange(m)
		if err != nil {
			t.Fatal(err)
		}
		diff := res.SimulatedMicros - res.PredictedMicros
		if diff < -1e-6 || diff > 1e-6 {
			t.Errorf("m=%d: sim %v != pred %v", m, res.SimulatedMicros, res.PredictedMicros)
		}
	}
}

func TestExchangeWithExplicitPartition(t *testing.T) {
	s := MustNewSystem(5, model.IPSC860())
	res, err := s.ExchangeWith(24, partition.Partition{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partition.Equal(partition.Partition{2, 3}) {
		t.Errorf("partition = %v", res.Partition)
	}
	if _, err := s.ExchangeWith(24, partition.Partition{4}); err == nil {
		t.Error("invalid partition must fail")
	}
}

func TestVerifiedExchange(t *testing.T) {
	s := MustNewSystem(4, model.IPSC860())
	res, err := s.VerifiedExchange(8, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DataVerified {
		t.Error("DataVerified must be set")
	}
}

func TestBestPartitionDelegates(t *testing.T) {
	s := MustNewSystem(7, model.IPSC860())
	p, err := s.BestPartition(40)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 6: {3,4} wins at 40 bytes on d=7.
	if !p.Canonical().Equal(partition.Partition{4, 3}) {
		t.Errorf("best = %v, want {3,4}", p)
	}
}

func TestPredictValidation(t *testing.T) {
	s := MustNewSystem(5, model.IPSC860())
	if _, err := s.Predict(10, partition.Partition{9}); err == nil {
		t.Error("bad partition must fail")
	}
	v, err := s.Predict(10, partition.Partition{2, 3})
	if err != nil || v <= 0 {
		t.Errorf("Predict: %v %v", v, err)
	}
}

func TestZeroDimSystem(t *testing.T) {
	s := MustNewSystem(0, model.IPSC860())
	res, err := s.CompleteExchange(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedMicros != 0 || res.PredictedMicros != 0 {
		t.Errorf("0-cube exchange must be free: %+v", res)
	}
	if v, err := s.Predict(5, nil); err != nil || v != 0 {
		t.Errorf("0-cube predict: %v %v", v, err)
	}
}

func TestPlanAccessor(t *testing.T) {
	s := MustNewSystem(5, model.IPSC860())
	p, err := s.Plan(16, partition.Partition{2, 3})
	if err != nil || p.Dim() != 5 {
		t.Fatalf("Plan: %v %v", p, err)
	}
}

func TestErrorPaths(t *testing.T) {
	s := MustNewSystem(3, model.IPSC860())
	// Negative block sizes propagate from the optimizer.
	if _, err := s.CompleteExchange(-1); err == nil {
		t.Error("negative block must fail")
	}
	if _, err := s.VerifiedExchange(-1, time.Second); err == nil {
		t.Error("negative block must fail in VerifiedExchange")
	}
	if _, err := s.BestPartition(-1); err == nil {
		t.Error("negative block must fail in BestPartition")
	}
}

// A torus System must run verified auto-tuned exchanges end-to-end: the
// optimizer picks the grouping, the simulated fabric moves and checks
// real payloads, and the discrete-event replay prices the schedule.
func TestSystemOnTorus(t *testing.T) {
	topo, err := topology.ParseSpec("torus-4x4")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemOn(topo, model.IPSC860())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Nodes() != 16 || sys.Dim() != 2 || sys.Topology().Name() != "torus-4x4" {
		t.Fatalf("system basics: %d nodes, %d dims", sys.Nodes(), sys.Dim())
	}
	res, err := sys.CompleteExchange(40)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DataVerified || res.SimulatedMicros <= 0 {
		t.Fatalf("torus exchange: %+v", res)
	}
	best, err := optimize.New(model.IPSC860()).BestOn(topo, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partition.Equal(best.Part) {
		t.Errorf("system used %v, optimizer wants %v", res.Partition, best.Part)
	}
	// Explicit groupings run too, and order matters on request.
	for _, D := range []partition.Partition{{2}, {1, 1}} {
		r, err := sys.ExchangeWith(16, D)
		if err != nil {
			t.Fatalf("%v: %v", D, err)
		}
		if !r.DataVerified {
			t.Errorf("%v: not verified", D)
		}
	}
}

// A torus System attached to a shared plan cache must resolve its
// partitions by hull lookup under the torus key.
func TestTorusSystemUsesPlanCache(t *testing.T) {
	topo, err := topology.ParseSpec("torus-3x3")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemOn(topo, model.Hypothetical())
	if err != nil {
		t.Fatal(err)
	}
	pc := plancache.New(plancache.Config{SweepHi: 64})
	if err := sys.UsePlanCache(pc, "hypo"); err != nil {
		t.Fatal(err)
	}
	part, err := sys.BestPartition(24)
	if err != nil {
		t.Fatal(err)
	}
	hull, err := pc.HullForCtx(context.Background(), "hypo", topo)
	if err != nil {
		t.Fatal(err)
	}
	if want := hull.Lookup(24); !part.Equal(want) {
		t.Errorf("system %v, cache %v", part, want)
	}
	if s := pc.Stats(); s.Lines != 1 || s.Builds != 1 {
		t.Errorf("cache stats after torus lookups: %+v", s)
	}
}
