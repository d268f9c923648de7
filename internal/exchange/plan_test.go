package exchange

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/topology"
)

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(-1, 4, partition.Partition{1}); err == nil {
		t.Error("negative dim must fail")
	}
	if _, err := NewPlan(3, -4, partition.Partition{3}); err == nil {
		t.Error("negative block size must fail")
	}
	if _, err := NewPlan(3, 4, partition.Partition{2, 2}); err == nil {
		t.Error("wrong partition sum must fail")
	}
	if _, err := NewPlan(3, 4, partition.Partition{3, 0}); err == nil {
		t.Error("zero part must fail")
	}
	if _, err := NewPlan(0, 4, partition.Partition{1}); err == nil {
		t.Error("nonempty partition for 0-cube must fail")
	}
	if _, err := NewPlan(0, 4, nil); err != nil {
		t.Errorf("0-cube plan: %v", err)
	}
	if _, err := NewStandardPlan(-1, 4); err == nil {
		t.Error("negative dim standard plan must fail, not panic")
	}
	if _, err := NewOptimalPlan(-1, 4); err == nil {
		t.Error("negative dim optimal plan must fail")
	}
}

// m × nodes is bounded so that no size a plan derives from m wraps: a
// block size from outside (pland's /v1/cost) must fail here, not overflow.
func TestNewPlanOnBlockSizeLimit(t *testing.T) {
	for _, tc := range []struct {
		spec string
		part partition.Partition
		m    int
		ok   bool
	}{
		{"hypercube-5", partition.Partition{1, 1, 1, 1, 1}, MaxBufferBytes / 32, true},
		{"hypercube-5", partition.Partition{1, 1, 1, 1, 1}, MaxBufferBytes/32 + 1, false},
		{"hypercube-5", partition.Partition{5}, 1 << 62, false}, // 32·m wraps to 0
		{"torus-4x4", partition.Partition{1, 1}, MaxBufferBytes / 16, true},
		{"torus-4x4", partition.Partition{1, 1}, MaxBufferBytes/16 + 1, false},
		{"hypercube-0", nil, MaxBufferBytes, true},
		{"hypercube-0", nil, MaxBufferBytes + 1, false},
	} {
		topo, err := topology.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlanOn(topo, tc.m, tc.part)
		if (err == nil) != tc.ok {
			t.Errorf("NewPlanOn(%s, m=%d): err = %v, want ok=%v", tc.spec, tc.m, err, tc.ok)
		}
		if err != nil {
			continue
		}
		for _, ph := range p.Phases() {
			if ph.EffBytes < tc.m {
				t.Errorf("NewPlanOn(%s, m=%d): EffBytes %d wrapped", tc.spec, tc.m, ph.EffBytes)
			}
		}
	}
}

func TestNewPlanAcceptsUnsortedPartition(t *testing.T) {
	// The paper's figures label partitions {2,3} — phase order matters
	// for the bit fields but any order is legal (§5 footnote).
	p, err := NewPlan(5, 10, partition.Partition{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	phases := p.Phases()
	if phases[0].SubcubeDim != 2 || phases[0].Lo != 3 {
		t.Errorf("phase 0 = %+v, want dim 2 over bits 3..4", phases[0])
	}
	if phases[1].SubcubeDim != 3 || phases[1].Lo != 0 {
		t.Errorf("phase 1 = %+v, want dim 3 over bits 0..2", phases[1])
	}
}

func TestPhaseLayoutFigure3(t *testing.T) {
	// d=3, {2,1}: phase 1 on bits 2,1 moving superblocks of 2 blocks;
	// phase 2 on bit 0 moving superblocks of 4 blocks.
	p, err := NewPlan(3, 1, partition.Partition{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	ph := p.Phases()
	if ph[0].Lo != 1 || ph[0].EffBlocks != 2 {
		t.Errorf("phase 1 = %+v", ph[0])
	}
	if ph[1].Lo != 0 || ph[1].EffBlocks != 4 {
		t.Errorf("phase 2 = %+v", ph[1])
	}
}

func TestDegeneratePlans(t *testing.T) {
	se, err := NewStandardPlan(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if se.TotalMessages() != 4 {
		t.Errorf("SE messages = %d, want d=4", se.TotalMessages())
	}
	if se.TotalTraffic() != 4*8*8 {
		// d transmissions of m·2^(d-1) bytes.
		t.Errorf("SE traffic = %d, want %d", se.TotalTraffic(), 4*8*8)
	}
	ocs, err := NewOptimalPlan(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ocs.TotalMessages() != 15 {
		t.Errorf("OCS messages = %d, want 2^d−1", ocs.TotalMessages())
	}
	if ocs.TotalTraffic() != 15*8 {
		t.Errorf("OCS traffic = %d, want %d", ocs.TotalTraffic(), 15*8)
	}
}

func TestOptimalPlanZeroDim(t *testing.T) {
	p, err := NewOptimalPlan(0, 8)
	if err != nil || p.TotalMessages() != 0 {
		t.Errorf("0-cube optimal plan: %v %v", p, err)
	}
}

func TestPlanAccessors(t *testing.T) {
	p, _ := NewPlan(5, 10, partition.Partition{2, 3})
	if p.Dim() != 5 || p.BlockSize() != 10 || p.Nodes() != 32 {
		t.Error("accessors wrong")
	}
	part := p.Partition()
	part[0] = 99
	if p.Partition()[0] == 99 {
		t.Error("Partition must return a copy")
	}
	if p.String() != "multiphase{2,3} hypercube-5 m=10" {
		t.Errorf("String = %q", p.String())
	}
}

// The number of steps and their sizes must satisfy the paper's counting:
// Σ(2^di − 1) exchanges of m·2^(d−di) bytes.
func TestStepCounts(t *testing.T) {
	for d := 1; d <= 7; d++ {
		for _, D := range partition.All(d) {
			p, err := NewPlan(d, 4, D)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, di := range D {
				want += 1<<uint(di) - 1
			}
			if got := len(p.Steps()); got != want {
				t.Errorf("d=%d %v: %d steps, want %d", d, D, got, want)
			}
			if p.TotalMessages() != want {
				t.Errorf("d=%d %v: TotalMessages=%d", d, D, p.TotalMessages())
			}
		}
	}
}

// Every step of every multiphase plan must be a perfect matching (pairwise
// exchanges) and edge-contention-free under e-cube routing — the property
// that makes the circuit-switched schedule "optimal" (§4.2) and extends to
// subcube-restricted phases (§5).
func TestAllPlansContentionFree(t *testing.T) {
	for d := 1; d <= 7; d++ {
		h := topology.MustNew(d)
		for _, D := range partition.All(d) {
			p, err := NewPlan(d, 1, D)
			if err != nil {
				t.Fatal(err)
			}
			for k, step := range p.Steps() {
				// Perfect matching: dst of src is an involution.
				for _, tr := range step {
					if tr.Src == tr.Dst {
						t.Fatalf("d=%d %v step %d: self transfer", d, D, k)
					}
				}
				r, err := topology.Analyze(h, step)
				if err != nil {
					t.Fatal(err)
				}
				if !r.EdgeContentionFree() {
					t.Errorf("d=%d %v step %d: edge contention %v",
						d, D, k, r.ContendedEdges())
				}
			}
		}
	}
}

// Transfers of one phase must stay within their subcube: partner differs
// from the node only within the phase's bit field.
func TestPhaseLocality(t *testing.T) {
	p, _ := NewPlan(6, 4, partition.Partition{2, 3, 1})
	phases := p.Phases()
	idx := 0
	for _, ph := range phases {
		mask := ((1 << uint(ph.SubcubeDim)) - 1) << uint(ph.Lo)
		for j := 1; j <= (1<<uint(ph.SubcubeDim))-1; j++ {
			for _, tr := range p.Steps()[idx] {
				if (tr.Src^tr.Dst)&^mask != 0 {
					t.Fatalf("phase lo=%d step %d: transfer %d→%d leaves subcube",
						ph.Lo, j, tr.Src, tr.Dst)
				}
			}
			idx++
		}
	}
}

func TestTotalTrafficInvariant(t *testing.T) {
	// Whatever the partition, the *useful* payload is m(2^d −...) but
	// multiphase moves more: traffic = Σ steps·effbytes = m·Σ(2^di−1)·2^(d−di).
	// For {d} this is the minimum m(2^d−1); every refinement moves more.
	d, m := 6, 10
	ocs, _ := NewOptimalPlan(d, m)
	min := ocs.TotalTraffic()
	for _, D := range partition.All(d) {
		p, _ := NewPlan(d, m, D)
		if p.TotalTraffic() < min {
			t.Errorf("%v moves %d bytes, less than OCS %d", D, p.TotalTraffic(), min)
		}
	}
}
