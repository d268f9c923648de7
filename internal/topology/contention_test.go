package topology

import "testing"

// Paper §2 example: simultaneous paths 0→31 and 2→23 share edge 3-7;
// paths 0→31 and 14→11 share node 15.
func TestAnalyzeStepPaperExample(t *testing.T) {
	h := MustNew(5)
	r, err := Analyze(h, []Transfer{{0, 31}, {2, 23}, {14, 11}})
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeContentionFree() {
		t.Error("step must have edge contention")
	}
	if got := r.EdgeLoad[Edge{3, 7}]; got != 2 {
		t.Errorf("edge 3-7 load = %d, want 2", got)
	}
	if got := r.NodeLoad[15]; got < 2 {
		t.Errorf("node 15 load = %d, want ≥2", got)
	}
	ce := r.ContendedEdges()
	if len(ce) != 1 || ce[0] != (Edge{3, 7}) {
		t.Errorf("contended edges = %v, want [3-7]", ce)
	}
}

func TestAnalyzeStepIgnoresSelf(t *testing.T) {
	h := MustNew(3)
	r, err := Analyze(h, []Transfer{{2, 2}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.EdgeLoad) != 0 || r.MaxEdgeLoad != 0 {
		t.Error("self transfers must not load edges")
	}
}

func TestAnalyzeStepErrors(t *testing.T) {
	h := MustNew(3)
	if _, err := Analyze(h, []Transfer{{0, 99}}); err == nil {
		t.Error("out-of-cube transfer must fail")
	}
}

// The paper's central scheduling claim (§4.2): the XOR schedule is
// edge-contention-free at every step, for every cube dimension.
func TestXORScheduleContentionFree(t *testing.T) {
	for d := 1; d <= 8; d++ {
		h := MustNew(d)
		bad, err := h.VerifyXORScheduleContentionFree()
		if err != nil {
			t.Fatal(err)
		}
		if bad != 0 {
			t.Errorf("d=%d: XOR step %d has edge contention", d, bad)
		}
	}
}

func TestXORStepIsPairwise(t *testing.T) {
	h := MustNew(6)
	for i := 1; i < h.Nodes(); i++ {
		step := h.XORStep(i)
		// Every node appears exactly once as src; dst of p is p^i, and
		// the relation is an involution (pairwise exchange property that
		// the iPSC implementation depends on, §7.2).
		for _, tr := range step {
			if tr.Dst != tr.Src^i {
				t.Fatalf("step %d: %d→%d not XOR partner", i, tr.Src, tr.Dst)
			}
			if (tr.Dst ^ i) != tr.Src {
				t.Fatalf("step %d not an involution", i)
			}
		}
		if len(step) != h.Nodes() {
			t.Fatalf("step %d has %d transfers", i, len(step))
		}
	}
}

// Every node must receive from every other node exactly once across the
// full XOR schedule — the complete-exchange property.
func TestXORScheduleIsCompleteExchange(t *testing.T) {
	h := MustNew(5)
	n := h.Nodes()
	got := make(map[[2]int]int)
	for i := 1; i < n; i++ {
		for _, tr := range h.XORStep(i) {
			got[[2]int{tr.Src, tr.Dst}]++
		}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if got[[2]int{s, d}] != 1 {
				t.Fatalf("pair %d→%d served %d times", s, d, got[[2]int{s, d}])
			}
		}
	}
}

// The naive all-into-one schedule must exhibit edge contention on cubes of
// dimension ≥ 2 — the contrast that motivates careful scheduling on
// circuit-switched machines.
func TestNaiveScheduleHasContention(t *testing.T) {
	for d := 2; d <= 7; d++ {
		h := MustNew(d)
		found := false
		for i := 0; i < h.Nodes() && !found; i++ {
			r, err := Analyze(h, NaiveStep(h, i))
			if err != nil {
				t.Fatal(err)
			}
			if !r.EdgeContentionFree() {
				found = true
			}
		}
		if !found {
			t.Errorf("d=%d: naive schedule unexpectedly contention-free", d)
		}
	}
}

// Cyclic shifts are edge-contention-free under e-cube routing — a useful
// (and at first surprising) baseline fact.
func TestShiftScheduleContentionFree(t *testing.T) {
	for d := 1; d <= 7; d++ {
		h := MustNew(d)
		for i := 1; i < h.Nodes(); i++ {
			r, err := Analyze(h, ShiftStep(h, i))
			if err != nil {
				t.Fatal(err)
			}
			if !r.EdgeContentionFree() {
				t.Errorf("d=%d shift %d: unexpected contention", d, i)
			}
		}
	}
}

// Node contention exists in the XOR schedule even though edge contention
// does not (paper: node contention costs nothing on the iPSC-860).
func TestXORScheduleHasNodePassThroughs(t *testing.T) {
	h := MustNew(5)
	sawPassThrough := false
	for i := 1; i < h.Nodes(); i++ {
		r, err := Analyze(h, h.XORStep(i))
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxNodeLoad > 0 {
			sawPassThrough = true
		}
	}
	if !sawPassThrough {
		t.Error("expected some multi-hop steps with pass-through nodes")
	}
}

// Every XOR step's transfers all cross the same distance (the weight of
// the mask), which is what makes the per-step distance accounting of
// eq. (2) exact.
func TestXORStepUniformDistance(t *testing.T) {
	h := MustNew(6)
	for i := 1; i < h.Nodes(); i++ {
		step := h.XORStep(i)
		want := h.Distance(step[0].Src, step[0].Dst)
		for _, tr := range step {
			if h.Distance(tr.Src, tr.Dst) != want {
				t.Fatalf("step %d: nonuniform distances", i)
			}
		}
	}
}

func TestContendedEdgesSorted(t *testing.T) {
	h := MustNew(4)
	// Force contention: many transfers into node 0 along shared low-dim
	// edges.
	r, err := Analyze(h, []Transfer{{15, 0}, {14, 0}, {13, 0}, {7, 0}})
	if err != nil {
		t.Fatal(err)
	}
	ce := r.ContendedEdges()
	for i := 1; i < len(ce); i++ {
		if ce[i-1].From > ce[i].From ||
			(ce[i-1].From == ce[i].From && ce[i-1].To >= ce[i].To) {
			t.Error("contended edges not sorted")
		}
	}
}
