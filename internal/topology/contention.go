package topology

import "sort"

// Transfer is one point-to-point message in a communication step.
type Transfer struct {
	Src, Dst int
}

// ContentionReport summarizes the link and node sharing of one
// communication step in which all transfers are in flight simultaneously
// under e-cube routing.
type ContentionReport struct {
	// EdgeLoad maps each directed edge to the number of circuits using it.
	EdgeLoad map[Edge]int
	// NodeLoad maps each node to the number of circuits passing *through*
	// it (excluding endpoints). Paper §2: node contention has no
	// measurable cost on the iPSC-860, but we report it anyway.
	NodeLoad map[int]int
	// MaxEdgeLoad is the maximum circuit count over any directed edge;
	// 1 means the step is edge-contention-free.
	MaxEdgeLoad int
	// MaxNodeLoad is the maximum pass-through count over any node.
	MaxNodeLoad int
}

// EdgeContentionFree reports whether no directed link carries more than
// one circuit.
func (r ContentionReport) EdgeContentionFree() bool { return r.MaxEdgeLoad <= 1 }

// ContendedEdges returns the edges shared by ≥2 circuits, sorted for
// deterministic output.
func (r ContentionReport) ContendedEdges() []Edge {
	var out []Edge
	for e, c := range r.EdgeLoad {
		if c > 1 {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// XORStep returns the transfer set of step i of the Schmiermund–Seidel
// schedule: every node p exchanges with p XOR i. The schedule is the
// paper's Optimal Circuit-Switched algorithm (§4.2): for i = 1..2^d−1 the
// steps are pairwise exchanges and each step is edge-contention-free.
func (h *Hypercube) XORStep(i int) []Transfer {
	step := make([]Transfer, 0, h.n)
	for p := 0; p < h.n; p++ {
		step = append(step, Transfer{Src: p, Dst: p ^ i})
	}
	return step
}

// VerifyXORScheduleContentionFree checks that every step i = 1..2^d−1 of
// the XOR schedule is edge-contention-free under e-cube routing, returning
// the first offending step or 0 if all are clean.
func (h *Hypercube) VerifyXORScheduleContentionFree() (int, error) {
	for i := 1; i < h.n; i++ {
		r, err := Analyze(h, h.XORStep(i))
		if err != nil {
			return i, err
		}
		if !r.EdgeContentionFree() {
			return i, nil
		}
	}
	return 0, nil
}
