package model

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/topology"
)

// This file generalizes the §4.3/§7.4 closed forms from the binary
// hypercube to any topology.Network. A phase over a dimension group of
// span S (the product of the group's radices) runs S−1 steps moving
// superblocks of m·n/S bytes. On an all-radix-2 group the steps are the
// XOR pairwise schedule and the total routed distance over the steps is
// w·2^(w−1), exactly eq. (3); on mixed-radix groups the steps are cyclic
// field shifts and the distance term is the sum over steps of the
// worst-case routed distance within a sub-block, computed once per
// (topology handle, field) and kept with the handle.

// fieldKey names one fact this package derives per dimension field of a
// topology and keeps with the topology handle (topology.Derived).
type fieldKey struct {
	fact  fieldFact
	lo, w int
}

type fieldFact uint8

const (
	shiftDist     fieldFact = iota // phaseDistTotal
	shiftLB                        // maxNodeShiftDist
	degradedPhase                  // phaseMetricsDegraded
)

// exactShiftDistSpan bounds the field span for which the worst-case
// shift distances are computed by exact O(span²) enumeration. Larger
// fields use the O(Σ radices) per-dimension closed form below — a
// serving tier must never run an enumeration quadratic in an
// attacker-chosen span (a single /v1/plan for a big torus would
// otherwise pin a CPU for hours).
const exactShiftDistSpan = 4096

// phaseDistTotal returns the total routed distance charged to one phase
// over the dimension field [lo, lo+w), whose span (topology.SpanSize) the
// caller has already read: Σ_j max_f dist(f, f+j) for cyclic
// phases, w·2^(w−1) for XOR phases (where every step's distance is
// uniform, popcount(j)). Beyond exactShiftDistSpan the cyclic term is
// the per-dimension worst-case closed form: adding j to a field shifts
// digit i by j_i plus at most one carry, so the step's distance is at
// most Σ_i M_i(j_i) with M_i(v) the worst per-dimension digit distance
// over the carry cases; summed over j, each digit value occurs span/r_i
// times, giving Σ_i (span/r_i)·Σ_v M_i(v) − Σ_i M_i(0).
func phaseDistTotal(net topology.Network, lo, w, span int) float64 {
	if span == 1<<w { // every radix is at least 2: an all-binary field
		return float64(w) * float64(span/2)
	}
	return topology.Derived(net, fieldKey{shiftDist, lo, w}, func() (total float64) {
		if span <= exactShiftDistSpan {
			// Distances between nodes differing only inside the field are
			// field-local, so the sub-block anchored at label 0 is
			// representative: node(f) = f·stride. (Faults break this
			// symmetry; degraded phases are priced by phaseMetricsDegraded,
			// never here.)
			stride := net.Stride(lo)
			for j := 1; j < span; j++ {
				maxDist := 0
				for f := 0; f < span; f++ {
					if d := net.Distance(f*stride, ((f+j)%span)*stride); d > maxDist {
						maxDist = d
					}
				}
				total += float64(maxDist)
			}
			return total
		}
		// Torus fields wrap; any other shape is priced with the
		// open-boundary max(w, r−w), the pessimistic upper bound. A
		// healthy Degraded overlay wraps exactly like its base.
		baseNet := net
		if dg, ok := net.(*topology.Degraded); ok {
			baseNet = dg.Base()
		}
		_, wrap := baseNet.(*topology.Torus)
		dims := net.Dims()
		for i := lo; i < lo+w; i++ {
			r := dims[i]
			sum, zero := 0, 0
			for v := 0; v < r; v++ {
				m := digitShiftMax(r, v, wrap)
				sum += m
				if v == 0 {
					zero = m
				}
			}
			total += float64(span/r)*float64(sum) - float64(zero)
		}
		return total
	})
}

// digitShiftMax returns the worst-case routed distance of one dimension
// when its digit shifts by v with an optional incoming carry: the new
// digit is (a+v+c) mod r for c ∈ {0,1}, so the digit difference is
// w = (v+c) mod r — distance min(w, r−w) on a torus, and on a mesh
// either w or r−w depending on whether the addition wrapped, both
// reachable, so the max of the two.
func digitShiftMax(r, v int, wrap bool) int {
	best := 0
	for c := 0; c <= 1; c++ {
		w := (v + c) % r
		var d int
		if w == 0 {
			d = 0
		} else if wrap {
			d = min(w, r-w)
		} else {
			d = max(w, r-w)
		}
		if d > best {
			best = d
		}
	}
	return best
}

// degradedPhaseMetrics carries the params-independent per-step worst
// cases of one phase on one faulty overlay: step j (1 ≤ j ≤ steps) has the
// worst fault-aware routed distance dist[j-1] and the worst per-wire speed
// factor slow[j-1] among its routes — or, when the phase was priced by the
// fallback, every step has the one pair dist[0], slow[0].
type degradedPhaseMetrics struct {
	steps      int // span − 1
	dist, slow []float64
	err        error
}

// at returns step i+1's worst distance and slow factor.
func (pm *degradedPhaseMetrics) at(i int) (dist, slow float64) {
	i = min(i, len(pm.dist)-1) // a fallback's one pair stands for every step
	return pm.dist[i], pm.slow[i]
}

// degradedExactWork bounds the route enumerations (nodes × steps) spent
// computing exact degraded phase metrics; beyond it the phase is priced
// by the healthy closed form plus a pessimistic detour surcharge. A
// serving tier must never run an enumeration quadratic in an
// attacker-chosen span.
const degradedExactWork = 1 << 22

// phaseMetricsDegraded returns the per-step metrics of the phase over
// [lo, lo+w) on a faulty overlay, derived once per overlay handle.
func phaseMetricsDegraded(d *topology.Degraded, lo, w int) (*degradedPhaseMetrics, error) {
	pm := topology.Derived(d, fieldKey{degradedPhase, lo, w}, func() *degradedPhaseMetrics {
		pm := new(degradedPhaseMetrics)
		pm.err = pm.derive(d, lo, w)
		return pm
	})
	return pm, pm.err
}

// derive fills pm for the phase over [lo, lo+w) of d. Faults break the
// sub-block symmetry the healthy closed forms rely on (the XOR uniform
// distance and the block-0 representative), so every sub-block is
// enumerated with the actual step family — XOR pairing f^j on all-radix-2
// fields, cyclic shifts f+j elsewhere — through fault-aware routing. Past
// the work cap the fallback charges every step the healthy distance
// total's share plus a two-hop detour allowance per dead wire, at the
// overlay's worst slow factor: one pair, stored once.
func (pm *degradedPhaseMetrics) derive(d *topology.Degraded, lo, w int) error {
	span, err := topology.SpanSize(d, lo, w)
	if err != nil {
		return err
	}
	xor := span == 1<<w
	pm.steps = span - 1
	n := d.Nodes()
	if uint64(n)*uint64(span-1) > degradedExactWork {
		total := phaseDistTotal(d.Base(), lo, w, span)
		perStep := total/float64(span-1) + 2*float64(len(d.Faults().DeadLinks))
		pm.dist, pm.slow = []float64{perStep}, []float64{d.MaxSlowFactor()}
		return nil
	}
	blocks, err := topology.SubBlocks(d, lo, w)
	if err != nil {
		return err
	}
	pm.dist, pm.slow = make([]float64, span-1), make([]float64, span-1)
	for j := 1; j < span; j++ {
		maxDist, maxSlow := 0, 1.0
		for _, block := range blocks {
			for f, src := range block {
				var dst int
				if xor {
					dst = block[f^j]
				} else {
					dst = block[(f+j)%span]
				}
				h, s, err := d.RouteMetrics(src, dst)
				if err != nil {
					return err
				}
				if h > maxDist {
					maxDist = h
				}
				if s > maxSlow {
					maxSlow = s
				}
			}
		}
		pm.dist[j-1] = float64(maxDist)
		pm.slow[j-1] = maxSlow
	}
	return nil
}

// PhaseCostOn returns the modeled time in µs of one partial exchange
// over the dimension field [lo, lo+w) of the given topology with block
// size m — the mixed-radix generalization of PhaseCost:
//
//	(S−1)·(λ_eff + τ_eff·m·n/S) + δ_eff·dist + ρ·n·m + Γ·diameter
//
// where S is the field's span, dist the phase's total routed distance
// (see phaseDistTotal), the shuffle term is omitted when the phase spans
// the whole machine, and the per-phase global synchronization is charged
// when enabled, weighted by the topology's diameter (§7.3; the
// hypercube's diameter is its dimension, recovering eq. 3 exactly). An
// out-of-range field is an error, never a zero cost — a zero would win
// any minimization it leaked into.
//
// On a faulty topology.Degraded overlay the phase is priced per step
// with fault-aware metrics: step j charges
// (λ_eff + τ_eff·mi + δ_eff·dist_j)·slow_j, where dist_j is the step's
// worst detoured distance and slow_j the worst speed factor among its
// routes (the step waits for its slowest node, and a circuit runs at
// the speed of its slowest wire) — the worst-case upper bound matching
// the simulator's per-circuit fault scaling. A non-operational overlay
// (dead node, severed partition) is an error wrapping
// topology.ErrUnroutable, never a cost.
func (p Params) PhaseCostOn(net topology.Network, m, lo, w int) (float64, error) {
	t, _, err := p.phaseCostOn(net, m, lo, w)
	return t, err
}

// phaseCostOn is PhaseCostOn also returning the field's span.
func (p Params) phaseCostOn(net topology.Network, m, lo, w int) (t float64, span int, err error) {
	if w <= 0 {
		return 0, 0, fmt.Errorf("model: nonpositive phase width %d", w)
	}
	span, err = topology.SpanSize(net, lo, w)
	if err != nil {
		return 0, 0, err
	}
	n := net.Nodes()
	mi := float64(m) * float64(n/span)
	if dg, ok := net.(*topology.Degraded); ok && !dg.Healthy() {
		if err := dg.Operational(); err != nil {
			return 0, 0, err
		}
		pm, err := phaseMetricsDegraded(dg, lo, w)
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < pm.steps; i++ {
			dist, slow := pm.at(i)
			t += (p.EffLambda() + p.EffTau()*mi + p.EffDelta()*dist) * slow
		}
	} else {
		steps := float64(span - 1)
		t = steps*(p.EffLambda()+p.EffTau()*mi) + p.EffDelta()*phaseDistTotal(net, lo, w, span)
	}
	if span != n {
		t += p.Rho * float64(m) * float64(n)
	}
	if p.GlobalSyncPerPhase {
		t += p.GlobalSync(net.Diameter())
	}
	return t, span, nil
}

// PhaseLineOn returns PhaseCostOn as a function of the block size: over the
// field [lo, lo+w) the phase costs intercept + slope·m, on healthy fields
// (a hypercube's are PhaseLine's) and on faulty overlays alike, because
// every term of the closed form is either constant or proportional to m.
// The paper draws its hull of optimality (§6, §8) as an envelope of
// exactly these straight lines. The coefficients group PhaseCostOn's terms
// by power of m rather than in its order of evaluation, so
// intercept + slope·m agrees with PhaseCostOn to rounding, not to the last
// bit: the lines say where two groupings cross, PhaseCostOn says which one
// a block size on either side of the crossing is served.
func (p Params) PhaseLineOn(net topology.Network, lo, w int) (slope, intercept float64, err error) {
	if w <= 0 {
		return 0, 0, fmt.Errorf("model: nonpositive phase width %d", w)
	}
	if h, ok := topology.AsHypercube(net); ok && lo >= 0 && lo+w <= h.Dim() {
		slope, intercept = p.PhaseLine(h.Dim(), w)
		return slope, intercept, nil
	}
	span, err := topology.SpanSize(net, lo, w)
	if err != nil {
		return 0, 0, err
	}
	n := net.Nodes()
	steps := float64(span - 1) // on an overlay, each step weighted by its slow factor
	if dg, ok := net.(*topology.Degraded); ok && !dg.Healthy() {
		if err := dg.Operational(); err != nil {
			return 0, 0, err
		}
		pm, err := phaseMetricsDegraded(dg, lo, w)
		if err != nil {
			return 0, 0, err
		}
		steps = 0
		for i := 0; i < pm.steps; i++ {
			dist, slow := pm.at(i)
			steps += slow
			intercept += (p.EffLambda() + p.EffDelta()*dist) * slow
		}
	} else {
		intercept = steps*p.EffLambda() + p.EffDelta()*phaseDistTotal(net, lo, w, span)
	}
	slope = steps * p.EffTau() * float64(n/span)
	if span != n {
		slope += p.Rho * float64(n)
	}
	if p.GlobalSyncPerPhase {
		intercept += p.GlobalSync(net.Diameter())
	}
	return slope, intercept, nil
}

// MultiphaseOn returns the modeled total time in µs of the multiphase
// complete exchange with dimension grouping D on any topology with block
// size m, every phase using the circuit-switched schedule inside its
// sub-blocks. On a hypercube this agrees exactly with Multiphase. The
// per-phase breakdown is also returned.
func (p Params) MultiphaseOn(net topology.Network, m int, D partition.Partition) (float64, []PhaseBreakdown, error) {
	if net.NumDims() == 0 {
		if len(D) != 0 {
			return 0, nil, fmt.Errorf("model: nonempty grouping %v for single-node topology", D)
		}
		return 0, nil, nil
	}
	if h, ok := topology.AsHypercube(net); ok {
		// Radix-2 fast path: eq. (3) directly, no field layout to derive
		// (also taken by fault-free Degraded overlays, which behave
		// identically to their base by construction). Keeps the serving
		// tier's hot Get as cheap as before the topology generalization.
		d := h.Dim()
		sum := 0
		for _, di := range D {
			if di <= 0 {
				return 0, nil, fmt.Errorf("model: nonpositive phase group %d", di)
			}
			sum += di
		}
		if sum != d {
			return 0, nil, fmt.Errorf("model: phase groups sum to %d, want %d dimensions", sum, d)
		}
		t, phases := p.Multiphase(m, d, D)
		return t, phases, nil
	}
	// The phase fields of topology.PhaseFields, walked in place: phase j
	// takes the D[j] dimensions below the previous phase's.
	if err := topology.CheckGroups(net, D); err != nil {
		return 0, nil, err
	}
	n := net.Nodes()
	total := 0.0
	phases := make([]PhaseBreakdown, 0, len(D))
	hi := net.NumDims()
	for _, w := range D {
		hi -= w
		t, span, err := p.phaseCostOn(net, m, hi, w)
		if err != nil {
			return 0, nil, err
		}
		total += t
		phases = append(phases, PhaseBreakdown{
			SubcubeDim: w,
			EffBlock:   m * (n / span),
			Alg:        PhaseCS,
			Time:       t,
		})
	}
	return total, phases, nil
}
