package model

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/topology"
)

// This file generalizes the §4.3/§7.4 closed forms from the binary
// hypercube to any topology.Network, with one formula for every fabric. A
// phase over a dimension field of span S (the product of the field's
// radices) runs S−1 steps moving superblocks of m·n/S bytes. On an
// all-radix-2 field the steps are the XOR pairwise schedule and the total
// routed distance over the steps is w·2^(w−1), exactly eq. (3), so a
// hypercube is priced by the same arithmetic as eq. (3)'s PhaseCost; on
// mixed-radix fields the steps are cyclic field shifts and the distance
// term is the sum over steps of the worst-case routed distance within a
// sub-block, computed exactly in O(S·w) once per (topology handle, field)
// and kept with the handle.

// fieldKey names one fact this package derives per dimension field of a
// topology and keeps with the topology handle (topology.Derived).
type fieldKey struct {
	fact  fieldFact
	lo, w int
}

type fieldFact uint8

const (
	shiftDist     fieldFact = iota // phaseDistTotal
	degradedPhase                  // phaseMetricsDegraded
)

// digitDistances returns, for each dimension lo+i of the field [lo, lo+w),
// the routed distance rows[i][x] from node 0 to the node x steps along that
// dimension, read from the healthy base fabric: x on a mesh, min(x, r−x)
// on a torus. Routed distance is the sum of such per-dimension terms, so
// these rows are all the distance facts of a field need.
func digitDistances(net topology.Network, lo, w int) [][]int {
	if dg, ok := net.(*topology.Degraded); ok {
		net = dg.Base()
	}
	rows := make([][]int, w)
	for i := range rows {
		stride := net.Stride(lo + i)
		r, _ := topology.SpanSize(net, lo+i, 1) // the radix; the caller checked the field
		row := make([]int, r)
		for x := 1; x < len(row); x++ {
			row[x] = net.Distance(0, x*stride)
		}
		rows[i] = row
	}
	return rows
}

// phaseDistTotal returns the total routed distance charged to one phase
// over the dimension field [lo, lo+w), whose span (topology.SpanSize) the
// caller has already read: Σ_j max_f dist(f, f+j mod span) for cyclic
// phases, w·2^(w−1) for XOR phases (where every step's distance is
// uniform, popcount(j)).
//
// The cyclic maximum is a carry recursion across the field's dimensions.
// Adding j to f moves digit i by v = j_i + c, c the carry out of digit i−1;
// every digit f_i is free, so the only thing one digit's choice passes to
// the next is its carry out. Carry 0 is reachable iff v ≤ r_i−1 and costs
// the distance of a forward move by v; carry 1 is reachable iff v ≥ 1 and
// costs that of a move back by r_i−v (the addition wrapped). The worst
// step is the best path through these two states, O(w) per step: exact,
// with no enumeration over f. Nodes differing only inside the field are
// routed inside its sub-block, so the sub-block of node 0 stands for all;
// faults break that symmetry, and degraded phases are priced by
// phaseMetricsDegraded, never here.
func phaseDistTotal(net topology.Network, lo, w, span int) float64 {
	if span == 1<<w { // every radix is at least 2: an all-binary field
		return float64(w) * float64(span/2)
	}
	return topology.Derived(net, fieldKey{shiftDist, lo, w}, func() float64 {
		rows := digitDistances(net, lo, w)
		digit := make([]int, w) // j's digits, field dimension 0 first
		total := 0
		for j := 1; j < span; j++ {
			for i := 0; ; i++ { // j = j−1 plus one
				if digit[i]++; digit[i] < len(rows[i]) {
					break
				}
				digit[i] = 0
			}
			// stay and wrap are the worst distance over the digits so far
			// with carry 0 and carry 1 into the next digit; −1 is
			// unreachable.
			stay, wrap := 0, -1
			for i, row := range rows {
				r, nextStay, nextWrap := len(row), -1, -1
				for c, worst := range [2]int{stay, wrap} {
					if worst < 0 {
						continue
					}
					v := digit[i] + c
					if v <= r-1 {
						nextStay = max(nextStay, worst+row[v])
					}
					if v >= 1 {
						nextWrap = max(nextWrap, worst+row[r-v])
					}
				}
				stay, wrap = nextStay, nextWrap
			}
			total += max(stay, wrap)
		}
		return float64(total)
	})
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
	if dg, ok := net.(*topology.Degraded); ok {
		if err := dg.Operational(); err != nil {
			return 0, 0, err
		}
		pm, err := phaseMetricsDegraded(dg, lo, w)
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < pm.steps; i++ {
			dist, slow := pm.at(i)
			t += float64((p.EffLambda() + float64(p.EffTau()*mi) + float64(p.EffDelta()*dist)) * slow)
		}
	} else {
		steps := float64(span - 1)
		t = float64(steps*(p.EffLambda()+float64(p.EffTau()*mi))) + float64(p.EffDelta()*phaseDistTotal(net, lo, w, span))
	}
	if span != n {
		t += float64(p.Rho * float64(m) * float64(n))
	}
	if p.GlobalSyncPerPhase {
		t += p.GlobalSync(net.Diameter())
	}
	return t, span, nil
}

// PhaseLineOn returns PhaseCostOn as a function of the block size: over the
// field [lo, lo+w) the phase costs intercept + slope·m, on healthy fields
// and on faulty overlays alike, because every term of the closed form is
// either constant or proportional to m. The paper draws its hull of
// optimality (§6, §8) as an envelope of exactly these straight lines. The
// coefficients group PhaseCostOn's terms by power of m rather than in its
// order of evaluation, so intercept + slope·m agrees with PhaseCostOn to
// rounding, not to the last bit: the lines say where two groupings cross,
// PhaseCostOn says which one a block size on either side of the crossing
// is served. On a hypercube the coefficients are eq. (3)'s PhaseLine, bit
// for bit.
func (p Params) PhaseLineOn(net topology.Network, lo, w int) (slope, intercept float64, err error) {
	if w <= 0 {
		return 0, 0, fmt.Errorf("model: nonpositive phase width %d", w)
	}
	span, err := topology.SpanSize(net, lo, w)
	if err != nil {
		return 0, 0, err
	}
	n := net.Nodes()
	steps := float64(span - 1) // on an overlay, each step weighted by its slow factor
	if dg, ok := net.(*topology.Degraded); ok {
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
			intercept += float64((p.EffLambda() + float64(p.EffDelta()*dist)) * slow)
		}
	} else {
		intercept = float64(steps*p.EffLambda()) + float64(p.EffDelta()*phaseDistTotal(net, lo, w, span))
	}
	slope = float64(steps * p.EffTau() * float64(n/span))
	if span != n {
		slope += float64(p.Rho * float64(n))
	}
	if p.GlobalSyncPerPhase {
		intercept += p.GlobalSync(net.Diameter())
	}
	return slope, intercept, nil
}

// MultiphaseOn returns the modeled total time in µs of the multiphase
// complete exchange with dimension grouping D on any topology with block
// size m, every phase using the circuit-switched schedule inside its
// sub-blocks and priced by PhaseCostOn. On a hypercube this agrees
// exactly with Multiphase: PhaseCostOn does eq. (3)'s float operations in
// its order. The per-phase breakdown is also returned.
func (p Params) MultiphaseOn(net topology.Network, m int, D partition.Partition) (float64, []PhaseBreakdown, error) {
	if net.NumDims() == 0 {
		if len(D) != 0 {
			return 0, nil, fmt.Errorf("model: nonempty grouping %v for single-node topology", D)
		}
		return 0, nil, nil
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
