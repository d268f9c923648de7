package model

import (
	"fmt"

	"repro/internal/topology"
)

// This file provides the admissible lower bound the optimizer's
// branch-and-bound pruning rests on. The discrete-event simulator charges
// every phase a global barrier (unconditionally — the compiled plans post
// their FORCED receives behind an OpBarrier), then Span−1 steps, then the
// ρ·m·n shuffle when the phase does not span the whole machine.
// Contention and rendezvous waiting can only delay a node beyond the
// serial sum of its own transmissions, so the makespan of one simulated
// phase is bounded from below by the busiest node's serial work:
//
//	XOR field:    (S−1)·(λ_eff + τ_eff·m_i) + δ_eff·w·S/2 — every node's
//	              exchange durations sum identically (the step-j exchange
//	              crosses popcount(j) dimensions), so this is the exact
//	              zero-contention makespan;
//	cyclic field: (S−1)·(λ + τ·m_i) + δ·max_f Σ_j dist(f, f+j) with the
//	              RAW message constants — the simulator's FORCED sends
//	              cost λ + τ·m + δ·h each, with no pairwise sync round.
//
// Both are provable lower bounds on the simulated phase makespan, never
// above it, which is exactly what admissible pruning requires: a
// candidate whose per-phase bounds already sum past the incumbent's
// simulated time cannot win.

// maxNodeShiftDist returns max_f Σ_{j=1}^{span−1} dist(f, (f+j) mod span)
// over the dimension field [lo, lo+w): the total routed distance of the
// busiest node's sends across a cyclic phase. Those sends reach every other
// node of the sub-block once, and a routed distance is a sum of
// per-dimension distances, so the total splits by dimension into
// Σ_i (span/r_i)·Σ_x d_i(f_i, x). A torus ring is vertex-transitive and
// the worst node of a mesh line is its end, so the maximum over f is the
// closed form Σ_i (span/r_i)·Σ_x d_i(0, x). On a faulted overlay it is
// the healthy base's value: a detour is never shorter than the route it
// replaces, so the bound stays admissible.
func maxNodeShiftDist(net topology.Network, lo, w, span int) float64 {
	total := 0
	for _, row := range digitDistances(net, lo, w) {
		sum := 0
		for _, d := range row {
			sum += d
		}
		total += span / len(row) * sum
	}
	return float64(total)
}

// PhaseLowerBoundOn returns an admissible lower bound in µs on the
// simulated makespan of the single phase over the dimension field
// [lo, lo+w) at block size m: the barrier's GlobalSync(diameter) — the
// simulator charges it on every phase regardless of GlobalSyncPerPhase —
// plus the busiest node's serial transmission time, plus the ρ·m·n
// shuffle when the phase spans less than the whole machine. The bound
// never exceeds the value exchange fragment replay produces for the same
// field, so pruning on it never discards a potential winner. A
// non-operational overlay (dead node, severed partition) is an error
// wrapping topology.ErrUnroutable, as in PhaseCostOn.
func (p Params) PhaseLowerBoundOn(net topology.Network, m, lo, w int) (float64, error) {
	if w <= 0 {
		return 0, fmt.Errorf("model: nonpositive phase width %d", w)
	}
	span, err := topology.SpanSize(net, lo, w)
	if err != nil {
		return 0, err
	}
	if err := topology.CheckOperational(net); err != nil {
		return 0, err
	}
	xor := span == 1<<w // every radix is at least 2
	n := net.Nodes()
	mi := float64(m) * float64(n/span)
	steps := float64(span - 1)
	var t float64
	if xor {
		t = float64(steps*(p.EffLambda()+float64(p.EffTau()*mi))) + float64(p.EffDelta()*float64(w)*float64(span/2))
	} else {
		t = float64(steps*(p.Lambda+float64(p.Tau*mi))) + float64(p.Delta*maxNodeShiftDist(net, lo, w, span))
	}
	if span != n {
		t += float64(p.Rho * float64(m) * float64(n))
	}
	t += p.GlobalSync(net.Diameter())
	return t, nil
}
