package model

import (
	"fmt"

	"repro/internal/partition"
)

// StandardExchange returns the modeled time in µs of the Standard Exchange
// algorithm on a d-cube with block size m — paper eq. (1):
//
//	t_s(m,d) = d·(λ + m(τ+2ρ)·2^(d-1) + δ)
//
// The d transmissions are nearest-neighbour (distance 1) and each carries
// 2^(d-1) blocks; each step is followed by a shuffle of the 2^d resident
// blocks, accounted as 2ρ·m·2^(d-1) per step.
//
// Synchronization modeling follows Params: each of the d steps is a
// pairwise exchange, so the effective λ, τ, δ of the exchange mode are
// used, and with GlobalSyncPerPhase a single global synchronization is
// charged for the posting of all receives up front (§7.3).
func (p Params) StandardExchange(m, d int) float64 {
	if d == 0 {
		return 0
	}
	half := float64(int(1) << uint(d-1))
	t := float64(float64(d) * (p.EffLambda() + float64(float64(m)*(p.EffTau()+2*p.Rho)*half) + p.EffDelta()))
	if p.GlobalSyncPerPhase {
		t += p.GlobalSync(d)
	}
	return t
}

// OptimalCircuitSwitched returns the modeled time in µs of the Optimal
// Circuit-Switched algorithm on a d-cube with block size m — paper eq. (2):
//
//	t_o(m,d) = (2^d−1)·(λ + τm + δ·d·2^(d-1)/(2^d−1))
//
// There are 2^d−1 pairwise exchanges of one block each; at step i every
// processor exchanges with its XOR-partner, and the sum of path lengths
// over all steps equals d·2^(d-1) (the total weight of all nonzero XOR
// masks), giving the average-distance term.
func (p Params) OptimalCircuitSwitched(m, d int) float64 {
	if d == 0 {
		return 0
	}
	steps := float64(int(1)<<uint(d) - 1)
	totalDist := float64(d) * float64(int(1)<<uint(d-1))
	t := float64(steps*(p.EffLambda()+float64(p.EffTau()*float64(m)))) + float64(p.EffDelta()*totalDist)
	if p.GlobalSyncPerPhase {
		t += p.GlobalSync(d)
	}
	return t
}

// EffectiveBlockSize returns the superblock size m·2^(d−di) moved during a
// partial exchange of subcube dimension di within a d-cube (§5.2).
func EffectiveBlockSize(m, d, di int) int {
	return m * (1 << uint(d-di))
}

// PhaseCost returns the modeled time in µs of one partial exchange of
// subcube dimension di within a d-cube, block size m, using the
// circuit-switched algorithm inside the subcube — the structure of paper
// eq. (3):
//
//	(2^di−1)·(λ_eff + τ·m_i + δ_eff·di·2^(di-1)/(2^di−1)) + ρ·2^d·m + Γd
//
// where m_i = m·2^(d−di) is the effective block size, the shuffle term
// ρ·2^d·m is omitted when di == d (a d-shuffle of 2^d blocks is the
// identity, §7.4), and Γd is the per-phase global synchronization when
// enabled.
func (p Params) PhaseCost(m, d, di int) float64 {
	if di <= 0 {
		return 0
	}
	mi := float64(EffectiveBlockSize(m, d, di))
	steps := float64(int(1)<<uint(di) - 1)
	totalDist := float64(di) * float64(int(1)<<uint(di-1))
	t := float64(steps*(p.EffLambda()+float64(p.EffTau()*mi))) + float64(p.EffDelta()*totalDist)
	if di != d {
		t += p.ShuffleTime(m, d)
	}
	if p.GlobalSyncPerPhase {
		t += p.GlobalSync(d)
	}
	return t
}

// PhaseLine returns PhaseCost as a function of the block size: eq. (3) is
// intercept + slope·m, the constant terms (startups, distance, the global
// synchronization) and the terms proportional to m (transmission of the
// effective blocks, the shuffle) each summed on their own. See
// PhaseLineOn for what the regrouping means for the last bit.
func (p Params) PhaseLine(d, di int) (slope, intercept float64) {
	if di <= 0 {
		return 0, 0
	}
	steps := float64(int(1)<<uint(di) - 1)
	totalDist := float64(di) * float64(int(1)<<uint(di-1))
	slope = float64(steps * p.EffTau() * float64(EffectiveBlockSize(1, d, di)))
	intercept = float64(steps*p.EffLambda()) + float64(p.EffDelta()*totalDist)
	if di != d {
		slope += p.ShuffleTime(1, d)
	}
	if p.GlobalSyncPerPhase {
		intercept += p.GlobalSync(d)
	}
	return slope, intercept
}

// PhaseCostStandard returns the modeled time of one partial exchange of
// subcube dimension di performed with the Standard Exchange algorithm
// *inside* the subcube: di nearest-neighbour transmissions each carrying
// half of the subcube-relevant superblocks (di·m_i·2^(di−1) bytes total),
// with internal shuffles, plus the cross-phase shuffle. Used when the
// optimizer is allowed to pick the per-phase algorithm (§6).
func (p Params) PhaseCostStandard(m, d, di int) float64 {
	if di <= 0 {
		return 0
	}
	mi := float64(EffectiveBlockSize(m, d, di))
	half := float64(int(1) << uint(di-1))
	t := float64(float64(di) * (p.EffLambda() + float64(mi*(p.EffTau()+2*p.Rho)*half) + p.EffDelta()))
	if di != d {
		t += p.ShuffleTime(m, d)
	}
	if p.GlobalSyncPerPhase {
		t += p.GlobalSync(d)
	}
	return t
}

// PhaseAlg identifies the algorithm used within one phase's subcubes.
type PhaseAlg int

const (
	// PhaseCS runs the phase with the circuit-switched pairwise schedule.
	PhaseCS PhaseAlg = iota
	// PhaseSE runs the phase with standard exchange inside each subcube.
	PhaseSE
)

func (a PhaseAlg) String() string {
	switch a {
	case PhaseCS:
		return "CS"
	case PhaseSE:
		return "SE"
	default:
		return fmt.Sprintf("PhaseAlg(%d)", int(a))
	}
}

// PhaseBreakdown describes the modeled cost of a single phase.
type PhaseBreakdown struct {
	SubcubeDim int      // di
	EffBlock   int      // m·2^(d−di) bytes
	Alg        PhaseAlg // algorithm used inside the subcubes
	Time       float64  // µs, including shuffle and per-phase sync
}

// Multiphase returns the modeled total time in µs of the multiphase
// complete exchange with partition D on a d-cube with block size m, with
// every phase using the circuit-switched algorithm (as in the paper's
// iPSC-860 implementation). The per-phase breakdown is also returned.
func (p Params) Multiphase(m, d int, D partition.Partition) (float64, []PhaseBreakdown) {
	total := 0.0
	phases := make([]PhaseBreakdown, 0, len(D))
	for _, di := range D {
		t := p.PhaseCost(m, d, di)
		total += t
		phases = append(phases, PhaseBreakdown{
			SubcubeDim: di,
			EffBlock:   EffectiveBlockSize(m, d, di),
			Alg:        PhaseCS,
			Time:       t,
		})
	}
	return total, phases
}

// MultiphaseBestAlg returns the modeled total time with the cheaper of the
// two per-phase algorithms chosen independently for every phase (§6: "For
// each partition D we select the best algorithm at each phase").
func (p Params) MultiphaseBestAlg(m, d int, D partition.Partition) (float64, []PhaseBreakdown) {
	total := 0.0
	phases := make([]PhaseBreakdown, 0, len(D))
	for _, di := range D {
		cs := p.PhaseCost(m, d, di)
		se := p.PhaseCostStandard(m, d, di)
		alg, t := PhaseCS, cs
		if se < cs {
			alg, t = PhaseSE, se
		}
		total += t
		phases = append(phases, PhaseBreakdown{
			SubcubeDim: di,
			EffBlock:   EffectiveBlockSize(m, d, di),
			Alg:        alg,
			Time:       t,
		})
	}
	return total, phases
}

// CrossoverBlockSize returns the block size below which the Standard
// Exchange algorithm is faster than the Optimal Circuit-Switched algorithm
// on a d-cube (paper §4.3):
//
//	m < [ (2^d−d−1)λ + d(2^(d-1)−1)δ ] / [ (d·2^(d-1)−2^d+1)τ + d·2^d·ρ ]
//
// computed with the effective λ and δ of the parameter set. For d ≤ 1 the
// two algorithms coincide and 0 is returned.
func (p Params) CrossoverBlockSize(d int) float64 {
	if d <= 1 {
		return 0
	}
	n := float64(int(1) << uint(d))
	half := float64(n / 2)
	num := float64((n-float64(d)-1)*p.EffLambda()) + float64(float64(d)*(half-1)*p.EffDelta())
	den := float64((float64(float64(d)*half)-n+1)*p.EffTau()) + float64(float64(d)*n*p.Rho)
	if den == 0 {
		return 0
	}
	return num / den
}
