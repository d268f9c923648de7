// Package model implements the paper's analytic performance model for
// complete-exchange algorithms on a circuit-switched hypercube (§4.3, §7.4).
//
// The model is parameterized by four machine constants:
//
//	λ (Lambda)  message startup latency            µs
//	τ (Tau)     transmission cost                  µs per byte
//	δ (Delta)   distance impact                    µs per dimension crossed
//	ρ (Rho)     data permutation (shuffle) cost    µs per byte
//
// A message of m bytes crossing h dimensions costs λ + τ·m + δ·h; shuffling
// m bytes in memory costs ρ·m. From these the paper derives closed forms
// for the Standard Exchange algorithm (eq. 1), the Optimal Circuit-Switched
// algorithm (eq. 2), and the per-phase cost of the multiphase algorithm on
// the iPSC-860 (eq. 3).
package model

import "fmt"

// Params holds the machine performance constants of §4.3 together with the
// implementation details of §7 (pairwise and global synchronization).
type Params struct {
	// Lambda is the message startup latency in µs.
	Lambda float64
	// Tau is the per-byte transmission cost in µs/byte.
	Tau float64
	// Delta is the per-dimension distance impact in µs/dimension.
	Delta float64
	// Rho is the per-byte data-permutation (shuffle) cost in µs/byte.
	Rho float64

	// LambdaZero is the startup latency of a zero-byte message in µs
	// (used for pairwise synchronization; 82.5 µs on the iPSC-860).
	LambdaZero float64
	// GlobalSyncPerDim is the cost of a global synchronization in µs per
	// cube dimension (150 µs/dim measured on the iPSC-860).
	GlobalSyncPerDim float64

	// Exchange selects how a pairwise exchange behaves (§7.2).
	Exchange ExchangeMode

	// GlobalSyncPerPhase, when true, charges one global synchronization
	// (GlobalSyncPerDim·d) per multiphase phase, as in eq. (3).
	GlobalSyncPerPhase bool

	// UnforcedThreshold is the message size in bytes beyond which an
	// UNFORCED-type message incurs a reserve-acknowledge round trip
	// (§7.1: 100 bytes on the iPSC-860). Only consulted by the UNFORCED
	// cost variants; the paper's implementation uses FORCED messages.
	UnforcedThreshold int
}

// ExchangeMode describes the concurrency behaviour of a pairwise exchange
// on the modeled machine.
type ExchangeMode int

const (
	// ExchangeIdeal: the two transfers of an exchange proceed
	// concurrently with no extra cost — the assumption behind the
	// theoretical equations (1) and (2) of §4.3.
	ExchangeIdeal ExchangeMode = iota
	// ExchangeSynced: the iPSC-860 implementation of §7.2 — a zero-byte
	// pairwise synchronization round precedes the exchange, after which
	// the transfers run concurrently. Raises the effective startup to
	// λ+λ0 and doubles the effective distance impact (§7.4: λ_eff =
	// 177.5 µs, δ_eff = 20.6 µs/dim).
	ExchangeSynced
	// ExchangeSerialized: no synchronization is performed and (per the
	// measurements of Seidel et al.) the two transfers of the exchange
	// serialize: 2(λ + τm + δh). The ablation the paper argues against.
	ExchangeSerialized
)

func (m ExchangeMode) String() string {
	switch m {
	case ExchangeIdeal:
		return "ideal"
	case ExchangeSynced:
		return "synced"
	case ExchangeSerialized:
		return "serialized"
	default:
		return fmt.Sprintf("ExchangeMode(%d)", int(m))
	}
}

// EffLambda returns the effective per-exchange startup latency: λ, plus
// the zero-byte synchronization message under ExchangeSynced, or doubled
// under ExchangeSerialized.
func (p Params) EffLambda() float64 {
	switch p.Exchange {
	case ExchangeSynced:
		return p.Lambda + p.LambdaZero
	case ExchangeSerialized:
		return 2 * p.Lambda
	default:
		return p.Lambda
	}
}

// EffDelta returns the effective distance impact per dimension: δ, doubled
// under ExchangeSynced (the sync messages traverse the same path) and
// under ExchangeSerialized (two sequential traversals).
func (p Params) EffDelta() float64 {
	switch p.Exchange {
	case ExchangeSynced, ExchangeSerialized:
		return 2 * p.Delta
	default:
		return p.Delta
	}
}

// EffTau returns the effective per-byte cost: τ, doubled under
// ExchangeSerialized (the payload crosses the wire twice as long in
// wall-clock terms because the two directions do not overlap).
func (p Params) EffTau() float64 {
	if p.Exchange == ExchangeSerialized {
		return 2 * p.Tau
	}
	return p.Tau
}

// GlobalSync returns the cost in µs of one global synchronization on a
// hypercube of dimension d. The product is rounded before a caller adds
// it (see RawMessageTime).
func (p Params) GlobalSync(d int) float64 { return float64(p.GlobalSyncPerDim * float64(d)) }

// IPSC860 returns the measured parameters of the Intel iPSC-860 from §7.4,
// configured the way the paper's implementation ran: FORCED messages,
// pairwise synchronization before every exchange, and one global
// synchronization per phase (eq. 3).
func IPSC860() Params {
	return Params{
		Lambda:             95.0,
		Tau:                0.394,
		Delta:              10.3,
		Rho:                0.54,
		LambdaZero:         82.5,
		GlobalSyncPerDim:   150,
		Exchange:           ExchangeSynced,
		GlobalSyncPerPhase: true,
		UnforcedThreshold:  100,
	}
}

// IPSC860Raw returns the iPSC-860 constants with ideal exchanges and no
// global synchronization — the raw per-message model of §7.4, useful for
// per-message timing checks and ablations.
func IPSC860Raw() Params {
	p := IPSC860()
	p.Exchange = ExchangeIdeal
	p.GlobalSyncPerPhase = false
	return p
}

// IPSC860NoSync returns the iPSC-860 configured without pairwise
// synchronization: exchanges serialize (§7.2). This is the configuration
// the paper rejects; it exists for the ablation benchmarks.
func IPSC860NoSync() Params {
	p := IPSC860()
	p.Exchange = ExchangeSerialized
	return p
}

// Ncube2 returns a synthetic parameter set for the Ncube-2, the other
// commercial circuit-switched hypercube the paper names (§1, §9: "a
// practical issue of interest is to evaluate the performance of the
// multiphase approach on the Ncube-2"). No measured constants appear in
// the paper, so these are plausible published-era values (slower links
// than the iPSC-860, lower startup): they exist to exercise the machine-
// independence of the method, not to make absolute claims. DESIGN.md
// records the substitution.
func Ncube2() Params {
	return Params{
		Lambda:             160.0, // µs startup
		Tau:                0.57,  // µs/byte (~1.75 MB/s links)
		Delta:              5.0,   // µs/dimension
		Rho:                0.80,  // µs/byte software copy
		LambdaZero:         110.0,
		GlobalSyncPerDim:   120,
		Exchange:           ExchangeSynced,
		GlobalSyncPerPhase: true,
		UnforcedThreshold:  100,
	}
}

// Hypothetical returns the hypothetical dimension-6 machine of §4.3:
// τ = ρ = 1 µs/byte, λ = 200 µs, δ = 20 µs/dim, and no synchronization
// overheads. On this machine Standard Exchange beats the Optimal
// Circuit-Switched algorithm exactly when the block size is below 30 bytes.
func Hypothetical() Params {
	return Params{Lambda: 200, Tau: 1, Delta: 20, Rho: 1}
}

// MessageTime returns the modeled time in µs for a single m-byte message
// crossing h dimensions: λ_eff + τ·m + δ_eff·h.
func (p Params) MessageTime(m, h int) float64 {
	return p.EffLambda() + float64(p.Tau*float64(m)) + float64(p.EffDelta()*float64(h))
}

// RawMessageTime is MessageTime without synchronization effects:
// λ + τ·m + δ·h. This is the latency of one wire transfer.
//
// Here and throughout the package, each product is rounded by an
// explicit float64(…) before it is added: the Go spec lets a compiler
// fuse x*y + z into one rounding, and arm64, ppc64le, s390x and riscv64
// do, so without the conversions the pinned bits would hold on amd64
// alone.
func (p Params) RawMessageTime(m, h int) float64 {
	return p.Lambda + float64(p.Tau*float64(m)) + float64(p.Delta*float64(h))
}

// ExchangeTime returns the duration of one pairwise exchange of m bytes
// between nodes h dimensions apart, from the instant both parties are
// ready, under the configured exchange mode (§7.2, §7.4):
//
//	synced:     a zero-byte sync round (λ0 + δh), then both transfers
//	            run concurrently: λ + τm + δh;
//	serialized: no synchronization — the two transfers serialize (the
//	            iPSC-860 behaviour Seidel et al. measured when the
//	            transmissions do not start simultaneously): 2(λ+τm+δh);
//	ideal:      both transfers fully concurrent: λ + τm + δh.
//
// This is the single source of the exchange arithmetic, shared by the
// discrete-event simulator and the simulated fabric's online node clocks.
func (p Params) ExchangeTime(m, h int) float64 {
	data := p.RawMessageTime(m, h)
	switch p.Exchange {
	case ExchangeSynced:
		return p.LambdaZero + float64(p.Delta*float64(h)) + data
	case ExchangeSerialized:
		return 2 * data
	default: // ExchangeIdeal
		return data
	}
}

// UnforcedMessageTime models an UNFORCED-type message (§7.1): identical to
// a FORCED message below the threshold, and preceded by a reserve/
// acknowledge zero-byte round trip above it.
func (p Params) UnforcedMessageTime(m, h int) float64 {
	t := p.RawMessageTime(m, h)
	if m > p.UnforcedThreshold {
		// Reserve and acknowledge: two zero-byte messages over the
		// same path.
		t += 2 * (p.LambdaZero + float64(p.Delta*float64(h)))
	}
	return t
}

// ShuffleTime returns the modeled time in µs to permute the full local
// buffer once: ρ bytes/µs over 2^d blocks of m bytes.
func (p Params) ShuffleTime(m, d int) float64 {
	return float64(p.Rho * float64(m) * float64(int(1)<<uint(d)))
}
