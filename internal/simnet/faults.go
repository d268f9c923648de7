package simnet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/topology"
)

// ErrLinkDown is the sentinel wrapped by a run that tried to acquire a
// circuit over a wire a FaultPlan had taken down: circuit-switched
// routes are fixed, so a plan whose schedule crosses a dead wire fails
// loudly instead of silently rerouting. (Statically dead wires of a
// topology.Degraded overlay never reach this point — fault-aware
// routing detours around them before the replay core sees a route.)
var ErrLinkDown = errors.New("simnet: circuit crosses a down link")

// LinkFault is one timed fault on an undirected wire, active for every
// circuit acquired at or after At (virtual µs):
//
//	Factor == 0:  the wire goes down — a circuit acquired at t ≥ At
//	              over it fails the run with ErrLinkDown; circuits
//	              already holding the wire complete.
//	Factor > 1:   the wire slows — transmissions over it take Factor
//	              times longer.
//
// Both directions of the wire fail or slow together.
type LinkFault struct {
	A, B   int
	At     float64
	Factor float64
}

// FaultPlan is a deterministic fault schedule honored by every
// subsequent Run: the replay outcome is a pure function of (programs,
// params, jitter seed, fault plan), so tests can prove a plan survives
// a mid-run fault or fails loudly at a pinned virtual time.
type FaultPlan struct {
	Links []LinkFault
}

// compiledFaults is the per-directed-link-slot form of a FaultPlan,
// built once at SetFaultPlan and read-only afterwards (runs may share
// it concurrently).
type compiledFaults struct {
	wires    [][2]int  // the faulted wires' end nodes, in plan order
	downAt   []float64 // +Inf when the slot never goes down
	slowFrom []float64 // +Inf when the slot never slows
	slowFact []float64
}

// SetFaultPlan installs (or, with an empty plan, clears) the timed
// fault schedule. Wires must be adjacent node pairs of the topology and
// factors must be 0 (down) or > 1 (slow); activation times must be
// ≥ 0. Timed faults compose with the static fault state of a
// topology.Degraded overlay: a wire that is statically slow and timed
// slow multiplies both factors once the timed fault activates.
func (n *Network) SetFaultPlan(fp FaultPlan) error {
	if len(fp.Links) == 0 {
		n.faults = nil
		return nil
	}
	base := n.topo
	if d, ok := base.(*topology.Degraded); ok {
		base = d.Base()
	}
	slots := base.Nodes() * base.Degree()
	cf := &compiledFaults{
		downAt:   make([]float64, slots),
		slowFrom: make([]float64, slots),
		slowFact: make([]float64, slots),
	}
	for i := 0; i < slots; i++ {
		cf.downAt[i] = math.Inf(1)
		cf.slowFrom[i] = math.Inf(1)
		cf.slowFact[i] = 1
	}
	for _, lf := range fp.Links {
		if !base.Contains(lf.A) || !base.Contains(lf.B) || base.Distance(lf.A, lf.B) != 1 {
			return fmt.Errorf("simnet: fault on %d-%d: not a wire of %s", lf.A, lf.B, base.Name())
		}
		if lf.At < 0 || math.IsNaN(lf.At) {
			return fmt.Errorf("simnet: fault on %d-%d: bad activation time %v", lf.A, lf.B, lf.At)
		}
		if lf.Factor != 0 && !(lf.Factor > 1 && lf.Factor <= 1e12) {
			return fmt.Errorf("simnet: fault on %d-%d: factor %v (want 0 = down or a finite factor > 1)",
				lf.A, lf.B, lf.Factor)
		}
		cf.wires = append(cf.wires, [2]int{lf.A, lf.B})
		for _, slot := range [2]int{base.LinkSlot(lf.A, lf.B), base.LinkSlot(lf.B, lf.A)} {
			if lf.Factor == 0 {
				if lf.At < cf.downAt[slot] {
					cf.downAt[slot] = lf.At
				}
			} else {
				// Earliest activation with the worst factor: one wire
				// rarely carries several timed slow entries.
				if lf.At < cf.slowFrom[slot] {
					cf.slowFrom[slot] = lf.At
				}
				if lf.Factor > cf.slowFact[slot] {
					cf.slowFact[slot] = lf.Factor
				}
			}
		}
	}
	n.faults = cf
	return nil
}

// slotFault returns the duration factor of one directed-link slot for a
// circuit acquired at start: the static Degraded slow factor times the
// timed factor once active, or an ErrLinkDown-wrapping error when a
// timed fault has taken the wire down.
func (st *runState) slotFault(slot int, start float64) (float64, error) {
	cf := st.net.faults
	if cf != nil && start >= cf.downAt[slot] {
		return 0, fmt.Errorf("wire of slot %d down since t=%g µs: %w", slot, cf.downAt[slot], ErrLinkDown)
	}
	f := 1.0
	if st.degr != nil {
		f = st.degr.SlowFactor(slot)
	}
	if cf != nil && start >= cf.slowFrom[slot] {
		f *= cf.slowFact[slot]
	}
	return f, nil
}
