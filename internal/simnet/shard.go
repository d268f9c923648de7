package simnet

import (
	"math"

	"repro/internal/topology"
)

// PhaseSpan describes one phase of a Phased source: a leading barrier
// row followed by Rows−1 rows whose communication stays inside the
// phase's field. Nodes whose labels agree outside the field — i.e. that
// share (p / (Stride·Span), p mod Stride) — form one group; the
// multiphase schedules only ever pair nodes within a group. Nothing the
// replay does rests on that description: what a phase's circuits
// actually occupy is proved from the routed links, once per (topology,
// span), by the phase certificate.
type PhaseSpan struct {
	// Rows is the number of op-table rows in this phase, including the
	// leading barrier row.
	Rows int
	// Stride is the node-label stride of the field's lowest dimension.
	Stride int
	// Span is the field size: the number of nodes per group.
	Span int
	// Shape names the phase's op pattern so its certificate can be shared:
	// two spans with equal Rows, Stride, Span and a non-empty Shape, of any
	// sources over one topology, must give every (node, row) the same op
	// kind and partner — only byte counts may differ. A source that makes
	// no such promise leaves Shape empty and has its phases certified
	// afresh on every replay.
	//
	// ShapeCyclic promises more: node p, with digit f = (p/Stride) mod Span
	// in the field, runs Span−1 OpPostRecv rows, row j posting the receive
	// from field f−j; then Span−1 pairs of rows, pair j a FORCED OpSend to
	// field f+j and an OpWaitRecv from field f−j (mod Span, the other
	// digits kept); then at most one OpShuffle row. The replay checks the
	// promise once per (topology, span), with the phase certificate, and
	// runs a window that keeps it on a dedicated interpreter; a window that
	// breaks it runs on the generic engine.
	Shape string
}

// ShapeCyclic is the PhaseSpan.Shape of a cyclic-shift phase, the one
// exchange.CompiledPlan gives every phase it does not combine by XOR.
const ShapeCyclic = "cyclic"

// Phased is a Source that exposes its per-phase structure, which lets a
// replay treat each phase on its own: price it in closed form when its
// certificate proves it runs in lockstep, run it on the event engine
// otherwise. The contract: the program length is uniform across nodes and
// equals the sum of Rows; each phase's first row is an OpBarrier for every
// node and no other row of the phase is a barrier for any node.
// exchange.CompiledPlan is the canonical implementation.
type Phased interface {
	Source
	// PhaseSpans returns the plan's phase structure in row order. Callers
	// must not modify the returned slice.
	PhaseSpans() []PhaseSpan
	// UniformRow returns the op kind and byte count row i has on every
	// node, or ok = false when nodes differ on either. Op(p, i) must agree
	// with it for every p. The certificate pass checks that it does,
	// node by node, unless the source is a RowPeers, whose promise covers
	// it; a replay then reads a certified row once instead of once per
	// node.
	UniformRow(i int) (kind OpKind, bytes int, ok bool)
}

// SetReplayShards does nothing: every replay runs on one engine.
//
// Deprecated: kept only for callers that still name it, until they are
// rewritten; Result.ReplayShards is always 1.
func (n *Network) SetReplayShards(int) {}

// nodeDependent names what, if anything, makes transmission durations
// differ from node to node on this network whatever the routes are; a
// lockstep certificate says nothing about such a run.
func (n *Network) nodeDependent() string {
	if n.jitterFrac != 0 {
		return declineJitter
	}
	if dg, ok := n.topo.(*topology.Degraded); ok && dg.HasSlowLinks() {
		return declineSlowLink
	}
	return ""
}

// runPhases replays a Phased source phase by phase: the global barrier
// each phase opens with is applied here, each node's ready time crosses
// from one phase to the next, and each phase's rows are either priced in
// closed form — its certificate proves the engine would finish every node
// of every row at one instant — or run on the event engine, on the cyclic
// interpreter when the certificate says the window keeps the cyclic
// promise. It reports ran = false when the source's span structure is
// unusable as a whole (the caller then runs the monolithic loop). A
// barrier release or a closed-form phase end past cutoff abandons the run
// with ErrCutoff, as a node clock past it abandons an engine window.
func (n *Network) runPhases(src Phased, cutoff float64) (Result, bool, error) {
	nodes := n.topo.Nodes()
	spans := src.PhaseSpans()
	if len(spans) == 0 {
		return Result{}, false, nil
	}
	rows := src.NumOps(0)
	total := 0
	for _, sp := range spans {
		if sp.Rows < 1 || sp.Span < 1 || sp.Stride < 1 {
			return Result{}, false, nil
		}
		block := sp.Stride * sp.Span
		if block > nodes || nodes%block != 0 {
			return Result{}, false, nil
		}
		total += sp.Rows
	}
	if total != rows {
		return Result{}, false, nil
	}
	for p := 0; p < nodes; p++ {
		if src.NumOps(p) != rows {
			return Result{}, false, nil
		}
	}
	// Window framing prescan on node 0 (rows are uniform in kind for
	// compiled plans): each phase opens with exactly one barrier row.
	row := 0
	for _, sp := range spans {
		if src.Op(0, row).Kind != OpBarrier {
			return Result{}, false, nil
		}
		for r := row + 1; r < row+sp.Rows; r++ {
			if src.Op(0, r).Kind == OpBarrier {
				return Result{}, false, nil
			}
		}
		row += sp.Rows
	}

	engineOnly := n.nodeDependent()

	// ready carries every node's available time from phase to phase and
	// ends as its finish time. The engine's state — and with it the
	// per-node stall accounts and jitter streams only the engine touches —
	// is set up by the first phase that needs it, and kept to the end.
	res := Result{NodeFinish: make([]float64, nodes), ReplayShards: 1}
	ready := res.NodeFinish
	var st *runState
	defer func() {
		if st != nil {
			st.release()
		}
	}()

	rowLo := 0
	for _, sp := range spans {
		winLo, winHi := rowLo+1, rowLo+sp.Rows
		rowLo = winHi

		// The global barrier this phase opens with: everyone waits for
		// the slowest arrival, then pays the global sync cost together —
		// exactly enterBarrier's release rule.
		release := latest(ready) + float64(n.params.GlobalSync(n.topo.Diameter())) // float64(…) forbids a fused multiply-add; see jitter
		if release > cutoff {
			return res, true, ErrCutoff
		}
		res.Barriers++

		reason := engineOnly
		var cert *phaseCert
		if reason == "" || sp.Shape == ShapeCyclic {
			var computed bool
			if cert, computed = n.certificate(src, sp, winLo); computed {
				res.Certificates++
			}
			if reason == "" {
				reason = cert.decline
			}
		}
		if reason == "" {
			if t, msgs, moved, ok := n.closedForm(src, cert, winLo, winHi, release); ok {
				if t > cutoff {
					return res, true, ErrCutoff
				}
				for p := range ready {
					ready[p] = t
				}
				res.Messages += msgs
				res.BytesMoved += moved
				if msgs > 0 && n.countQueue { // circuits held links, each alone on its own
					res.MaxEdgeQueue = max(res.MaxEdgeQueue, 1)
				}
				res.ClosedFormPhases++
				continue
			}
			reason = declineDuration // the engine reports it in its own words
		}
		res.EnginePhases++
		if res.DeclineReason == "" {
			res.DeclineReason = reason
		}
		if st == nil {
			st = n.newState(src, cutoff)
			st.windowed = true
		}
		if err := st.runWindow(src, sp, cert, winLo, winHi, release, ready); err != nil {
			return res, true, err
		}
	}

	res.Makespan = latest(ready)
	if st != nil {
		res.ContentionStall = st.stallTotal()
		res.Messages += st.res.Messages
		res.BytesMoved += st.res.BytesMoved
		res.DroppedForced += st.res.DroppedForced
		res.MaxEdgeQueue = max(res.MaxEdgeQueue, st.edgeQueue())
	}
	return res, true, nil
}

// latest returns the largest of ts, 0 for none.
func latest(ts []float64) float64 {
	m := 0.0
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// closedForm prices a certified phase by the float additions the engine
// would have applied to every node, in row order: the exchange time of
// each row's one (bytes, hops), ρ·bytes for a shuffle. ok is false when a
// duration is one the engine refuses to turn into a timestamp.
func (n *Network) closedForm(src Phased, cert *phaseCert, winLo, winHi int, release float64) (t float64, msgs, moved int, ok bool) {
	nodes := n.topo.Nodes()
	t = release
	for r := winLo; r < winHi; r++ {
		switch kind, bytes, _ := src.UniformRow(r); kind {
		case OpExchange:
			finish := t + n.params.ExchangeTime(bytes, int(cert.hops[r-winLo]))
			if !(finish >= t && finish <= math.MaxFloat64) {
				return 0, 0, 0, false
			}
			t = finish
			msgs += nodes // nodes/2 pairs, two transmissions each
			moved += nodes * bytes
		case OpShuffle:
			t += float64(n.params.Rho * float64(bytes)) // float64(…) forbids a fused multiply-add; see jitter
		}
	}
	return t, msgs, moved, true
}

// runWindow runs rows [winLo, winHi) of every node on the engine, from the
// barrier release time, and writes the nodes' finish times back to ready.
// A window whose certificate says it keeps the cyclic promise starts every
// node at its first send, on the cyclic interpreter.
func (st *runState) runWindow(src Phased, sp PhaseSpan, cert *phaseCert, winLo, winHi int, release float64, ready []float64) error {
	start := winLo
	st.cyc.end = 0
	if cert != nil && cert.cyclic && st.openCyclic(src, sp, winLo) {
		start = int(st.cyc.first)
	}
	// Every hold placed so far finished by some node's ready time, hence
	// by the release, so the backlogs hold nothing a later hold could
	// still count: drop them.
	if st.counting {
		st.acct.drop()
	}
	for p := range ready {
		st.seed(p, start, winHi, release)
	}
	if err := st.drain(uint64(winHi-winLo) * uint64(len(ready))); err != nil {
		return err
	}
	copy(ready, st.ready)
	return nil
}
