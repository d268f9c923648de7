package simnet

import (
	"math"
	"slices"

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
// replay choose how to run each of its epochs: price it in closed form
// when its certificate proves it runs in lockstep, run it on the event
// engine otherwise. The contract: the program length is uniform across
// nodes and equals the sum of Rows; each phase's first row is an
// OpBarrier for every node and no other row of the phase is a barrier for
// any node. exchange.CompiledPlan is the canonical implementation.
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

// declined names what, if anything, rules out the closed form for every
// epoch of a replay on this network, whatever the routes are: a traced
// run needs the engine's events, which also rules out the cyclic
// interpreter; jitter and slow wires make transmission durations differ
// from node to node, and a lockstep certificate says nothing about those.
func (n *Network) declined() string {
	if n.trace {
		return declineTrace
	}
	if n.jitterFrac != 0 {
		return declineJitter
	}
	if dg, ok := n.topo.(*topology.Degraded); ok && dg.HasSlowLinks() {
		return declineSlowLink
	}
	return ""
}

// runSource replays src epoch by epoch. An epoch is what the nodes run
// between two global barriers (§7.3), before the first or after the last:
// every node interprets its rows from its program counter until it stops
// at its next OpBarrier row or finishes its program. No node's clock in
// one epoch depends on another epoch but through the barrier between
// them, so each epoch is a run of its own, and the barrier is applied
// here: once every node waits at one, all leave it together at the
// slowest arrival plus the global sync cost, in node order. A node that
// finishes, or blocks, while others wait at a barrier deadlocks the run.
//
// An epoch runs on the event engine unless src is a Phased source whose
// spans frame its rows (phaseSpans): then every epoch but the empty first
// is one span's, and runSpan prices it in closed form, on the cyclic
// interpreter or on the engine, as its certificate allows. Every way
// gives the engine's result, bit for bit.
func (n *Network) runSource(src Source, cutoff float64) (Result, error) {
	if cutoff < 0 {
		return Result{}, ErrCutoff // no makespan is negative
	}
	st := n.newState(src, cutoff)
	defer st.release()
	ph, spans := phaseSpans(src, st.n)
	if spans == nil {
		// Every node begins interpreting its program at time 0.
		st.engage()
		for p := range st.n {
			st.eng.PostArg(0, st.stepH, p)
		}
	} else {
		st.waiting = st.n // row 0 is every node's first barrier
	}
	rowLo := 0 // the barrier row that opens span e
	for e := 0; ; e++ {
		if err := st.drain(); err != nil {
			return st.res, err
		}
		if st.finished == st.n {
			break
		}
		release := latest(st.ready) + float64(n.params.GlobalSync(st.syncD)) // float64(…) forbids a fused multiply-add; see jitter
		if release > cutoff {
			return st.res, ErrCutoff
		}
		st.res.Barriers++
		st.waiting, st.cyc.end = 0, 0
		if spans == nil {
			st.leave(release, -1)
			continue
		}
		// The spans frame the rows, so every node waits at the barrier
		// that opens span e.
		if err := st.runSpan(ph, spans[e], rowLo+1, release); err != nil {
			return st.res, err
		}
		rowLo += spans[e].Rows
	}
	st.res.NodeFinish = slices.Clone(st.ready)
	st.res.Makespan = latest(st.ready)
	if st.engaged {
		// The per-node stall accounts add up in node order: the same
		// floats in the same sequence whatever order the events ran in.
		for _, s := range st.stall {
			st.res.ContentionStall += s
		}
		if st.counting && st.held {
			st.res.MaxEdgeQueue = max(st.res.MaxEdgeQueue, int(st.acct.max))
		}
	}
	return st.res, nil
}

// phaseSpans returns src's span table when src is a Phased source whose
// spans frame its rows as the Phased contract says: every node has as
// many rows as the spans' Rows add up to, every span's field divides the
// machine, and every span opens with a barrier row on every node and has
// no other barrier row on any node. A row that UniformRow reports uniform
// is checked once; any other row, node by node. It returns nil otherwise:
// a table that does not frame the rows prices no epoch.
func phaseSpans(src Source, nodes int) (Phased, []PhaseSpan) {
	ph, ok := src.(Phased)
	if !ok {
		return nil, nil
	}
	spans := ph.PhaseSpans()
	if len(spans) == 0 {
		return nil, nil
	}
	rows := 0
	for _, sp := range spans {
		if sp.Rows < 1 || sp.Span < 1 || sp.Stride < 1 {
			return nil, nil
		}
		block := sp.Stride * sp.Span
		if block > nodes || nodes%block != 0 {
			return nil, nil
		}
		rows += sp.Rows
	}
	for p := range nodes {
		if src.NumOps(p) != rows {
			return nil, nil
		}
	}
	row := 0
	for _, sp := range spans {
		if barriers(ph, row, nodes) != nodes {
			return nil, nil
		}
		for r := row + 1; r < row+sp.Rows; r++ {
			if barriers(ph, r, nodes) != 0 {
				return nil, nil
			}
		}
		row += sp.Rows
	}
	return ph, spans
}

// barriers returns the number of nodes whose row r is a barrier.
func barriers(src Phased, r, nodes int) int {
	if kind, _, ok := src.UniformRow(r); ok {
		if kind == OpBarrier {
			return nodes
		}
		return 0
	}
	on := 0
	for p := range nodes {
		if src.Op(p, r).Kind == OpBarrier {
			on++
		}
	}
	return on
}

// leave releases every node from the barrier it waits at, at time t and
// in node order. The engine breaks the ties of equal times by insertion
// order, so the node id fixes it, whatever order the nodes arrived in: a
// phase's contention resolution does not depend on the arrival history of
// earlier phases, and a phase replayed on its own evolves as it does
// inside a longer plan, up to float tie-breaking (exactly tied link
// acquisitions compare absolute times, so another start offset can still
// flip a tie; the optimizer's fragment costing documents this).
//
// Each node resumes at the row after its barrier, or at row from when
// from ≥ 0: a closed-form epoch moves no program counter. A traced run
// records every node's barrier interval here, from its arrival to t.
func (st *runState) leave(t float64, from int) {
	st.engage()
	// Every hold placed so far finished by some node's ready time, hence
	// by t, so the backlogs hold nothing a later hold could still count:
	// drop them.
	if st.counting {
		st.acct.drop()
	}
	for p := range st.n {
		st.advance(p, t)
		if from >= 0 {
			st.pc[p] = int32(from)
		}
	}
}

// runSpan runs the epoch that span sp opens — rows [winLo, winLo+sp.Rows−1)
// of every node, from the barrier release — in closed form when its
// certificate proves the phase runs in lockstep, and otherwise readies it
// for the engine, on the cyclic interpreter when the certificate says the
// window keeps the cyclic promise. A closed-form phase end past the cutoff
// abandons the run with ErrCutoff, as a node clock past it does.
func (st *runState) runSpan(src Phased, sp PhaseSpan, winLo int, release float64) error {
	n := st.net
	winHi := winLo + sp.Rows - 1
	reason := n.declined()
	var cert *phaseCert
	if reason == "" || sp.Shape == ShapeCyclic && reason != declineTrace {
		var computed bool
		if cert, computed = n.certificate(src, sp, winLo); computed {
			st.res.Certificates++
		}
		if reason == "" {
			reason = cert.decline
		}
	}
	if reason == "" {
		if t, msgs, moved, ok := n.closedForm(src, cert, winLo, winHi, release); ok {
			if t > st.cutoff {
				return ErrCutoff
			}
			// Every node finishes the phase at t: at the barrier row that
			// opens the next one, or at the end of its program.
			for p := range st.ready {
				st.ready[p] = t
			}
			if winHi < src.NumOps(0) {
				st.waiting = st.n
			} else {
				st.finished = st.n
			}
			st.res.Messages += msgs
			st.res.BytesMoved += moved
			if msgs > 0 && n.countQueue {
				st.res.MaxEdgeQueue = 1 // circuits held links, each alone on its own
			}
			st.res.ClosedFormPhases++
			return nil
		}
		reason = declineDuration // the engine reports it in its own words
	}
	st.res.EnginePhases++
	if st.res.DeclineReason == "" {
		st.res.DeclineReason = reason
	}
	from := winLo
	if cert != nil && cert.cyclic && st.openCyclic(src, sp, winLo) {
		from = int(st.cyc.first)
	}
	st.leave(release, from)
	return nil
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
