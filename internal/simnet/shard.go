package simnet

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/event"
	"repro/internal/topology"
)

// PhaseSpan describes one phase of a Sharded source: a leading barrier
// row followed by Rows−1 rows whose communication stays inside the
// phase's field. Nodes whose labels agree outside the field — i.e. that
// share (p / (Stride·Span), p mod Stride) — form one group; the
// multiphase schedules only ever pair nodes within a group, and on the
// base topologies a route between two group members never leaves the
// group's sub-block. Nothing the replay does rests on that description:
// what a phase's circuits actually occupy is proved from the routed
// links, once per (topology, span), by the phase certificate.
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

// Sharded is a Source that exposes its per-phase structure, which lets a
// replay treat each phase on its own: price it in closed form when its
// certificate proves it runs in lockstep, run it on the event engine
// otherwise — across several shards when SetReplayShards asks for them
// and the certificate proves the phase's groups link-disjoint. The
// contract: the program length is uniform across nodes and equals the sum
// of Rows; each phase's first row is an OpBarrier for every node and no
// other row of the phase is a barrier for any node. exchange.CompiledPlan
// is the canonical implementation.
type Sharded interface {
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

// maxReplayShards bounds SetReplayShards: shards beyond the group count
// of a phase idle anyway.
const maxReplayShards = 64

// SetReplayShards sets the number of event-engine shards RunSource may
// split an engine-run phase across (clamped to [1, 64]; ≤ 1 keeps every
// phase on one engine). Sharding engages only for sources implementing
// Sharded, only while tracing is off, and only for phases whose
// certificate proves that the routed circuits of different groups occupy
// disjoint directed links; a phase falls back to a single shard when a
// detour crosses groups or when a communication partner lies outside its
// node's group. Sharded replays are bit-identical to serial ones in every
// Result field except ReplayShards.
func (n *Network) SetReplayShards(w int) {
	n.shards = min(max(w, 1), maxReplayShards)
}

// phaseGeom is the node→shard assignment of one phase: groups (sub-blocks
// of the phase field) are dealt round-robin onto weff shards.
type phaseGeom struct {
	stride, block, weff int
}

func (g phaseGeom) group(p int) int { return (p/g.block)*g.stride + p%g.stride }

// owner returns the shard interpreting node p this phase.
func (g phaseGeom) owner(p int) int { return g.group(p) % g.weff }

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

// runPhases replays a Sharded source phase by phase: the global barrier
// each phase opens with is applied here, per-node carriers cross from one
// phase to the next, and each phase's rows are either priced in closed
// form — its certificate proves the engine would finish every node of
// every row at one instant — or run on the event engine, on as many
// shards as SetReplayShards allows and the certificate proves
// independent, and on the cyclic interpreter when the certificate says
// the window keeps the cyclic promise. It reports ran = false when the source's span structure is
// unusable as a whole (the caller then runs the monolithic loop). A
// barrier release or a closed-form phase end past cutoff abandons the run
// with ErrCutoff, as a node clock past it abandons an engine window.
func (n *Network) runPhases(src Sharded, cutoff float64) (Result, bool, error) {
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

	w := max(n.shards, 1)
	engineOnly := n.nodeDependent()

	// ready carries every node's available time from phase to phase (a
	// node may move between shards) and ends as its finish time. The
	// engine's states, and the stall and jitter-stream carriers only they
	// touch, are set up by the first phase that needs them.
	res := Result{NodeFinish: make([]float64, nodes), ReplayShards: 1}
	ready := res.NodeFinish
	var eng shardEngines
	defer eng.release()

	rowLo := 0
	for pi, sp := range spans {
		winLo, winHi := rowLo+1, rowLo+sp.Rows
		rowLo = winHi

		// The global barrier this phase opens with: everyone waits for
		// the slowest arrival, then pays the global sync cost together —
		// exactly enterBarrier's release rule.
		maxT := 0.0
		for _, t := range ready {
			if t > maxT {
				maxT = t
			}
		}
		release := maxT + n.params.GlobalSync(n.topo.Diameter())
		if release > cutoff {
			return res, true, ErrCutoff
		}
		res.Barriers++

		geom := phaseGeom{stride: sp.Stride, block: sp.Stride * sp.Span, weff: min(w, nodes/sp.Span)}
		reason := engineOnly
		var cert *phaseCert
		if reason == "" || geom.weff > 1 || sp.Shape == ShapeCyclic {
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
				if msgs > 0 { // circuits held links, each alone on its own
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
		if geom.weff > 1 && !cert.groupsDisjoint {
			geom.weff = 1
		}
		res.ReplayShards = max(res.ReplayShards, geom.weff)
		if err := eng.runWindow(n, src, geom, sp, cert, pi, winLo, winHi, release, cutoff, ready); err != nil {
			return res, true, err
		}
	}

	for _, t := range ready {
		if t > res.Makespan {
			res.Makespan = t
		}
	}
	for _, s := range eng.stall {
		res.ContentionStall += s
	}
	for _, st := range eng.ws {
		res.Messages += st.res.Messages
		res.BytesMoved += st.res.BytesMoved
		res.DroppedForced += st.res.DroppedForced
		res.MaxEdgeQueue = max(res.MaxEdgeQueue, int(st.maxQueue))
	}
	return res, true, nil
}

// closedForm prices a certified phase by the float additions the engine
// would have applied to every node, in row order: the exchange time of
// each row's one (bytes, hops), ρ·bytes for a shuffle. ok is false when a
// duration is one the engine refuses to turn into a timestamp.
func (n *Network) closedForm(src Sharded, cert *phaseCert, winLo, winHi int, release float64) (t float64, msgs, moved int, ok bool) {
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
			t += n.params.Rho * float64(bytes)
		}
	}
	return t, msgs, moved, true
}

// shardEngines is what the engine-run phases of one replay share and the
// closed-form ones never need: the shard interpreters — private engines,
// channels, node-state arrays and link backlogs, and the first shard's
// hot link arrays shared by all (a phase's certified link-disjointness
// makes the shards' writes to them disjoint; the per-phase goroutine
// joins order them across phases) — and the per-node stall accounts and
// jitter streams that travel with a node from shard to shard.
type shardEngines struct {
	ws    []*runState
	stall []float64
	rngs  []uint64
}

func (e *shardEngines) release() {
	for _, st := range e.ws {
		st.release()
	}
}

// runWindow runs rows [winLo, winHi) of every node on geom.weff shards,
// from the barrier release time, and writes the nodes' finish times back
// to ready. A window whose certificate says it keeps the cyclic promise
// starts every node at its first send, on the cyclic interpreter.
func (e *shardEngines) runWindow(n *Network, src Sharded, geom phaseGeom, sp PhaseSpan, cert *phaseCert, pi, winLo, winHi int, release, cutoff float64, ready []float64) error {
	nodes := len(ready)
	if e.ws == nil {
		e.stall = make([]float64, nodes)
		if n.jitterFrac != 0 {
			e.rngs = seedJitterStreams(n.jitterSeed, nodes)
		}
	}
	for len(e.ws) < geom.weff {
		var owner *runState
		if len(e.ws) > 0 {
			owner = e.ws[0]
		}
		st := n.newState(src, owner, cutoff)
		st.windowed = true
		e.ws = append(e.ws, st)
	}
	ws := e.ws[:geom.weff]
	start := winLo
	cyclic := cert != nil && cert.cyclic && ws[0].openCyclic(src, sp, winLo)
	if cyclic {
		start = int(ws[0].cyc.first)
	}
	for _, st := range ws {
		st.siblings = ws
		if !cyclic {
			st.cyc.end = 0
		} else if st != ws[0] {
			// One inbox for all shards: a message stays in its group, so
			// each shard writes the entries of its own nodes only.
			st.cyc = ws[0].cyc
		}
	}

	// A link may change shards between phases, and its backlog lives
	// with the shard that built it. Every hold placed so far finished
	// by some node's ready time, hence by the release, so the backlogs
	// hold nothing a later hold could still count: drop them.
	stale := false
	for _, st := range e.ws {
		stale = stale || len(st.backlogs) > 0
		st.backlogs = st.backlogs[:0]
	}
	if stale {
		clear(e.ws[0].backlogOf)
	}

	// Copy the carriers in and seed every node's first step event at
	// the release time, in node order: within each shard the engine
	// then breaks release-time ties by node id, exactly as the serial
	// barrier's sorted release does.
	for p := 0; p < nodes; p++ {
		st := ws[geom.owner(p)]
		st.pc[p] = int32(start)
		st.lens[p] = int32(winHi)
		st.ready[p] = release
		st.done[p] = false
		st.stall[p] = e.stall[p]
		if e.rngs != nil {
			st.rngs[p] = e.rngs[p]
		}
		st.eng.PostArg(event.Time(release), st.stepH, p)
	}

	budget := n.budget
	if budget == 0 {
		budget = DefaultEventBudget
		windowOps := uint64(winHi-winLo) * uint64(nodes)
		if structural := 2*windowOps + 4*uint64(nodes); structural > budget {
			budget = structural
		}
	}
	drained := make([]bool, len(ws))
	if len(ws) == 1 {
		drained[0] = ws[0].eng.RunLimit(budget)
	} else {
		var wg sync.WaitGroup
		for s := range ws {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				drained[s] = ws[s].eng.RunLimit(budget)
			}(s)
		}
		wg.Wait()
	}
	// A failure first: the shards a tripped one stopped did not drain.
	for _, st := range ws {
		if st.failed != nil {
			return st.failed
		}
	}
	for s := range ws {
		if !drained[s] {
			return fmt.Errorf(
				"simnet: event budget (%d) exhausted in replay shard %d of phase %d (livelock?)",
				budget, s, pi)
		}
	}
	for p := 0; p < nodes; p++ {
		st := ws[geom.owner(p)]
		if !st.done[p] {
			return fmt.Errorf("simnet: node %d blocked at op %d (%s): deadlock",
				p, st.pc[p], st.opName(p))
		}
		ready[p] = st.ready[p]
		e.stall[p] = st.stall[p]
		if e.rngs != nil {
			e.rngs[p] = st.rngs[p]
		}
	}
	return nil
}
