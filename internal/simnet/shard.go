package simnet

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/event"
)

// PhaseSpan describes one phase of a sharded replay source: a leading
// barrier row followed by Rows−1 rows whose communication stays inside
// the phase's field. Nodes whose labels agree outside the field — i.e.
// that share (p / (Stride·Span), p mod Stride) — form one group; the
// multiphase schedules only ever pair nodes within a group, and on the
// base topologies a route between two group members never leaves the
// group's sub-block. That independence is what the sharded replay mode
// exploits; it is verified against the actual routed link coverage at
// replay time, never assumed (degraded-overlay detours can break it).
type PhaseSpan struct {
	// Rows is the number of op-table rows in this phase, including the
	// leading barrier row.
	Rows int
	// Stride is the node-label stride of the field's lowest dimension.
	Stride int
	// Span is the field size: the number of nodes per group.
	Span int
}

// Sharded is a Source that exposes its per-phase span structure, making
// it eligible for sharded replay (Network.SetReplayShards). The contract:
// the program length is uniform across nodes and equals the sum of Rows;
// each phase's first row is an OpBarrier for every node and no other row
// of the phase is a barrier for any node. exchange.CompiledPlan is the
// canonical implementation.
type Sharded interface {
	Source
	// PhaseSpans returns the plan's phase structure in row order. Callers
	// must not modify the returned slice.
	PhaseSpans() []PhaseSpan
}

// maxReplayShards bounds SetReplayShards: shards beyond the group count
// of a phase idle anyway, and the verifier's pairwise link-coverage
// intersection is quadratic in the shard count.
const maxReplayShards = 64

// SetReplayShards sets the number of event-engine shards RunSource may
// split a replay across (clamped to [1, 64]; ≤ 1 restores serial replay).
// Sharding engages only for sources implementing Sharded, only while
// tracing is off, and only for phases whose routed circuits provably
// occupy disjoint directed links — each phase is stamped against
// topology.LinkSlot coverage and falls back to a single shard when any
// two shards would share a link (degraded-overlay detours that cross span
// boundaries), when a communication partner lands on another shard, or
// when a FaultPlan's faulted wires are touched by more than one shard.
// Successful sharded replays are bit-identical to serial replays in every
// Result field except ReplayShards.
func (n *Network) SetReplayShards(w int) {
	if w < 1 {
		w = 1
	}
	if w > maxReplayShards {
		w = maxReplayShards
	}
	n.shards = w
}

// phaseGeom is the node→shard assignment of one phase: groups (sub-blocks
// of the phase field) are dealt round-robin onto weff shards.
type phaseGeom struct {
	stride, block, weff int
}

// owner returns the shard interpreting node p this phase.
func (g phaseGeom) owner(p int) int {
	grp := (p/g.block)*g.stride + p%g.stride
	return grp % g.weff
}

// runSharded replays a Sharded source across up to w event-engine shards.
// It reports ran = false when the source's span structure is unusable as
// a whole (the caller then runs the ordinary serial path); a phase that
// merely fails link-disjointness verification runs on a single shard
// inside the orchestrator, which is the serial dynamics for that phase.
func (n *Network) runSharded(src Sharded, w int) (Result, bool, error) {
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

	deg := n.topo.Degree()
	// faultSlots marks directed links carrying a timed fault; a phase
	// whose coverage touches them from more than one shard falls back to
	// a single shard so fault resolution stays serial-identical.
	var faultSlots []uint64
	if n.faults != nil {
		faultSlots = make([]uint64, (nodes*deg+63)/64)
		for slot := range n.faults.downAt {
			if !math.IsInf(n.faults.downAt[slot], 1) || !math.IsInf(n.faults.slowFrom[slot], 1) {
				faultSlots[slot/64] |= 1 << uint(slot%64)
			}
		}
	}

	// Set up the shard interpreters once: private engines, channels,
	// node-state arrays and link backlogs, and the first shard's hot link
	// arrays shared by all (each phase's verified link-disjointness makes
	// the shards' writes to them disjoint; the per-phase goroutine joins
	// order them across phases).
	ws := make([]*runState, w)
	for s := range ws {
		st := n.newState(src, ws[0])
		st.windowed = true
		ws[s] = st
		defer st.release()
	}

	// Cross-phase per-node carriers, identical to the serial state: a
	// node may move between shards from one phase to the next, so its
	// ready time, jitter stream and stall account travel through these.
	ready := make([]float64, nodes)
	stall := make([]float64, nodes)
	var rngs []uint64
	if n.jitterFrac != 0 {
		rngs = seedJitterStreams(n.jitterSeed, nodes)
	}

	res := Result{NodeFinish: make([]float64, nodes), ReplayShards: 1}
	rowLo := 0
	for pi, sp := range spans {
		winLo, winHi := rowLo+1, rowLo+sp.Rows
		rowLo = winHi

		// The global barrier this phase opens with: everyone waits for
		// the slowest arrival, then pays the global sync cost together —
		// exactly enterBarrier's release rule, applied across shards.
		maxT := 0.0
		for _, t := range ready {
			if t > maxT {
				maxT = t
			}
		}
		release := maxT + n.params.GlobalSync(n.topo.Diameter())
		res.Barriers++

		geom := phaseGeom{stride: sp.Stride, block: sp.Stride * sp.Span, weff: min(w, nodes/sp.Span)}
		if geom.weff > 1 && !n.verifyPhase(src, geom, winLo, winHi, nodes, deg, faultSlots) {
			geom.weff = 1
		}
		if geom.weff > res.ReplayShards {
			res.ReplayShards = geom.weff
		}

		// A link may change shards between phases, and its backlog lives
		// with the shard that built it. Every hold placed so far finished
		// by some node's ready time, hence by the release, so the backlogs
		// hold nothing a later hold could still count: drop them.
		stale := false
		for _, st := range ws {
			stale = stale || len(st.backlogs) > 0
			st.backlogs = st.backlogs[:0]
		}
		if stale {
			clear(ws[0].backlogOf)
		}

		// Copy the carriers in and seed every node's first step event at
		// the release time, in node order: within each shard the engine
		// then breaks release-time ties by node id, exactly as the serial
		// barrier's sorted release does.
		windowOps := uint64(winHi-winLo) * uint64(nodes)
		for p := 0; p < nodes; p++ {
			st := ws[geom.owner(p)]
			st.pc[p] = int32(winLo)
			st.lens[p] = int32(winHi)
			st.ready[p] = release
			st.done[p] = false
			st.stall[p] = stall[p]
			if rngs != nil {
				st.rngs[p] = rngs[p]
			}
			st.eng.PostArg(event.Time(release), st.stepH, p)
		}

		budget := n.budget
		if budget == 0 {
			budget = DefaultEventBudget
			if structural := 2*windowOps + 4*uint64(nodes); structural > budget {
				budget = structural
			}
		}
		drained := make([]bool, geom.weff)
		if geom.weff == 1 {
			drained[0] = ws[0].eng.RunLimit(budget)
		} else {
			var wg sync.WaitGroup
			for s := 0; s < geom.weff; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					drained[s] = ws[s].eng.RunLimit(budget)
				}(s)
			}
			wg.Wait()
		}
		for s := 0; s < geom.weff; s++ {
			if err := ws[s].failed; err != nil {
				return res, true, err
			}
			if !drained[s] {
				return res, true, fmt.Errorf(
					"simnet: event budget (%d) exhausted in replay shard %d of phase %d (livelock?)",
					budget, s, pi)
			}
		}
		for p := 0; p < nodes; p++ {
			st := ws[geom.owner(p)]
			if !st.done[p] {
				return res, true, fmt.Errorf("simnet: node %d blocked at op %d (%s): deadlock",
					p, st.pc[p], st.opName(p))
			}
			ready[p] = st.ready[p]
			stall[p] = st.stall[p]
			if rngs != nil {
				rngs[p] = st.rngs[p]
			}
		}
	}

	for p := 0; p < nodes; p++ {
		res.NodeFinish[p] = ready[p]
		if ready[p] > res.Makespan {
			res.Makespan = ready[p]
		}
		res.ContentionStall += stall[p]
	}
	for s := range ws {
		res.Messages += ws[s].res.Messages
		res.BytesMoved += ws[s].res.BytesMoved
		res.DroppedForced += ws[s].res.DroppedForced
		res.MaxEdgeQueue = max(res.MaxEdgeQueue, int(ws[s].maxQueue))
	}
	return res, true, nil
}

// verifyPhase proves that this phase's routed circuits are confined to
// their shards: every communication op's partner lives on the same shard,
// and the directed links the circuits occupy — stamped from the actual
// routes, detours included — are disjoint across shards. It also demands
// that at most one shard touches a faulted wire, so a FaultPlan resolves
// exactly as it would serially. Any violation reports false and the phase
// runs on a single shard.
func (n *Network) verifyPhase(src Source, geom phaseGeom, winLo, winHi, nodes, deg int, faultSlots []uint64) bool {
	words := (nodes*deg + 63) / 64
	cover := make([][]uint64, geom.weff)
	touchesFault := make([]bool, geom.weff)
	ok := make([]bool, geom.weff)
	var wg sync.WaitGroup
	for s := 0; s < geom.weff; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cov := make([]uint64, words)
			cover[s] = cov
			var slots []int
			fault := false
			for p := 0; p < nodes; p++ {
				if geom.owner(p) != s {
					continue
				}
				for r := winLo; r < winHi; r++ {
					op := src.Op(p, r)
					switch op.Kind {
					case OpCompute, OpShuffle:
						continue
					case OpExchange, OpSend, OpPostRecv, OpWaitRecv, OpRecv:
						q := op.Peer
						if q == p {
							continue
						}
						if q < 0 || q >= nodes || geom.owner(q) != s {
							return // cross-shard partner (or malformed op: let serial dynamics report it)
						}
						if op.Kind == OpExchange || op.Kind == OpSend {
							slots = n.topo.AppendRouteSlots(slots[:0], p, q)
							for _, slot := range slots {
								cov[slot/64] |= 1 << uint(slot%64)
								if faultSlots != nil && faultSlots[slot/64]&(1<<uint(slot%64)) != 0 {
									fault = true
								}
							}
						}
					default:
						return // a barrier (or unknown op) inside the window
					}
				}
			}
			touchesFault[s] = fault
			ok[s] = true
		}(s)
	}
	wg.Wait()
	faulted := 0
	for s := 0; s < geom.weff; s++ {
		if !ok[s] {
			return false
		}
		if touchesFault[s] {
			faulted++
		}
	}
	if faulted > 1 {
		return false
	}
	for a := 0; a < geom.weff; a++ {
		for b := a + 1; b < geom.weff; b++ {
			ca, cb := cover[a], cover[b]
			for i := range ca {
				if ca[i]&cb[i] != 0 {
					return false
				}
			}
		}
	}
	return true
}
