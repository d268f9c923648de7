package exchange

import (
	"fmt"
	"slices"

	"repro/internal/bitutil"
	"repro/internal/simnet"
)

// CompiledPlan is the trace-compiled form of a Plan: the exact per-node
// simnet programs a live fabric.Sim run of Plan.Execute would record,
// derived deterministically from the phase layout — no goroutines, no
// mailboxes, no payload bytes. Because every node runs the same op
// sequence up to relabeling of partners (XOR on radix-2 fields, cyclic
// shift on mixed-radix ones), the compiled form stores one shared op
// table and computes each node's partner on the fly, so even a
// million-node plan costs O(ops per node) memory instead of O(n · ops).
//
// CompiledPlan implements simnet.Source, simnet.Phased and
// simnet.RowPeers; fabric.Sim's recorded traces are the oracle the
// compiler is tested against (op-for-op equality).
type CompiledPlan struct {
	m     int
	n     int
	topo  string
	rows  []compiledOp
	spans []simnet.PhaseSpan
}

// compiledOp is one row of the shared op table. For bit-aligned XOR
// exchange rows, node p's partner is p XOR mask (mask = j·2^lo never
// being zero, a compiled exchange is never a self-exchange). All other
// communication rows locate the partner through the phase's digit field:
// f = (p/stride) mod span, shifted by ±shift (XOR'd for non-bit-aligned
// radix-2 fields). When a cyclic phase's stride and span are both powers
// of two the field is a bit range of p, and the divide and the modulos
// become a shift and masks.
type compiledOp struct {
	kind   simnet.OpKind
	mask   int // fast path: peer = p ^ mask (OpExchange, mask > 0)
	shift  int // field shift j; receive rows use −j
	stride int
	span   int
	xor    bool // field combines by XOR instead of cyclic shift
	bytes  int
	// Cyclic rows over a bit-range field: f = p>>fieldLo & fieldMask
	// (fieldMask = span−1; 0 means "not a bit range").
	fieldLo, fieldMask int
}

// Compile lowers the plan to its per-node simnet programs, mirroring
// Execute exactly: for each phase a barrier (the posting of FORCED
// receives, §7.3), then the phase's steps, and — except when the phase
// spans the whole machine — the ρ·m·n shuffle charge. XOR phases run
// Span−1 pairwise exchanges of one effective block each; cyclic phases
// post their Span−1 receives up front and run Span−1 send/wait pairs.
func (p *Plan) Compile() *CompiledPlan {
	c := &CompiledPlan{m: p.m, n: p.Nodes(), topo: p.topo.Name()}
	for _, ph := range p.phases {
		lo := len(c.rows)
		c.rows = appendPhaseRows(c.rows, ph, p.m*c.n)
		c.spans = append(c.spans, phaseSpan(ph, len(c.rows)-lo))
	}
	return c
}

// phaseSpan is the span of a phase compiled to rows op-table rows. Its
// Shape keeps simnet's promise: appendPhaseRows derives every row's kind
// and partner rule from (XOR, Stride, Span) and the row count alone. A
// cyclic phase's rows are laid out exactly as simnet.ShapeCyclic
// describes, so its replay runs on simnet's cyclic interpreter.
func phaseSpan(ph Phase, rows int) simnet.PhaseSpan {
	shape := simnet.ShapeCyclic
	if ph.XOR {
		shape = "xor"
	}
	return simnet.PhaseSpan{Rows: rows, Stride: ph.Stride, Span: ph.Span, Shape: shape}
}

// CompilePhase lowers phase i alone — its barrier, its steps, and its
// shuffle — to a standalone CompiledPlan over the same topology. The rows
// are exactly the corresponding slice of Compile's row table, so a
// single-phase plan's fragment replay is bit-identical to its whole-plan
// Cost. The optimizer's memoized costing replays one fragment per
// distinct (field, m) instead of recompiling and replaying every
// candidate plan whole.
func (p *Plan) CompilePhase(i int) *CompiledPlan {
	c := &CompiledPlan{m: p.m, n: p.Nodes(), topo: p.topo.Name()}
	c.rows = appendPhaseRows(c.rows, p.phases[i], p.m*c.n)
	c.spans = []simnet.PhaseSpan{phaseSpan(p.phases[i], len(c.rows))}
	return c
}

// NumPhases returns the number of phases in the plan.
func (p *Plan) NumPhases() int { return len(p.phases) }

// appendPhaseRows emits one phase's rows: the barrier, the steps, and —
// except when the phase spans the whole machine — the shuffle charge.
func appendPhaseRows(rows []compiledOp, ph Phase, shuffleBytes int) []compiledOp {
	rows = append(rows, compiledOp{kind: simnet.OpBarrier})
	if ph.XOR {
		for j := 1; j <= ph.steps(); j++ {
			row := compiledOp{
				kind:   simnet.OpExchange,
				shift:  j,
				stride: ph.Stride,
				span:   ph.Span,
				xor:    true,
				bytes:  ph.EffBytes,
			}
			if bitutil.IsPow2(ph.Stride) {
				row.mask = j * ph.Stride
			}
			rows = append(rows, row)
		}
	} else {
		row := compiledOp{stride: ph.Stride, span: ph.Span}
		if bitutil.IsPow2(ph.Stride) && bitutil.IsPow2(ph.Span) {
			row.fieldLo, row.fieldMask = bitutil.Log2Exact(ph.Stride), ph.Span-1
		}
		for j := 1; j <= ph.steps(); j++ {
			row.kind, row.shift = simnet.OpPostRecv, j
			rows = append(rows, row)
		}
		for j := 1; j <= ph.steps(); j++ {
			send, wait := row, row
			send.kind, send.shift, send.bytes = simnet.OpSend, j, ph.EffBytes
			wait.kind, wait.shift = simnet.OpWaitRecv, j
			rows = append(rows, send, wait)
		}
	}
	if ph.EffBlocks != 1 {
		rows = append(rows, compiledOp{kind: simnet.OpShuffle, bytes: shuffleBytes})
	}
	return rows
}

// PhaseSpans returns the plan's per-phase span structure — one entry per
// phase, covering that phase's barrier, step and shuffle rows — making
// CompiledPlan a simnet.Phased source: a replay prices each phase whose
// certificate holds in closed form, and runs the others on the event
// engine. Callers must not modify the returned slice.
func (c *CompiledPlan) PhaseSpans() []simnet.PhaseSpan { return c.spans }

// UniformRow returns row i's kind and byte count, which the shared op
// table gives every node alike.
func (c *CompiledPlan) UniformRow(i int) (simnet.OpKind, int, bool) {
	return c.rows[i].kind, c.rows[i].bytes, true
}

// NumNodes returns the topology's node count.
func (c *CompiledPlan) NumNodes() int { return c.n }

// NumOps returns the program length, identical for every node.
func (c *CompiledPlan) NumOps(int) int { return len(c.rows) }

// Ops returns the total op count over all nodes.
func (c *CompiledPlan) Ops() int { return c.n * len(c.rows) }

// peer computes node p's communication partner for a generic row.
func (r compiledOp) peer(p int) int {
	if r.fieldMask != 0 {
		f := p >> r.fieldLo & r.fieldMask
		g := (f + r.shift) & r.fieldMask
		if r.kind != simnet.OpSend { // receive rows pair with the sender shifted the other way
			g = (f - r.shift) & r.fieldMask
		}
		return p ^ (f^g)<<r.fieldLo
	}
	f := (p / r.stride) % r.span
	return p + (r.digit(f)-f)*r.stride
}

// digit returns the field digit a node whose own digit is f pairs with in
// a generic row.
func (r compiledOp) digit(f int) int {
	switch {
	case r.xor:
		return f ^ r.shift
	case r.kind == simnet.OpSend:
		return (f + r.shift) % r.span
	default: // receive rows pair with the sender shifted the other way
		return (f - r.shift + r.span) % r.span
	}
}

// AppendRowPeers appends row i's partner of every node to dst, in node
// order — the Peer of every Op(p, i) — which makes CompiledPlan a
// simnet.RowPeers source: every row is uniform, and Op builds each op from
// the row's kind, byte count and this partner alone. A mask row is one
// loop of p ^ mask. Any other communication row walks the field digit by
// digit, adding one offset to each run of Stride labels, so no node pays
// a divide. Barrier and shuffle rows append zeros.
func (c *CompiledPlan) AppendRowPeers(dst []int32, i int) []int32 {
	r := c.rows[i]
	lo := len(dst)
	dst = slices.Grow(dst, c.n)[:lo+c.n]
	out := dst[lo:]
	switch {
	case r.kind == simnet.OpExchange && r.mask != 0:
		for p := range out {
			out[p] = int32(p ^ r.mask)
		}
	case r.kind == simnet.OpExchange || r.kind == simnet.OpSend ||
		r.kind == simnet.OpPostRecv || r.kind == simnet.OpWaitRecv:
		block := r.stride * r.span
		for f := 0; f < r.span; f++ {
			d := (r.digit(f) - f) * r.stride
			for run := f * r.stride; run < c.n; run += block {
				for p := run; p < run+r.stride; p++ {
					out[p] = int32(p + d)
				}
			}
		}
	default:
		clear(out)
	}
	return dst
}

// Op returns node p's i-th op.
func (c *CompiledPlan) Op(p, i int) simnet.Op {
	r := c.rows[i]
	switch r.kind {
	case simnet.OpExchange:
		if r.mask != 0 {
			return simnet.Op{Kind: simnet.OpExchange, Peer: p ^ r.mask, Bytes: r.bytes}
		}
		return simnet.Op{Kind: simnet.OpExchange, Peer: r.peer(p), Bytes: r.bytes}
	case simnet.OpSend, simnet.OpPostRecv, simnet.OpWaitRecv:
		return simnet.Op{Kind: r.kind, Peer: r.peer(p), Bytes: r.bytes}
	case simnet.OpShuffle:
		return simnet.Op{Kind: simnet.OpShuffle, Bytes: r.bytes}
	default:
		return simnet.Op{Kind: r.kind}
	}
}

// Programs materializes the per-node programs — the form fabric.Sim
// records and the equivalence tests compare against. Intended for tests
// and small topologies; costing at scale should pass the CompiledPlan
// itself to simnet.Network.RunSource.
func (c *CompiledPlan) Programs() []simnet.Program {
	out := make([]simnet.Program, c.n)
	for p := 0; p < c.n; p++ {
		prog := make(simnet.Program, len(c.rows))
		for i := range c.rows {
			prog[i] = c.Op(p, i)
		}
		out[p] = prog
	}
	return out
}

// Cost replays the compiled plan through the discrete-event simulator and
// returns the virtual-time result. This is the fast costing path: unlike
// Simulate it moves no payload bytes and spawns no goroutines, so it is
// the right tool for optimizer enumeration and figure sweeps; use
// Simulate when the data movement itself should be machine-checked.
func (p *Plan) Cost(net *simnet.Network) (simnet.Result, error) {
	if net.Topo().Name() != p.topo.Name() {
		return simnet.Result{}, fmt.Errorf("exchange: plan for %s on %s network",
			p.topo.Name(), net.Topo().Name())
	}
	return net.RunSource(p.Compile())
}
