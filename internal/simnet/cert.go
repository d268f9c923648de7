package simnet

import "repro/internal/topology"

// The reasons a phase of a Phased source runs on the event engine
// instead of being priced in closed form (Result.DeclineReason). The
// first three are properties of the network that make durations
// node-dependent, and are decided before any certificate is looked at;
// the rest are what the certificate pass found.
const (
	declineTrace          = "trace"     // the Timeline needs the engine's events
	declineJitter         = "jitter"    // per-node noise draws
	declineSlowLink       = "slow-link" // a degraded overlay stretches some circuits
	declineRowNotUniform  = "row-not-uniform"
	declineRowNotExchange = "row-not-exchange"
	declinePartner        = "partner-mismatch"
	declineHops           = "hop-mismatch"
	declineOverlap        = "link-overlap"
	declineDuration       = "non-finite-duration"
)

// phaseCert is what one walk over a phase window's routed circuits proves
// about it — a function of the topology and the phase's field and row
// shape only, never of block size or machine parameters.
//
// The lockstep proof (decline == "") is the precondition under which the
// engine's enterExchange/reserve/hold never delay, never stall and never
// touch a backlog, and finish every node of a row at the same instant:
// every row is an exchange (or a shuffle) with one kind and byte count
// for all nodes, every node's partner names it back, the directed-link
// slots of all circuits of a row — both directions, detours included —
// are pairwise disjoint, and they all have one hop count.
type phaseCert struct {
	decline string  // the first lockstep check that failed, "" when none did
	hops    []int32 // per window row, the one hop count (≥ 1) of an exchange row's circuits

	// cyclic: the span's Shape is ShapeCyclic and the window keeps the
	// promise, row by row and node by node.
	cyclic bool
}

// RowPeers is an optional interface of a Phased source that can hand
// over the partners of a whole row at once. The certificate pass reads a
// row through it, one call instead of one Op per node; the engine and
// the cyclic interpreter still read Op.
//
// It carries a promise the pass does not check: UniformRow(row) reports
// ok, and for every node p, Op(p, row) equals Op{Kind: kind, Bytes:
// bytes, Peer: peers[p]}, with kind and bytes UniformRow's and every other
// field zero (an OpSend is FORCED). A source that makes the promise must
// test it against its own Op, as exchange.CompiledPlan does.
type RowPeers interface {
	// AppendRowPeers appends the partner of every node in row, in node
	// order, to dst and returns the extended slice. A row without
	// partners (barrier, shuffle, compute) appends zeros.
	AppendRowPeers(dst []int32, row int) []int32
}

// rowPeers reads the partners of row r, whose UniformRow is kind and
// bytes, into buf: a row at a time from a source that keeps the RowPeers
// promise, and node by node through src.Op from any other, whose ops must
// then agree with the uniform row, every send FORCED. ok is false when
// one does not: only the per-node path can find a uniform-row accessor
// that disagrees with Op.
func rowPeers(src Phased, r int, kind OpKind, bytes int, buf []int32) (peers []int32, ok bool) {
	if rp, batched := src.(RowPeers); batched {
		return rp.AppendRowPeers(buf[:0], r), true
	}
	peers = buf[:0]
	for p := range src.NumNodes() {
		op := src.Op(p, r)
		if op.Kind != kind || op.Bytes != bytes || kind == OpSend && op.Type != Forced {
			return peers, false
		}
		peers = append(peers, int32(op.Peer))
	}
	return peers, true
}

// certify walks the sp.Rows−1 rows after the barrier at winLo−1 once,
// routing every circuit through the topology's own AppendRouteSlots — the
// call the engine makes — and returns what the routed links prove. It
// stops at the first check that fails.
func (n *Network) certify(src Phased, sp PhaseSpan, winLo int) *phaseCert {
	nodes := n.topo.Nodes()
	c := &phaseCert{hops: make([]int32, sp.Rows-1)}
	c.cyclic = sp.Shape == ShapeCyclic && keepsCyclic(src, sp, winLo)
	declined := func(reason string) *phaseCert {
		c.decline = reason
		return c
	}
	var peers []int32                             // this row's partners
	partner := make([]int32, nodes)               // this row's exchange partners
	rowOf := make([]int32, nodes*n.topo.Degree()) // 1 + the window row whose circuits last covered the slot
	var slots []int
	for i := range c.hops {
		r, stamp := winLo+i, int32(i)+1
		kind, bytes, uniform := src.UniformRow(r)
		switch {
		case !uniform:
			return declined(declineRowNotUniform)
		case kind != OpExchange && kind != OpShuffle:
			return declined(declineRowNotExchange)
		}
		var ok bool
		if peers, ok = rowPeers(src, r, kind, bytes, peers); !ok {
			return declined(declineRowNotUniform)
		}
		if kind == OpShuffle {
			continue
		}
		h := -1
		for p, q32 := range peers {
			q := int(q32)
			if q == p || q < 0 || q >= nodes {
				// A self-exchange costs nothing on the engine; a node
				// outside the machine fails the run there.
				return declined(declinePartner)
			}
			partner[p] = int32(q)
			slots = n.topo.AppendRouteSlots(slots[:0], p, q)
			if h >= 0 && len(slots) != h {
				return declined(declineHops)
			}
			h = len(slots)
			for _, s := range slots {
				if rowOf[s] == stamp {
					return declined(declineOverlap)
				}
				rowOf[s] = stamp
			}
		}
		if kind == OpExchange {
			// Every node of the row recorded its partner: each must be
			// named back, or the engine's rendezvous never completes.
			for p, q := range partner {
				if partner[q] != int32(p) {
					return declined(declinePartner)
				}
			}
			c.hops[i] = int32(h)
		}
	}
	return c
}

// keepsCyclic reports whether the window of span sp opening at row winLo
// is laid out as ShapeCyclic promises: each row one kind and byte count
// on every node, in the promised order, with every send FORCED and every
// partner the promised shift of the node's field digit. Each node's digit
// is computed once per pass. A RowPeers source's kinds, byte counts and
// message types follow from UniformRow by its promise, so only its
// partners are read, a row at a time.
func keepsCyclic(src Phased, sp PhaseSpan, winLo int) bool {
	steps := sp.Span - 1
	if tail := sp.Rows - 1 - 3*steps; steps < 1 || tail < 0 || tail > 1 {
		return false
	}
	nodes := src.NumNodes()
	field := make([]int32, nodes)
	for p := range field {
		field[p] = int32(p / sp.Stride % sp.Span)
	}
	var peers []int32
	for i := 0; i < sp.Rows-1; i++ {
		want, shift := OpShuffle, 0
		switch k := i - steps; {
		case k < 0:
			want, shift = OpPostRecv, -(i + 1)
		case k < 2*steps && k%2 == 0:
			want, shift = OpSend, k/2+1
		case k < 2*steps:
			want, shift = OpWaitRecv, -(k/2 + 1)
		}
		r := winLo + i
		kind, bytes, ok := src.UniformRow(r)
		if !ok || kind != want {
			return false
		}
		if peers, ok = rowPeers(src, r, kind, bytes, peers); !ok {
			return false
		}
		if want == OpShuffle {
			continue
		}
		for p, q32 := range peers {
			q := int(q32)
			// |shift| < Span, so the shifted digit wraps at most once.
			f := int(field[p])
			g := f + shift
			if g < 0 {
				g += sp.Span
			} else if g >= sp.Span {
				g -= sp.Span
			}
			if q != p+(g-f)*sp.Stride {
				return false
			}
		}
	}
	return true
}

// certKey identifies a certificate on its topology handle: the phase by
// its span's geometry and shape.
type certKey struct {
	stride, span, rows int
	shape              string
}

// certificate returns the certificate of the phase whose window starts at
// row winLo, and whether this call ran the pass. A certificate is a fact
// about the fabric, kept with its handle (topology.Derived): the points of
// an m-sweep, the optimizers of different machines and repeated cost
// requests on one handle verify a phase field once between them. A span
// with no Shape promises nothing about other sources' phases and is
// certified afresh.
func (n *Network) certificate(src Phased, sp PhaseSpan, winLo int) (cert *phaseCert, computed bool) {
	if sp.Shape == "" {
		return n.certify(src, sp, winLo), true
	}
	k := certKey{stride: sp.Stride, span: sp.Span, rows: sp.Rows, shape: sp.Shape}
	cert = topology.Derived(n.topo, k, func() *phaseCert {
		computed = true
		return n.certify(src, sp, winLo)
	})
	return cert, computed
}
