// Package collectives implements the other hypercube communication
// patterns the paper's conclusion (§9) points at — one-to-all broadcast,
// one-to-all personalized (scatter/gather), and all-to-all broadcast
// (allgather) — with the classical subcube-recursive algorithms of
// Johnsson & Ho (paper reference [8]).
//
// Each collective has exactly one implementation, written against the
// fabric interface (package fabric), so the same code moves real data on
// the goroutine runtime and is costed in virtual time on the
// circuit-switched simulator; Compile additionally lowers each pattern
// straight to the per-node simulator programs such a run would record, so
// pure costing (Cost) needs no goroutines or payloads at all. The paper's observation that the complete
// exchange upper-bounds every pattern ("the time taken by our multiphase
// algorithm is an upper bound on the time required by any of these
// patterns") is enforced by tests.
//
// Tree addressing: all rooted collectives work in relative address space
// r = p XOR root. The scatter/gather binomial tree is defined by the
// lowest set bit: node r ≠ 0 is attached to parent r XOR lsb(r) and owns
// the contiguous relative block range [r, r+lsb(r)). Scatter walks
// dimensions downward (the root first splits off the top half of its
// range), gather walks them upward, broadcast walks upward doubling the
// informed set (its parent is across the highest set bit). Every transfer
// crosses exactly one cube dimension, so no step can suffer edge
// contention. As in the paper's implementation (§7.1), the communication
// pattern is fully known, so receives are posted up front and the
// efficient FORCED message type is used throughout.
package collectives

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/fabric"
	"repro/internal/model"
)

// Kind enumerates the implemented collectives.
type Kind int

const (
	// Broadcast: one root sends one m-byte block to all 2^d−1 others
	// along a binomial tree (d steps, message size m).
	Broadcast Kind = iota
	// Scatter: one root sends a different m-byte block to every node
	// (one-to-all personalized); a binomial tree with halving payloads.
	Scatter
	// Gather: the inverse of Scatter — all blocks converge on the root
	// with doubling payloads.
	Gather
	// AllGather: every node contributes one m-byte block; all nodes end
	// with all 2^d blocks (all-to-all broadcast); recursive doubling
	// with doubling payloads.
	AllGather
)

func (k Kind) String() string {
	switch k {
	case Broadcast:
		return "broadcast"
	case Scatter:
		return "scatter"
	case Gather:
		return "gather"
	case AllGather:
		return "allgather"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Model returns the analytic time of the collective on a d-cube with
// block size m under the machine parameters:
//
//	broadcast:  d(λ + τm + δ)                       (critical path: d hops)
//	scatter:    dλ + τ·m(2^d−1) + dδ                (root transmits m(n−1))
//	gather:     same as scatter (reversed)
//	allgather:  d·λx + τx·m(2^d−1) + d·δx           (exchange constants)
//
// Scatter/gather/broadcast steps are one-sided sends at distance 1;
// allgather steps are pairwise exchanges, so the effective exchange
// constants λx, τx, δx of the parameter set apply.
func Model(k Kind, prm model.Params, m, d int) float64 {
	if d <= 0 {
		return 0
	}
	df := float64(d)
	mf := float64(m)
	full := float64(int(1)<<uint(d) - 1)
	switch k {
	case Broadcast:
		return df * (prm.Lambda + prm.Tau*mf + prm.Delta)
	case Scatter, Gather:
		return df*prm.Lambda + prm.Tau*mf*full + df*prm.Delta
	case AllGather:
		return df*prm.EffLambda() + prm.EffTau()*mf*full + df*prm.EffDelta()
	default:
		return 0
	}
}

// joinBit returns the tree level at which relative address r is attached:
// lsb(r) for r ≠ 0, and 2^d (above every level) for the root.
func joinBit(r, d int) int {
	if r == 0 {
		return 1 << uint(d)
	}
	return 1 << uint(bitutil.LowestSetBit(r))
}

// nodeDim returns d for a 2^d-node fabric node.
func nodeDim(nd fabric.Node) (int, error) {
	d := bitutil.Log2Exact(nd.N())
	if d < 0 {
		return 0, fmt.Errorf("collectives: fabric size %d is not a power of two", nd.N())
	}
	return d, nil
}

func checkRoot(root, n int) error {
	if root < 0 || root >= n {
		return fmt.Errorf("collectives: root %d outside cube of %d nodes", root, n)
	}
	return nil
}

// BroadcastOn executes a binomial-tree broadcast of root's data on one
// fabric node; every node returns the payload. Ascending levels: at level
// bit, informed nodes (r < bit) send the block to r+bit; the doubling
// tree's parent is across the *highest* set bit of r.
func BroadcastOn(nd fabric.Node, root int, data []byte) ([]byte, error) {
	d, err := nodeDim(nd)
	if err != nil {
		return nil, err
	}
	if err := checkRoot(root, nd.N()); err != nil {
		return nil, err
	}
	p := nd.ID()
	r := p ^ root
	var have []byte
	if r == 0 {
		have = append([]byte(nil), data...)
	} else {
		nd.PostRecv(p ^ (1 << uint(bitutil.HighestSetBit(r))))
	}
	for i := 0; i < d; i++ {
		bit := 1 << uint(i)
		switch {
		case r < bit:
			nd.Send(p^bit, have)
		case r < bit*2:
			have = nd.Recv(p ^ bit)
		}
	}
	return have, nil
}

// ScatterOn executes a binomial-tree scatter on one fabric node: the root
// provides blocks[i] for rank i (uniform length; other nodes pass nil)
// and every node returns exactly its own block. Descending levels: a node
// holding the relative range [r, r+2·bit) sends the upper half — m·bit
// bytes — to r+bit; a node participates as sender at levels below its
// join bit and receives exactly at its join bit.
func ScatterOn(nd fabric.Node, root int, blocks [][]byte) ([]byte, error) {
	d, err := nodeDim(nd)
	if err != nil {
		return nil, err
	}
	n := nd.N()
	if err := checkRoot(root, n); err != nil {
		return nil, err
	}
	p := nd.ID()
	r := p ^ root
	join := joinBit(r, d)
	// held[j] is the block for relative address r+j (j < current range
	// width). The root starts with the full range [0, n).
	var held [][]byte
	if r == 0 {
		if len(blocks) != n {
			return nil, fmt.Errorf("collectives: scatter of %d blocks on %d nodes", len(blocks), n)
		}
		m := len(blocks[0])
		held = make([][]byte, n)
		for j := 0; j < n; j++ {
			if len(blocks[j^root]) != m {
				return nil, fmt.Errorf("collectives: scatter blocks must be uniform length")
			}
			held[j] = blocks[j^root] // held is indexed by relative address
		}
	} else {
		nd.PostRecv(p ^ join)
	}
	for i := d - 1; i >= 0; i-- {
		bit := 1 << uint(i)
		switch {
		case bit < join:
			// Send the upper half [r+bit, r+2bit) of my range.
			var msg []byte
			for j := bit; j < 2*bit && j < len(held); j++ {
				msg = append(msg, held[j]...)
			}
			nd.Send(p^bit, msg)
			if len(held) > bit {
				held = held[:bit]
			}
		case bit == join:
			msg := nd.Recv(p ^ bit)
			m := len(msg) / bit
			held = make([][]byte, bit)
			for j := 0; j < bit; j++ {
				held[j] = append([]byte(nil), msg[j*m:(j+1)*m]...)
			}
		}
	}
	if len(held) == 0 {
		return nil, fmt.Errorf("collectives: scatter node %d received nothing", p)
	}
	return held[0], nil
}

// GatherOn executes the inverse of scatter on one fabric node: every node
// contributes its block; the root returns all 2^d blocks (slot i = node
// i's block), other nodes return nil. Ascending levels: receive
// children's ranges, then send the accumulated [r, r+join) to the parent
// at the join level; all child receives are posted before any traffic.
func GatherOn(nd fabric.Node, root int, block []byte) ([][]byte, error) {
	d, err := nodeDim(nd)
	if err != nil {
		return nil, err
	}
	n := nd.N()
	if err := checkRoot(root, n); err != nil {
		return nil, err
	}
	p := nd.ID()
	r := p ^ root
	join := joinBit(r, d)
	for i := 0; i < d; i++ {
		if bit := 1 << uint(i); bit < join {
			nd.PostRecv(p ^ bit)
		}
	}
	// held[j] = block from relative address r+j; grows as children report
	// in, then is shipped whole to the parent.
	held := [][]byte{append([]byte(nil), block...)}
	for i := 0; i < d; i++ {
		bit := 1 << uint(i)
		switch {
		case bit < join:
			msg := nd.Recv(p ^ bit)
			m := len(msg) / bit
			for j := 0; j < bit; j++ {
				held = append(held, append([]byte(nil), msg[j*m:(j+1)*m]...))
			}
		case bit == join:
			var msg []byte
			for _, blk := range held {
				msg = append(msg, blk...)
			}
			nd.Send(p^bit, msg)
		}
	}
	if r != 0 {
		return nil, nil
	}
	// held[j] is the block of relative address j; reindex to absolute.
	out := make([][]byte, n)
	for j := 0; j < n; j++ {
		out[j^root] = held[j]
	}
	return out, nil
}

// AllGatherOn executes recursive-doubling allgather on one fabric node:
// every node contributes one block and returns all 2^d blocks (slot i =
// node i's block). Step i exchanges the accumulated m·2^i bytes across
// dimension i.
func AllGatherOn(nd fabric.Node, block []byte) ([][]byte, error) {
	d, err := nodeDim(nd)
	if err != nil {
		return nil, err
	}
	n := nd.N()
	p := nd.ID()
	m := len(block)
	blocks := make([][]byte, n)
	// Blocks are kept non-nil even when m = 0 so the missing-block check
	// below stays meaningful for zero-byte collectives.
	blocks[p] = append([]byte{}, block...)
	for i := 0; i < d; i++ {
		bit := 1 << uint(i)
		peer := p ^ bit
		// I currently hold the 2^i blocks whose labels agree with mine
		// above bit i; pack them in ascending label order.
		var msg []byte
		for q := 0; q < n; q++ {
			if q&^(bit-1) == p&^(bit-1) {
				if blocks[q] == nil {
					return nil, fmt.Errorf("collectives: node %d missing block %d at step %d", p, q, i)
				}
				msg = append(msg, blocks[q]...)
			}
		}
		in := nd.Exchange(peer, msg)
		if len(in) != bit*m {
			return nil, fmt.Errorf("collectives: node %d expected %dB, got %d (mismatched block sizes?)",
				p, bit*m, len(in))
		}
		idx := 0
		for q := 0; q < n; q++ {
			if q&^(bit-1) == peer&^(bit-1) {
				blocks[q] = append([]byte{}, in[idx*m:(idx+1)*m]...)
				idx++
			}
		}
	}
	return blocks, nil
}
