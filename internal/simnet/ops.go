// Package simnet is a deterministic discrete-event simulator of a
// circuit-switched machine in the style of the Intel iPSC-860 (paper §2,
// §7), over any topology.Network — hypercube, torus or mesh. It models:
//
//   - dimension-ordered (e-cube on the hypercube) circuit routing: a
//     message holds every directed link on its path for its entire
//     duration;
//   - edge contention: circuits wanting a busy link wait (the paper's
//     measurements show edge contention is "disastrous"; node pass-through
//     contention is free and is only recorded);
//   - the timing model λ + τ·m + δ·h per message and ρ per byte shuffled;
//   - pairwise-synchronized exchanges (§7.2): with synchronization the two
//     transfers proceed concurrently after a zero-byte sync round;
//     without it they serialize;
//   - FORCED vs UNFORCED message types (§7.1): a FORCED message arriving
//     before its receive is posted is dropped (recorded as an error);
//     UNFORCED messages above the size threshold pay a reserve-
//     acknowledge round trip;
//   - global synchronization (§7.3) at 150·d µs per barrier.
//
// Node behaviour is specified as a Program — a sequence of Ops — and the
// network executes one program per node, returning per-node completion
// times and aggregate statistics.
//
// A replay runs epoch by epoch: an epoch is what the nodes run between
// two global barriers, and the barrier between two epochs is applied
// outside the event engine, which orders every event inside one. A
// Source that also declares its per-phase structure (the Phased
// interface; exchange.CompiledPlan does) has each phase's epoch run by the
// cheapest of three means that gives the engine's exact result. A phase
// certificate — proved once per (topology, phase field) from the actual
// routed links, detours included, and kept with the fabric handle —
// decides between them:
//
//   - Closed form. A phase that runs in lockstep — every row a uniform
//     exchange whose circuits are pairwise link-disjoint and of one hop
//     count — is priced by the float additions the engine would have
//     applied to every node, and no events.
//   - Cyclic window. A phase whose span promises ShapeCyclic, and whose
//     rows keep the promise, runs on the engine without its receive
//     posts or message channels: the layout fixes which message each
//     wait matches, so a message is one entry of a flat (destination,
//     step) inbox, and a node's partner comes from its field digit.
//   - Engine. Any other phase runs on the generic engine, as does every
//     phase of a traced run. Jitter and a degraded overlay's slow wires,
//     which make durations node-dependent, rule out the closed form
//     only.
//
// All of it runs on one goroutine, with one virtual clock, and gives the
// same bits every way: same makespans, same counters, same jitter draws
// (per-node RNG streams), same float summation order (per-node stall
// sums). Result says which phases were priced in closed form and which
// ran on the engine.
//
// A caller that needs the result only if the makespan is at most some
// cutoff says so per call (RunSourceBounded). Virtual time only moves
// forward, so the first node clock, barrier release or closed-form phase
// end past the cutoff ends the run with ErrCutoff: "the makespan, if the
// run completes, exceeds the cutoff", not a statement about deadlock or
// any other failure the run had not reached yet. A bounded run that
// returns nil is the unbounded run, bit for bit.
package simnet

import "fmt"

// MsgType selects iPSC-860 message semantics (§7.1).
type MsgType int

const (
	// Forced messages are discarded on arrival if no receive is posted.
	Forced MsgType = iota
	// Unforced messages are buffered by the OS; above the network's
	// threshold they pay a reserve-acknowledge round trip.
	Unforced
)

func (t MsgType) String() string {
	switch t {
	case Forced:
		return "FORCED"
	case Unforced:
		return "UNFORCED"
	default:
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
}

// OpKind enumerates node operations.
type OpKind int

const (
	// OpExchange performs a pairwise exchange of Bytes with Peer: both
	// nodes send and receive. This is the building block of both the
	// Standard Exchange steps and the circuit-switched schedule (§4).
	OpExchange OpKind = iota
	// OpSend transmits Bytes to Peer with the given message Type.
	OpSend
	// OpPostRecv posts a receive buffer for a message from Peer without
	// waiting (the paper's implementation posts all receives up front).
	OpPostRecv
	// OpWaitRecv blocks until a message from Peer has been delivered.
	OpWaitRecv
	// OpRecv is OpPostRecv immediately followed by OpWaitRecv.
	OpRecv
	// OpShuffle charges the local data-permutation cost ρ·Bytes.
	OpShuffle
	// OpCompute charges Micros of local computation.
	OpCompute
	// OpBarrier joins a global synchronization across all nodes.
	OpBarrier
)

func (k OpKind) String() string {
	switch k {
	case OpExchange:
		return "exchange"
	case OpSend:
		return "send"
	case OpPostRecv:
		return "postrecv"
	case OpWaitRecv:
		return "waitrecv"
	case OpRecv:
		return "recv"
	case OpShuffle:
		return "shuffle"
	case OpCompute:
		return "compute"
	case OpBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one step of a node program.
type Op struct {
	Kind   OpKind
	Peer   int     // partner node for communication ops
	Bytes  int     // payload size for communication/shuffle ops
	Micros float64 // compute duration for OpCompute
	Type   MsgType // message type for OpSend
}

// Program is the operation sequence executed by one node.
type Program []Op

// Exchange returns a pairwise-exchange op.
func Exchange(peer, bytes int) Op { return Op{Kind: OpExchange, Peer: peer, Bytes: bytes} }

// Send returns a one-sided send op.
func Send(peer, bytes int, t MsgType) Op {
	return Op{Kind: OpSend, Peer: peer, Bytes: bytes, Type: t}
}

// PostRecv returns a receive-posting op.
func PostRecv(peer int) Op { return Op{Kind: OpPostRecv, Peer: peer} }

// WaitRecv returns a receive-wait op.
func WaitRecv(peer int) Op { return Op{Kind: OpWaitRecv, Peer: peer} }

// Recv returns a post-and-wait receive op.
func Recv(peer int) Op { return Op{Kind: OpRecv, Peer: peer} }

// Shuffle returns a local-permutation op over the given byte count.
func Shuffle(bytes int) Op { return Op{Kind: OpShuffle, Bytes: bytes} }

// Compute returns a local-computation op of the given duration in µs.
func Compute(micros float64) Op { return Op{Kind: OpCompute, Micros: micros} }

// Barrier returns a global-synchronization op.
func Barrier() Op { return Op{Kind: OpBarrier} }
