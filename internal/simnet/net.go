package simnet

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/topology"
)

// Network is a simulated circuit-switched machine over any
// topology.Network — hypercube, torus or mesh. Routing, link contention
// and distances come from the topology; the hypercube keeps its
// bit-trick fast paths in the replay core.
type Network struct {
	topo       topology.Network
	hyper      *topology.Hypercube // non-nil when topo is the radix-2 fast path
	params     model.Params
	trace      bool
	countQueue bool // count link backlogs for Result.MaxEdgeQueue (SetEdgeQueue)
	budget     uint64
	jitterFrac float64
	jitterSeed int64
}

// SetJitter enables deterministic pseudo-random perturbation of every
// transmission duration by up to ±frac (e.g. 0.05 = ±5%). The paper's
// Figures 4–6 distinguish measured (solid) from predicted (dashed)
// curves; jitter turns the simulator into the "measured" machine whose
// imperfect agreement with the model can be quantified. frac = 0 restores
// exact model behaviour.
//
// The noise source is never the global math/rand state: every node owns a
// private splitmix64 stream seeded from (this Network's seed, node id), so
// repeated Runs of the same programs give bit-identical results
// (go test -count=2), concurrent Runs on different Networks do not perturb
// each other, and two Networks with the same seed agree exactly. Per-node
// streams — rather than one per-Run stream consumed in global event
// order — fix the bits the pinned replay digests record: a node draws the
// same noise values regardless of how unrelated nodes' events interleave
// around it.
func (n *Network) SetJitter(frac float64, seed int64) {
	if frac < 0 {
		frac = 0
	}
	n.jitterFrac = frac
	n.jitterSeed = seed
}

// DefaultEventBudget is the watchdog limit on simulation events per Run;
// real workloads stay far below it, so hitting it indicates a livelock in
// the simulated programs. Runs whose programs are structurally larger
// (e.g. compiled complete-exchange plans beyond d = 12) raise the limit
// automatically to a bound derived from the total op count, so the
// watchdog can only trip on a genuine scheduling bug.
const DefaultEventBudget = 50_000_000

// SetEventBudget overrides the per-Run event watchdog (0 restores the
// default with its structural auto-scaling). An explicit budget is taken
// literally; tests use tiny values to exercise the exhaustion path.
func (n *Network) SetEventBudget(limit uint64) { n.budget = limit }

// SetTrace enables or disables timeline recording: when on, every node
// op's occupancy interval is appended to Result.Timeline.
func (n *Network) SetTrace(on bool) { n.trace = on }

// SetEdgeQueue turns the link-backlog count behind Result.MaxEdgeQueue on
// or off; a new Network counts. The count decides no time: with it off a
// replay's other Result fields are bit for bit what they are with it on,
// MaxEdgeQueue is 0, and a contended replay skips the count's share of
// its work. A caller that never reads MaxEdgeQueue turns it off.
func (n *Network) SetEdgeQueue(on bool) { n.countQueue = on }

// Interval is one node-op occupancy span in the timeline: the node was
// inside the op from Start to End (µs). For communication ops the span
// includes rendezvous and circuit waiting.
type Interval struct {
	Node  int
	Kind  OpKind
	Peer  int
	Bytes int
	Start float64
	End   float64
}

// New returns a network over the given topology with the given machine
// parameters. A bare hypercube takes the bit-trick fast paths; a
// topology.Degraded overlay routes — and detours — through the overlay,
// and its slow wires stretch the circuits that cross them.
func New(t topology.Network, p model.Params) *Network {
	h, _ := t.(*topology.Hypercube)
	return &Network{topo: t, hyper: h, params: p, countQueue: true}
}

// Topo returns the underlying topology.
func (n *Network) Topo() topology.Network { return n.topo }

// Nodes returns the node count of the underlying topology.
func (n *Network) Nodes() int { return n.topo.Nodes() }

// Params returns the machine parameters.
func (n *Network) Params() model.Params { return n.params }

// Result reports the outcome of one simulated run.
type Result struct {
	// Makespan is the virtual time at which the last node finished, µs.
	Makespan float64
	// NodeFinish holds each node's completion time, µs.
	NodeFinish []float64
	// ContentionStall is the total time circuits spent waiting for busy
	// links, summed over all transmissions, µs.
	ContentionStall float64
	// Messages is the number of point-to-point transmissions (an
	// exchange counts as two).
	Messages int
	// BytesMoved is the total payload volume transmitted.
	BytesMoved int
	// DroppedForced counts FORCED messages that arrived before their
	// receive was posted (§7.3 calls this outcome "fatal"; we record it
	// and deliver anyway so the simulation can finish and report).
	DroppedForced int
	// Barriers is the number of global synchronizations executed.
	Barriers int
	// MaxEdgeQueue is the largest number of circuits that were ever
	// simultaneously holding-or-waiting on one directed link. It is 0,
	// not counted, on a network whose count is off (SetEdgeQueue), and 0
	// on any network when no circuit held a link.
	MaxEdgeQueue int
	// Timeline holds per-op occupancy intervals when tracing is enabled
	// (Network.SetTrace), in completion order.
	Timeline []Interval
	// ReplayShards is always 1.
	//
	// Deprecated: every replay runs on one engine; the field stays only
	// for callers that still read it, until they are rewritten.
	ReplayShards int
	// ClosedFormPhases and EnginePhases count the phases of a Phased
	// source by how they were priced: in closed form, under a certificate
	// that the phase runs in lockstep, or on the event engine. Both are 0
	// for plain programs. DeclineReason says why the first engine-run
	// phase was not priced in closed form: "jitter", "slow-link" (a
	// degraded overlay's static slow wires) or "trace" when the network
	// rules it out for every phase, otherwise the certificate check that
	// failed —
	// "row-not-uniform", "row-not-exchange", "partner-mismatch",
	// "hop-mismatch", "link-overlap" — or "non-finite-duration".
	// Certificates counts the certificate passes this run had to perform
	// itself; a pass is kept with the topology handle per phase span.
	// None of the four affects, or depends on, the fields above.
	ClosedFormPhases int
	EnginePhases     int
	DeclineReason    string
	Certificates     int
}

// Source is the program set of one run addressed by (node, index). It is
// the compiled form of per-node programs: a trace compiler (package
// exchange's CompiledPlan) can replay a million-node plan without
// materializing 2^d op slices, because the replay core only ever asks for
// one op at a time. A plain []Program is adapted by Network.Run.
type Source interface {
	// NumNodes returns the number of node programs (must equal the
	// network's node count).
	NumNodes() int
	// NumOps returns the length of node p's program.
	NumOps(p int) int
	// Op returns the i-th op of node p's program, 0 ≤ i < NumOps(p).
	Op(p, i int) Op
}

// programsSource adapts explicit per-node programs to Source.
type programsSource []Program

func (s programsSource) NumNodes() int    { return len(s) }
func (s programsSource) NumOps(p int) int { return len(s[p]) }
func (s programsSource) Op(p, i int) Op   { return s[p][i] }

// runState is the mutable execution state of one Run. All hot tables are
// flat slices indexed by node or directed-link id — the interpreter
// allocates nothing per event once set up (inbox slots and link backlogs
// grow amortized on first use). States are recycled through statePool:
// a replay resets one instead of allocating the node arrays, the link
// arrays and the event queue's storage again.
type runState struct {
	net   *Network
	eng   *event.Engine
	src   Source
	topo  topology.Network
	cube  *topology.Hypercube // non-nil when radix-2 bit-trick routing is active
	n     int                 // nodes
	syncD int                 // topology diameter, the global-sync weight (§7.3)

	// degr is the degraded overlay whose per-wire slow factors stretch the
	// circuits crossing them; nil when no wire is slow, which keeps the
	// factor lookup out of every other run.
	degr *topology.Degraded

	// slots is the circuit being reserved, as the directed-link slots of
	// its route: one walk of the route fills it, and the free-time scan,
	// the slow-factor lookup and the hold all read it.
	slots []int

	pc   []int32 // program counter per node
	lens []int32 // program length per node (NumOps, cached)
	// ready is each node's available time, µs. A node's ready time moves
	// only when it completes an op (advance): until then it is the time
	// the op began, the Start of the op's timeline interval.
	ready []float64
	done  []bool

	// The driver's view of the nodes: how many wait at a barrier row for
	// its release and how many finished their programs; engaged once the
	// engine and its tables are reset for this run (engage).
	waiting, finished int
	engaged           bool

	// Exchange rendezvous: node p parked inside OpExchange has
	// exPeer[p] = partner, with its payload size and ready time. The
	// second side to arrive finds its partner here and computes the
	// circuit timing for both (replaces the pend/pairSeq maps).
	exPeer  []int32
	exBytes []int
	exReady []float64

	// Directed-link state, indexed by topology.LinkSlot (u*d+i on the
	// hypercube: node u's link across dimension i); see hold for the
	// hot/cold split.
	busy     []float64 // hot: finish time of the link's newest hold
	held     bool      // some circuit has held a link
	counting bool      // the network counts link backlogs (SetEdgeQueue)
	acct     backlog   // cold: the link-backlog count, when counting

	// Message channels, one per ordered (src,dst) pair actually used,
	// discovered on first contact. outIdx[src] lists src's channels while
	// they are few; a source that outgrows chanScanMax destinations gets
	// chanTab[src], indexed by destination (1 + channel, 0 for none). The
	// per-slot cursors replace the inbox/arrSeq/postSeq/waitSeq maps.
	chans   []msgChan
	outIdx  [][]chanRef
	chanTab [][]int32

	// cyc is the cyclic interpreter's window, when the rows being run keep
	// the "cyclic" shape's promise; cyc.end is 0 otherwise.
	cyc cyclicWindow

	res    Result
	failed error

	// cutoff is the makespan bound of a bounded run (+Inf for a plain
	// one): the first node clock to pass it trips the run.
	cutoff float64
	// budget is the run's event watchdog, counted over all its epochs.
	budget uint64

	// rngs holds one splitmix64 jitter stream per node (nil when jitter
	// is off). Per-node streams keep noise draws independent of the
	// global event interleaving; the pinned replay digests record their
	// bits.
	rngs []uint64
	// stall accumulates ContentionStall per owning node; runSource sums
	// it in node-index order. Event-order accumulation into one float64
	// would make the total depend on how unrelated nodes' reservations
	// interleave; the pinned replay digests record the node-order bits.
	stall []float64

	// Long-lived bound handlers so event scheduling never allocates.
	stepH       event.ArgHandler
	deliverH    event.ArgHandler
	cycDeliverH event.ArgHandler
}

// statePool recycles runStates across replays, of one Network or of many:
// the optimizer and the cost endpoint build a Network per request.
var statePool = sync.Pool{New: func() any {
	st := &runState{eng: event.New()}
	st.stepH = func(_ event.Time, p int) { st.step(p) }
	st.deliverH = func(now event.Time, ch int) { st.deliverAt(ch, float64(now)) }
	st.cycDeliverH = func(now event.Time, i int) { st.deliverCyclic(i, float64(now)) }
	return st
}}

// resized returns s with length n and every element zero, reusing its
// storage when that is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// newState returns a runState for one replay of src on n with what the
// driver reads reset: the node clocks and counts. The engine and its
// tables wait for the run's first engine epoch (engage): a replay priced
// wholly in closed form never needs them.
func (n *Network) newState(src Source, cutoff float64) *runState {
	st := statePool.Get().(*runState)
	nodes := n.topo.Nodes()
	st.net, st.src, st.topo, st.cube, st.n = n, src, n.topo, n.hyper, nodes
	st.syncD = n.topo.Diameter()
	st.ready = resized(st.ready, nodes)
	st.res = Result{ReplayShards: 1}
	st.failed, st.waiting, st.finished, st.engaged = nil, 0, 0, false
	st.cutoff, st.cyc.end = cutoff, 0
	return st
}

// engage resets the engine and its tables — program counters and
// lengths, the event budget, rendezvous slots, stall accounts, link
// state, message channels, jitter streams — before the run's first
// engine epoch, and does nothing after it.
func (st *runState) engage() {
	if st.engaged {
		return
	}
	st.engaged = true
	n, nodes := st.net, st.n
	st.degr = nil
	if dg, ok := n.topo.(*topology.Degraded); ok && dg.HasSlowLinks() {
		st.degr = dg
	}
	st.eng.Reset()
	st.pc = resized(st.pc, nodes)
	st.lens = st.lens[:0]
	ops := uint64(0)
	for p := range nodes {
		k := st.src.NumOps(p)
		st.lens = append(st.lens, int32(k))
		ops += uint64(k)
	}
	// An explicit budget is taken literally. The default scales with the
	// rows the nodes interpret: every op consumes exactly one step event;
	// add one final step per node, one delivery per send, and the seed
	// events. 2·ops + 4·nodes dominates that, so the watchdog never trips
	// on a well-formed program of any size.
	st.budget = n.budget
	if st.budget == 0 {
		st.budget = max(DefaultEventBudget, 2*ops+4*uint64(nodes))
	}
	st.done = resized(st.done, nodes)
	st.exPeer = resized(st.exPeer, nodes)
	for p := range st.exPeer {
		st.exPeer[p] = -1
	}
	st.exBytes = resized(st.exBytes, nodes)
	st.exReady = resized(st.exReady, nodes)
	st.stall = resized(st.stall, nodes)
	st.busy = resized(st.busy, nodes*n.topo.Degree())
	st.held, st.counting = false, n.countQueue
	if st.counting {
		st.acct.reset(len(st.busy))
	}

	// Channel tables keep their per-source storage across replays.
	st.chans = st.chans[:0]
	if cap(st.outIdx) < nodes {
		st.outIdx = make([][]chanRef, nodes)
		st.chanTab = make([][]int32, nodes)
	}
	st.outIdx, st.chanTab = st.outIdx[:nodes], st.chanTab[:nodes]
	for p := range st.outIdx {
		st.outIdx[p], st.chanTab[p] = st.outIdx[p][:0], st.chanTab[p][:0]
	}

	st.rngs = nil
	if n.jitterFrac != 0 {
		// Fresh per-Run streams seeded from the Network keep jitter
		// reproducible across repeated and concurrent Runs (see
		// SetJitter); never touch the global math/rand state here.
		st.rngs = seedJitterStreams(n.jitterSeed, nodes)
	}
}

// maxPooledInbox bounds, in bytes, the message storage a pooled state
// keeps: its cyclic inbox and its channel table. The node and link arrays
// grow with the machine; message storage grows with the pairs that talk,
// and a state idling in the pool must not hold megabytes for the rare
// replay that needs them. The bound keeps the inbox of a cyclic phase
// spanning a whole 512-node machine (512 destinations × 512 steps).
const maxPooledInbox = 256 << 10

// release returns st to the pool, dropping what would pin the caller's
// network and programs and message storage above maxPooledInbox.
func (st *runState) release() {
	if cap(st.cyc.inbox) > maxPooledInbox {
		st.cyc.inbox = nil
	}
	if uintptr(cap(st.chans))*unsafe.Sizeof(msgChan{}) > maxPooledInbox {
		st.chans, st.outIdx, st.chanTab = nil, nil, nil
	}
	st.net, st.src, st.topo, st.cube, st.degr = nil, nil, nil, nil, nil
	st.res, st.failed = Result{}, nil
	statePool.Put(st)
}

// msgChan carries the messages of one ordered (src,dst) pair. The three
// cursors are the FIFO sequence counters for arrival, posting and waiting;
// sent indexes the slot a send writes its message type into. The first
// message's slot is inline: most pairs exchange exactly one message.
//
// A slot is its flags alone. Neither the arrival time nor the time a
// waiter parked is needed: every event fires at the engine's current
// time, and a node's step runs at its own ready time, so a wait that
// finds its message arrived wakes at its ready time (the arrival is no
// later), and a delivery that finds its waiter parked wakes it at the
// delivery time (the waiter's ready time is no later, and it cannot move
// while the node is parked).
type msgChan struct {
	dst   int32
	arr   int32
	post  int32
	wait  int32
	sent  int32
	first uint8
	rest  []uint8 // slots 1, 2, …
}

const (
	slotArrived uint8 = 1 << iota
	slotPosted
	slotWaiting
	slotForced
)

type chanRef struct {
	dst int32
	ch  int32
}

// Run executes one program per node (len(programs) must equal the node
// count) and returns the result. Programs must be mutually consistent:
// every exchange must have a matching exchange on the peer, and every
// send must eventually be received or the run reports a deadlock error.
func (n *Network) Run(programs []Program) (Result, error) {
	if len(programs) != n.topo.Nodes() {
		return Result{}, fmt.Errorf("simnet: %d programs for %d nodes",
			len(programs), n.topo.Nodes())
	}
	return n.runSource(programsSource(programs), math.Inf(1))
}

// RunSource executes a compiled program source — the allocation-free
// costing path used by exchange.Plan.Cost and collectives.Cost.
func (n *Network) RunSource(src Source) (Result, error) {
	return n.RunSourceBounded(src, math.Inf(1))
}

// ErrCutoff is returned by a bounded run that was abandoned: the makespan,
// if the run completes, exceeds the cutoff. It says nothing about whether
// the run does complete — a program that would deadlock, or fail on a down
// link, after the cutoff is abandoned like any other.
var ErrCutoff = errors.New("simnet: makespan exceeds the cutoff")

// RunSourceBounded is RunSource for a caller that only needs the result
// if the makespan is at most cutoff µs — an optimizer holding an incumbent.
// Virtual time only moves forward, so the first node clock, barrier
// release or closed-form phase end past the cutoff proves the makespan
// exceeds it, and the run stops there with ErrCutoff and a Result that
// means nothing. A run that returns nil is the run RunSource would have
// made, bit for bit: ErrCutoff is returned if and only if a completing
// run's makespan exceeds the cutoff.
func (n *Network) RunSourceBounded(src Source, cutoff float64) (Result, error) {
	if src.NumNodes() != n.topo.Nodes() {
		return Result{}, fmt.Errorf("simnet: source of %d programs for %d nodes",
			src.NumNodes(), n.topo.Nodes())
	}
	return n.runSource(src, cutoff)
}

// drain runs the engine until every node has stopped, at a barrier row
// or at the end of its program, within what is left of the run's event
// budget, and reports a failure, an exhausted budget or a deadlock: some
// node blocked in an op, or nodes waiting at a barrier that others
// finished without, which never releases. The error names the
// lowest-numbered node that did not finish.
func (st *runState) drain() error {
	if st.engaged {
		drained := st.eng.RunLimit(st.budget - st.eng.Steps())
		if st.failed != nil {
			return st.failed
		}
		if !drained {
			return st.budgetError()
		}
	}
	if st.waiting == st.n || st.finished == st.n {
		return nil
	}
	for p, d := range st.done {
		if !d {
			return fmt.Errorf("simnet: node %d blocked at op %d (%s): deadlock",
				p, st.pc[p], st.opName(p))
		}
	}
	return nil
}

// budgetError reports event-budget exhaustion with enough detail to act
// on: how many events ran, and where each unfinished node is stuck (its
// program counter and current op), mirroring the deadlock error path.
func (st *runState) budgetError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "simnet: event budget (%d) exhausted after %d events (livelock?)",
		st.budget, st.eng.Steps())
	const maxListed = 8
	listed, unfinished := 0, 0
	for p := 0; p < st.n; p++ {
		if st.done[p] {
			continue
		}
		unfinished++
		if listed < maxListed {
			if listed == 0 {
				b.WriteString("; unfinished:")
			} else {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " node %d at op %d/%d (%s)",
				p, st.pc[p], st.src.NumOps(p), st.opName(p))
			listed++
		}
	}
	if unfinished > listed {
		fmt.Fprintf(&b, " and %d more", unfinished-listed)
	}
	return fmt.Errorf("%s", b.String())
}

func (st *runState) opName(p int) string {
	if int(st.pc[p]) < st.src.NumOps(p) {
		op := st.src.Op(p, int(st.pc[p]))
		switch op.Kind {
		case OpExchange, OpSend, OpPostRecv, OpWaitRecv, OpRecv:
			return fmt.Sprintf("%s peer %d", op.Kind, op.Peer)
		}
		return op.Kind.String()
	}
	return "end"
}

func (st *runState) fail(err error) {
	if st.failed == nil {
		st.failed = err
	}
}

// step interprets the current op of node p. Called whenever node p becomes
// runnable (at its ready time).
func (st *runState) step(p int) {
	if st.failed != nil || st.done[p] {
		return
	}
	if pc := st.pc[p]; pc < st.cyc.end {
		st.stepCyclic(p, pc)
		return
	}
	if st.pc[p] >= st.lens[p] {
		st.done[p] = true
		st.finished++
		return
	}
	op := st.src.Op(p, int(st.pc[p]))
	switch op.Kind {
	case OpCompute:
		// NaN passes a plain < 0 guard and would reach the event queue as
		// a timestamp that orders against nothing.
		if !(op.Micros >= 0) || math.IsInf(op.Micros, 0) {
			st.fail(fmt.Errorf("simnet: node %d: compute time %v is not a finite non-negative duration", p, op.Micros))
			return
		}
		st.advance(p, st.ready[p]+op.Micros)
	case OpShuffle:
		st.advance(p, st.ready[p]+float64(st.net.params.Rho*float64(op.Bytes))) // float64(…) forbids a fused multiply-add; see jitter
	case OpBarrier:
		st.waiting++ // runSource releases it once every node waits at one
	case OpExchange:
		st.enterExchange(p, op)
	case OpSend:
		st.doSend(p, op)
	case OpPostRecv, OpRecv, OpWaitRecv:
		// A peer outside the machine fails the run; it does not panic.
		if op.Peer < 0 || op.Peer >= st.n {
			st.fail(fmt.Errorf("simnet: node %d: %s from nonexistent node %d", p, op.Kind, op.Peer))
			return
		}
		if op.Kind != OpWaitRecv {
			st.doPostRecv(p, op.Peer)
		}
		if op.Kind == OpPostRecv {
			st.advance(p, st.ready[p])
		} else {
			st.doWaitRecv(p, op.Peer)
		}
	default:
		st.fail(fmt.Errorf("simnet: node %d: unknown op kind %v", p, op.Kind))
	}
}

// advance completes node p's current op at time t and schedules the next.
// A node's clock never moves back, so t is a lower bound on its finish
// time and hence on the makespan.
func (st *runState) advance(p int, t float64) {
	if t > st.cutoff {
		// The makespan is now known to exceed the cutoff: the engine
		// stops where it is instead of draining.
		st.fail(ErrCutoff)
		st.eng.Stop()
		return
	}
	if st.net.trace && st.pc[p] < st.lens[p] {
		op := st.src.Op(p, int(st.pc[p]))
		st.res.Timeline = append(st.res.Timeline, Interval{
			Node:  p,
			Kind:  op.Kind,
			Peer:  op.Peer,
			Bytes: op.Bytes,
			Start: st.ready[p],
			End:   t,
		})
	}
	st.ready[p] = t
	st.pc[p]++
	st.eng.PostArg(event.Time(t), st.stepH, p)
}
