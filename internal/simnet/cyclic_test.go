package simnet

import (
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/model"
	"repro/internal/topology"
)

// cyclicSource is one cyclic phase laid out as ShapeCyclic promises — a
// barrier, span−1 posts, span−1 send/wait pairs and a shuffle — computed
// per op, as exchange.CompiledPlan computes its rows, rather than stored.
// mutate, when set, rewrites ops to break the promise.
type cyclicSource struct {
	nodes, stride, span, bytes int
	mutate                     func(p, i int, op Op) Op
}

func (s *cyclicSource) NumNodes() int  { return s.nodes }
func (s *cyclicSource) NumOps(int) int { return 3*s.span - 1 }

func (s *cyclicSource) PhaseSpans() []PhaseSpan {
	return []PhaseSpan{{Rows: s.NumOps(0), Stride: s.stride, Span: s.span, Shape: ShapeCyclic}}
}

// shifted returns p with its field digit moved by sh.
func (s *cyclicSource) shifted(p, sh int) int {
	f := p / s.stride % s.span
	return p + ((f+sh+s.span)%s.span-f)*s.stride
}

func (s *cyclicSource) Op(p, i int) Op {
	steps := s.span - 1
	var op Op
	switch k := i - 1 - steps; {
	case i == 0:
		op = Barrier()
	case k < 0:
		op = PostRecv(s.shifted(p, -i))
	case k < 2*steps && k%2 == 0:
		op = Send(s.shifted(p, k/2+1), s.bytes, Forced)
	case k < 2*steps:
		op = WaitRecv(s.shifted(p, -(k/2 + 1)))
	default:
		op = Shuffle(4 * s.bytes)
	}
	if s.mutate != nil {
		op = s.mutate(p, i, op)
	}
	return op
}

// UniformRow answers from the ops themselves, so it agrees with Op.
func (s *cyclicSource) UniformRow(i int) (OpKind, int, bool) {
	first := s.Op(0, i)
	for p := 1; p < s.nodes; p++ {
		if op := s.Op(p, i); op.Kind != first.Kind || op.Bytes != first.Bytes {
			return 0, 0, false
		}
	}
	return first.Kind, first.Bytes, true
}

// programs materializes the source's bare programs.
func (s *cyclicSource) programs() []Program {
	progs := make([]Program, s.nodes)
	for p := range progs {
		for i := 0; i < s.NumOps(p); i++ {
			progs[p] = append(progs[p], s.Op(p, i))
		}
	}
	return progs
}

// A window that keeps the cyclic promise runs on the interpreter and
// equals the engine over the same bare programs, bit for bit. A
// span labelled ShapeCyclic whose
// rows break the promise — a partner out of turn, an UNFORCED send, a
// missing post, an exchange phase — is refused by the certificate and
// runs on the generic engine, which equals them too.
func TestBrokenCyclicPromiseFallsBack(t *testing.T) {
	// swapSteps has node trade its step-1 and step-2 partners in the rows
	// of one kind.
	swapSteps := func(node int, kind OpKind) func(p, i int, op Op) Op {
		sign := 1
		if kind == OpWaitRecv {
			sign = -1
		}
		return func(p, i int, op Op) Op {
			if p != node || op.Kind != kind {
				return op
			}
			shape := &cyclicSource{nodes: 16, stride: 1, span: 4}
			switch op.Peer {
			case shape.shifted(p, sign):
				op.Peer = shape.shifted(p, 2*sign)
			case shape.shifted(p, 2*sign):
				op.Peer = shape.shifted(p, sign)
			}
			return op
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(p, i int, op Op) Op
		keeps  bool
	}{
		{"kept", nil, true},
		{"send partner out of turn", swapSteps(5, OpSend), false},
		{"wait partner out of turn", swapSteps(6, OpWaitRecv), false},
		{"unforced send", func(p, i int, op Op) Op {
			if p == 3 && op.Kind == OpSend {
				op.Type = Unforced
			}
			return op
		}, false},
		{"missing post", func(p, i int, op Op) Op {
			if p == 9 && i == 1 {
				op = Compute(0)
			}
			return op
		}, false},
		{"exchange rows", func(p, i int, op Op) Op {
			if op.Kind == OpSend {
				op = Exchange(p^1, op.Bytes)
			} else if op.Kind == OpWaitRecv || op.Kind == OpPostRecv {
				op = Compute(1)
			}
			return op
		}, false},
	} {
		src := &cyclicSource{nodes: 16, stride: 1, span: 4, bytes: 320, mutate: tc.mutate}
		want, err := New(topology.MustParseSpec("torus-4x4"), model.IPSC860()).Run(src.programs())
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		net := New(topology.MustParseSpec("torus-4x4"), model.IPSC860()) // a fresh handle: certificates start cold
		got := mustRunSource(t, net, src)
		if keeps := CyclicWindows(net, src) == 1; keeps != tc.keeps {
			t.Fatalf("%s: certificate says the promise is kept: %v, want %v", tc.name, keeps, tc.keeps)
		}
		requireIdentical(t, tc.name, want, got)
	}
}

// A warm cyclic replay allocates only its result and per-replay
// bookkeeping, not the link backlogs' spill storage: a contended phase
// stacks more circuits on a link than the inline ring holds, and the
// spills an earlier replay grew are reused.
func TestWarmCyclicReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops reused items at random under the race detector")
	}
	net := New(topology.MustParseSpec("torus-4x4x4"), model.IPSC860())
	src := &cyclicSource{nodes: 64, stride: 1, span: 64, bytes: 40 * 64}
	res := mustRunSource(t, net, src)
	if res.MaxEdgeQueue <= edgeRing {
		t.Fatalf("max edge queue %d: the phase never spills", res.MaxEdgeQueue)
	}
	allocs := testing.AllocsPerRun(20, func() { mustRunSource(t, net, src) })
	if allocs > 12 {
		t.Fatalf("a warm cyclic replay made %v allocations, want at most 12", allocs)
	}
}

// A replay whose phase runs on the engine allocates the finish times it
// returns and nothing per node besides: the replay state leaves its
// nodes' finish times in st.ready, not in a NodeFinish of its own. That
// holds with the link-backlog count on and off.
func TestEngineWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops reused items at random under the race detector")
	}
	src := &cyclicSource{nodes: 64, stride: 1, span: 64, bytes: 40 * 64}
	for _, count := range []bool{false, true} {
		net := New(topology.MustParseSpec("torus-4x4x4"), model.IPSC860())
		net.SetEdgeQueue(count)
		if res := mustRunSource(t, net, src); res.EnginePhases != 1 {
			t.Fatalf("count %v: %d engine phases, want the cyclic one", count, res.EnginePhases)
		}
		if allocs := testing.AllocsPerRun(20, func() { mustRunSource(t, net, src) }); allocs > 2 {
			t.Fatalf("count %v: an engine-run replay made %v allocations, want at most 2", count, allocs)
		}
	}
}

// messageStorage returns the bytes of message storage st keeps: its
// cyclic inbox and its channel table.
func (st *runState) messageStorage() (inbox, chans uintptr) {
	return uintptr(cap(st.cyc.inbox)), uintptr(cap(st.chans)) * unsafe.Sizeof(msgChan{})
}

// A state idling in the pool holds at most maxPooledInbox bytes of each
// kind of message storage, however much its last replay needed: the
// inbox of a cyclic phase of 4 624 nodes of 34-node rings, and the
// channel table of a 128-node all-to-all, are both larger. The replays
// that need them allocate their own, and compute what a first run does.
func TestOversizedInboxIsNotPooled(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the pool keeps what it is given
	cyc := &cyclicSource{nodes: 34 * 34 * 4, stride: 1, span: 34, bytes: 64}
	if inbox := cyc.nodes << 6; inbox <= maxPooledInbox {
		t.Fatalf("the cyclic inbox, %d B, is within the bound", inbox)
	}
	const n = 128 // n·(n−1) = 16 256 channels
	if table := n * (n - 1) * unsafe.Sizeof(msgChan{}); table <= maxPooledInbox {
		t.Fatalf("the channel table, %d B, is within the bound", table)
	}
	progs := make([]Program, n)
	for p := range progs {
		for k := 1; k < n; k++ {
			progs[p] = append(progs[p], Send(p^k, 8, Unforced))
		}
		for k := 1; k < n; k++ {
			progs[p] = append(progs[p], Recv(p^k))
		}
	}
	torus := topology.MustParseSpec("torus-34x34x4")
	first := mustRunSource(t, New(torus, model.IPSC860()), cyc)
	requireIdentical(t, "cyclic replay on a recycled state", first, mustRunSource(t, New(torus, model.IPSC860()), cyc))
	first = mustRun(t, mkNet(7, model.IPSC860()), progs)
	requireIdentical(t, "all-to-all on a recycled state", first, mustRun(t, mkNet(7, model.IPSC860()), progs))
	// Drain the pool: the states those replays released are among the
	// first it hands out, on this P or stolen from another.
	var held []*runState
	for range 64 {
		st := statePool.Get().(*runState)
		held = append(held, st)
		if inbox, chans := st.messageStorage(); inbox > maxPooledInbox || chans > maxPooledInbox {
			t.Errorf("a pooled state holds a %d B inbox and a %d B channel table, bound %d B", inbox, chans, maxPooledInbox)
		}
	}
	for _, st := range held {
		statePool.Put(st)
	}
}
