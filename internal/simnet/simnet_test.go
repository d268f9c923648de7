package simnet

import (
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mkNet(d int, p model.Params) *Network {
	return New(topology.MustNew(d), p)
}

func emptyPrograms(n int) []Program {
	return make([]Program, n)
}

func TestRunWrongProgramCount(t *testing.T) {
	n := mkNet(2, model.IPSC860())
	if _, err := n.Run(make([]Program, 3)); err == nil {
		t.Error("wrong program count must fail")
	}
}

func TestEmptyProgramsFinishAtZero(t *testing.T) {
	n := mkNet(3, model.IPSC860())
	res, err := n.Run(emptyPrograms(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.Messages != 0 {
		t.Errorf("empty run: %+v", res)
	}
}

// A single pairwise exchange with sync must cost exactly
// λ0 + δh + λ + τm + δh = λ_eff + τm + δ_eff·h (§7.4).
func TestExchangeTimingWithSync(t *testing.T) {
	p := model.IPSC860()
	n := mkNet(3, p)
	progs := emptyPrograms(8)
	m := 100
	progs[0] = Program{Exchange(7, m)} // distance 3
	progs[7] = Program{Exchange(0, m)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	want := p.EffLambda() + p.Tau*float64(m) + p.EffDelta()*3
	if !almost(res.Makespan, want, 1e-9) {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Messages != 2 || res.BytesMoved != 2*m {
		t.Errorf("stats: %+v", res)
	}
}

// Without pairwise sync the two transfers serialize: 2(λ + τm + δh).
func TestExchangeTimingWithoutSync(t *testing.T) {
	p := model.IPSC860NoSync()
	n := mkNet(3, p)
	progs := emptyPrograms(8)
	m := 100
	progs[1] = Program{Exchange(3, m)} // distance 1
	progs[3] = Program{Exchange(1, m)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (p.Lambda + p.Tau*float64(m) + p.Delta*1)
	if !almost(res.Makespan, want, 1e-9) {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
}

// Pairwise sync is always worth it on iPSC-860 parameters (§7.2): the
// synchronized exchange must be faster than the serialized one.
func TestSyncAblation(t *testing.T) {
	for _, m := range []int{0, 10, 100, 1000} {
		run := func(p model.Params) float64 {
			n := mkNet(2, p)
			progs := emptyPrograms(4)
			progs[0] = Program{Exchange(1, m)}
			progs[1] = Program{Exchange(0, m)}
			res, err := n.Run(progs)
			if err != nil {
				t.Fatal(err)
			}
			return res.Makespan
		}
		sync := run(model.IPSC860())
		nosync := run(model.IPSC860NoSync())
		if sync >= nosync {
			t.Errorf("m=%d: synced %v must beat unsynced %v", m, sync, nosync)
		}
	}
}

func TestExchangeSelfIsNoop(t *testing.T) {
	n := mkNet(2, model.IPSC860())
	progs := emptyPrograms(4)
	progs[2] = Program{Exchange(2, 50), Compute(7)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 7, 1e-9) {
		t.Errorf("makespan = %v, want 7", res.Makespan)
	}
	if res.Messages != 0 {
		t.Error("self exchange must move no messages")
	}
}

func TestExchangeMismatchedSizes(t *testing.T) {
	n := mkNet(1, model.IPSC860())
	progs := []Program{{Exchange(1, 10)}, {Exchange(0, 20)}}
	if _, err := n.Run(progs); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("size mismatch must fail, got %v", err)
	}
}

func TestExchangeDeadlock(t *testing.T) {
	n := mkNet(1, model.IPSC860())
	progs := []Program{{Exchange(1, 10)}, {}}
	_, err := n.Run(progs)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("unmatched exchange must deadlock, got %v", err)
	}
}

func TestExchangeBadPeer(t *testing.T) {
	n := mkNet(1, model.IPSC860())
	progs := []Program{{Exchange(5, 10)}, {}}
	if _, err := n.Run(progs); err == nil {
		t.Error("exchange with nonexistent node must fail")
	}
}

// Receive-family ops with a peer outside the cube must fail the run with
// an error, like sends and exchanges do.
func TestRecvBadPeer(t *testing.T) {
	for _, prog := range []Program{
		{PostRecv(99)},
		{WaitRecv(99)},
		{Recv(-1)},
	} {
		n := mkNet(1, model.IPSC860())
		if _, err := n.Run([]Program{prog, {}}); err == nil ||
			!strings.Contains(err.Error(), "nonexistent") {
			t.Errorf("%v must fail with a nonexistent-node error, got %v", prog, err)
		}
	}
}

func TestRepeatedExchangesSamePair(t *testing.T) {
	p := model.IPSC860()
	n := mkNet(1, p)
	k := 5
	var a, b Program
	for i := 0; i < k; i++ {
		a = append(a, Exchange(1, 10))
		b = append(b, Exchange(0, 10))
	}
	res, err := n.Run([]Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	one := p.EffLambda() + p.Tau*10 + p.EffDelta()
	if !almost(res.Makespan, float64(k)*one, 1e-6) {
		t.Errorf("makespan = %v, want %v", res.Makespan, float64(k)*one)
	}
	if res.Messages != 2*k {
		t.Errorf("messages = %d", res.Messages)
	}
}

func TestSendRecvTiming(t *testing.T) {
	p := model.IPSC860Raw()
	n := mkNet(3, p)
	progs := emptyPrograms(8)
	progs[0] = Program{Send(5, 64, Unforced)} // distance 2
	progs[5] = Program{Recv(0), Compute(10)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	// 64 ≤ 100 bytes: no reserve-ack.
	arrival := p.Lambda + p.Tau*64 + p.Delta*2
	if !almost(res.NodeFinish[5], arrival+10, 1e-9) {
		t.Errorf("receiver finish = %v, want %v", res.NodeFinish[5], arrival+10)
	}
	if res.DroppedForced != 0 {
		t.Error("unforced message must not drop")
	}
}

func TestUnforcedReserveAckAboveThreshold(t *testing.T) {
	p := model.IPSC860Raw()
	n := mkNet(2, p)

	run := func(m int) float64 {
		progs := emptyPrograms(4)
		progs[0] = Program{Send(1, m, Unforced)}
		progs[1] = Program{Recv(0)}
		res, err := n.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	below := run(100)
	above := run(101)
	extra := above - below
	// Reserve-ack adds 2(λ0 + δh) beyond the marginal byte cost.
	want := 2*(p.LambdaZero+p.Delta*1) + p.Tau*1
	if !almost(extra, want, 1e-9) {
		t.Errorf("reserve-ack penalty = %v, want %v", extra, want)
	}
}

// A FORCED message arriving before its receive is posted is dropped
// (§7.3: omitting the synchronization "is fatal").
func TestForcedDroppedWithoutPostedReceive(t *testing.T) {
	p := model.IPSC860Raw()
	n := mkNet(2, p)
	progs := emptyPrograms(4)
	progs[0] = Program{Send(1, 8, Forced)}
	// Receiver is busy computing past the arrival, then posts+waits.
	progs[1] = Program{Compute(10_000), Recv(0)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedForced != 1 {
		t.Errorf("DroppedForced = %d, want 1", res.DroppedForced)
	}
}

// Pre-posting the receive (the paper's implementation pattern) avoids the
// drop even when the receiver is late to wait.
func TestForcedSafeWithPrepostedReceive(t *testing.T) {
	p := model.IPSC860Raw()
	n := mkNet(2, p)
	progs := emptyPrograms(4)
	progs[0] = Program{Send(1, 8, Forced)}
	progs[1] = Program{PostRecv(0), Compute(10_000), WaitRecv(0)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedForced != 0 {
		t.Errorf("DroppedForced = %d, want 0", res.DroppedForced)
	}
	if !almost(res.NodeFinish[1], 10_000, 1e-9) {
		t.Errorf("receiver finish = %v (message should have arrived during compute)",
			res.NodeFinish[1])
	}
}

func TestBarrierCostAndRelease(t *testing.T) {
	p := model.IPSC860()
	d := 4
	n := mkNet(d, p)
	progs := emptyPrograms(16)
	for i := range progs {
		progs[i] = Program{Compute(float64(i)), Barrier()}
	}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	want := 15 + p.GlobalSync(d) // slowest arrival + 150·d
	if !almost(res.Makespan, want, 1e-9) {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	for i, f := range res.NodeFinish {
		if !almost(f, want, 1e-9) {
			t.Errorf("node %d finish %v, want %v (all release together)", i, f, want)
		}
	}
	if res.Barriers != 1 {
		t.Errorf("barriers = %d", res.Barriers)
	}
}

func TestSequentialBarriers(t *testing.T) {
	p := model.IPSC860()
	d := 2
	n := mkNet(d, p)
	progs := emptyPrograms(4)
	for i := range progs {
		progs[i] = Program{Barrier(), Barrier(), Barrier()}
	}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Barriers != 3 {
		t.Errorf("barriers = %d, want 3", res.Barriers)
	}
	if !almost(res.Makespan, 3*p.GlobalSync(d), 1e-9) {
		t.Errorf("makespan = %v", res.Makespan)
	}
}

func TestShuffleCost(t *testing.T) {
	p := model.IPSC860()
	n := mkNet(2, p)
	progs := emptyPrograms(4)
	progs[0] = Program{Shuffle(1000)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, p.Rho*1000, 1e-9) {
		t.Errorf("shuffle makespan = %v, want %v", res.Makespan, p.Rho*1000)
	}
}

func TestNegativeComputeFails(t *testing.T) {
	n := mkNet(1, model.IPSC860())
	progs := []Program{{Compute(-5)}, {}}
	if _, err := n.Run(progs); err == nil {
		t.Error("negative compute must fail")
	}
}

// A non-finite duration must fail the run as an error: as a timestamp it
// would panic the event engine (NaN, which a plain "< 0" guard lets
// through) or park the clock at infinity.
func TestNonFiniteDurationsFail(t *testing.T) {
	for _, micros := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		n := mkNet(1, model.IPSC860())
		if _, err := n.Run([]Program{{Compute(micros)}, {}}); err == nil || !strings.Contains(err.Error(), "compute time") {
			t.Errorf("compute time %v: err = %v", micros, err)
		}
	}
	for name, bend := range map[string]func(*model.Params){
		"NaN tau":      func(p *model.Params) { p.Tau = math.NaN() },
		"infinite tau": func(p *model.Params) { p.Tau = math.Inf(1) },
		"NaN lambda":   func(p *model.Params) { p.Lambda = math.NaN() },
	} {
		prm := model.IPSC860()
		bend(&prm)
		for kind, progs := range map[string][]Program{
			"exchange": {{Exchange(1, 64)}, {Exchange(0, 64)}},
			"send":     {{Send(1, 64, Forced)}, {Recv(0)}},
		} {
			if _, err := mkNet(1, prm).Run(progs); err == nil || !strings.Contains(err.Error(), "transmission") {
				t.Errorf("%s, %s: err = %v", name, kind, err)
			}
		}
	}
}

// Two circuits sharing a directed link must serialize — the edge
// contention mechanism of §2. Sends 0→3 and 1→3 share edge 1→3? Under
// e-cube, 0→3 routes 0→1→3 and 1→3 routes 1→3: both use directed link
// 1→3.
func TestEdgeContentionSerializes(t *testing.T) {
	p := model.IPSC860Raw()
	n := mkNet(2, p)
	progs := emptyPrograms(4)
	progs[0] = Program{Send(3, 50, Unforced)}
	progs[1] = Program{Send(3, 50, Unforced)}
	progs[3] = Program{Recv(0), Recv(1)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContentionStall <= 0 {
		t.Error("expected contention stall on shared link 1→3")
	}
	if res.MaxEdgeQueue < 2 {
		t.Errorf("MaxEdgeQueue = %d, want ≥2", res.MaxEdgeQueue)
	}
	// Serial lower bound: the second circuit cannot start before the
	// first releases the shared link.
	first := p.RawMessageTime(50, 2) // 0→3, distance 2
	if res.Makespan <= first {
		t.Errorf("makespan %v must exceed first circuit %v", res.Makespan, first)
	}
}

// Opposite directions of one wire are distinct resources: 0→1 and 1→0
// simultaneously must not stall.
func TestFullDuplexLinks(t *testing.T) {
	p := model.IPSC860Raw()
	n := mkNet(1, p)
	progs := []Program{
		{Send(1, 40, Unforced), Recv(1)},
		{Send(0, 40, Unforced), Recv(0)},
	}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContentionStall != 0 {
		t.Errorf("full-duplex sends must not contend, stall=%v", res.ContentionStall)
	}
	if !almost(res.Makespan, p.RawMessageTime(40, 1), 1e-9) {
		t.Errorf("makespan = %v", res.Makespan)
	}
}

// Determinism: identical runs produce identical results.
func TestRunDeterministic(t *testing.T) {
	build := func() ([]Program, *Network) {
		n := mkNet(3, model.IPSC860())
		progs := emptyPrograms(8)
		for i := range progs {
			progs[i] = Program{Barrier(), Exchange(i^5, 33), Shuffle(264), Exchange(i^3, 33)}
		}
		return progs, n
	}
	p1, n1 := build()
	r1, err := n1.Run(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2, n2 := build()
	r2, err := n2.Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.Messages != r2.Messages ||
		r1.ContentionStall != r2.ContentionStall {
		t.Errorf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestMsgTypeAndOpKindStrings(t *testing.T) {
	if Forced.String() != "FORCED" || Unforced.String() != "UNFORCED" {
		t.Error("MsgType strings")
	}
	if MsgType(9).String() == "" || OpKind(99).String() == "" {
		t.Error("unknown enum strings must not be empty")
	}
	kinds := []OpKind{OpExchange, OpSend, OpPostRecv, OpWaitRecv, OpRecv, OpShuffle, OpCompute, OpBarrier}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate OpKind string %q", s)
		}
		seen[s] = true
	}
}

func TestCubeAndParamsAccessors(t *testing.T) {
	p := model.IPSC860()
	n := mkNet(4, p)
	if n.Topo().NumDims() != 4 || n.Nodes() != 16 {
		t.Error("Topo accessor")
	}
	if n.Params().Lambda != p.Lambda {
		t.Error("Params accessor")
	}
}

func TestEventBudgetExhaustion(t *testing.T) {
	n := mkNet(2, model.IPSC860())
	n.SetEventBudget(3)
	progs := emptyPrograms(4)
	for i := range progs {
		progs[i] = Program{Compute(1), Compute(1), Compute(1), Compute(1)}
	}
	if _, err := n.Run(progs); err == nil ||
		!strings.Contains(err.Error(), "budget") {
		t.Errorf("tiny budget must trip the watchdog, got %v", err)
	}
	n.SetEventBudget(0) // restore default
	if _, err := n.Run(progs); err != nil {
		t.Errorf("default budget must suffice: %v", err)
	}
}

// The budget error must be actionable: events executed plus each
// unfinished node's program counter and current op, matching the detail
// of the deadlock error path.
func TestEventBudgetErrorDetail(t *testing.T) {
	n := mkNet(2, model.IPSC860())
	n.SetEventBudget(5)
	progs := emptyPrograms(4)
	for i := range progs {
		progs[i] = Program{Compute(1), Exchange(i^1, 16), Compute(1)}
	}
	_, err := n.Run(progs)
	if err == nil {
		t.Fatal("tiny budget must trip the watchdog")
	}
	msg := err.Error()
	for _, want := range []string{"budget", "5 events", "unfinished", "node 0 at op", "/3", "peer"} {
		if !strings.Contains(msg, want) {
			t.Errorf("budget error missing %q: %v", want, msg)
		}
	}
	// Many stuck nodes are summarized, not listed exhaustively.
	big := mkNet(4, model.IPSC860())
	big.SetEventBudget(1)
	bigProgs := emptyPrograms(16)
	for i := range bigProgs {
		bigProgs[i] = Program{Barrier()}
	}
	_, err = big.Run(bigProgs)
	if err == nil || !strings.Contains(err.Error(), "more") {
		t.Errorf("16 stuck nodes should be summarized: %v", err)
	}
}

// sliceSource adapts programs to the Source interface directly, to pin
// RunSource's behaviour against Run's.
type sliceSource []Program

func (s sliceSource) NumNodes() int    { return len(s) }
func (s sliceSource) NumOps(p int) int { return len(s[p]) }
func (s sliceSource) Op(p, i int) Op   { return s[p][i] }

func TestRunSourceMatchesRun(t *testing.T) {
	p := model.IPSC860()
	build := func() []Program {
		progs := emptyPrograms(8)
		for i := range progs {
			progs[i] = Program{Barrier(), Exchange(i^5, 33), Shuffle(264), Exchange(i^3, 33)}
		}
		return progs
	}
	n1 := mkNet(3, p)
	r1, err := n1.Run(build())
	if err != nil {
		t.Fatal(err)
	}
	n2 := mkNet(3, p)
	r2, err := n2.RunSource(sliceSource(build()))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.Messages != r2.Messages || r1.Barriers != r2.Barriers {
		t.Errorf("RunSource %+v differs from Run %+v", r2, r1)
	}
	if _, err := n2.RunSource(sliceSource(make([]Program, 3))); err == nil {
		t.Error("wrong source size must fail")
	}
}

func TestTimelineUnderContention(t *testing.T) {
	// Two circuits sharing link 1→3 serialize; the second sender's
	// interval must cover its stall (occupancy = wait + transfer).
	p := model.IPSC860Raw()
	n := mkNet(2, p)
	n.SetTrace(true)
	progs := emptyPrograms(4)
	progs[0] = Program{Send(3, 50, Unforced)}
	progs[1] = Program{Send(3, 50, Unforced)}
	progs[3] = Program{Recv(0), Recv(1)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	var sendSpans []float64
	for _, iv := range res.Timeline {
		if iv.Kind == OpSend {
			sendSpans = append(sendSpans, iv.End-iv.Start)
		}
	}
	if len(sendSpans) != 2 {
		t.Fatalf("send intervals = %d", len(sendSpans))
	}
	if sendSpans[0] == sendSpans[1] {
		t.Error("one send should have stalled longer than the other")
	}
}

func TestNodeFinishMatchesMakespan(t *testing.T) {
	p := model.IPSC860()
	n := mkNet(3, p)
	progs := emptyPrograms(8)
	for i := range progs {
		progs[i] = Program{Compute(float64(i * 10))}
	}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	max := 0.0
	for i, f := range res.NodeFinish {
		if !almost(f, float64(i*10), 1e-9) {
			t.Errorf("node %d finish %v", i, f)
		}
		if f > max {
			max = f
		}
	}
	if res.Makespan != max {
		t.Errorf("makespan %v != max finish %v", res.Makespan, max)
	}
}

func TestJitterZeroIsExact(t *testing.T) {
	p := model.IPSC860()
	n := mkNet(2, p)
	n.SetJitter(0, 1)
	progs := emptyPrograms(4)
	progs[0] = Program{Exchange(1, 100)}
	progs[1] = Program{Exchange(0, 100)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	want := p.EffLambda() + p.Tau*100 + p.EffDelta()
	if !almost(res.Makespan, want, 1e-9) {
		t.Errorf("zero jitter must be exact: %v vs %v", res.Makespan, want)
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	p := model.IPSC860()
	run := func(seed int64) float64 {
		n := mkNet(2, p)
		n.SetJitter(0.05, seed)
		progs := emptyPrograms(4)
		progs[0] = Program{Exchange(1, 100)}
		progs[1] = Program{Exchange(0, 100)}
		res, err := n.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	exact := p.EffLambda() + p.Tau*100 + p.EffDelta()
	a := run(7)
	if a < exact*0.95-1e-9 || a > exact*1.05+1e-9 {
		t.Errorf("jittered time %v outside ±5%% of %v", a, exact)
	}
	if a != run(7) {
		t.Error("same seed must reproduce")
	}
	if a == run(8) && run(8) == run(9) {
		t.Error("different seeds should usually differ")
	}
	// Negative frac clamps to zero.
	n := mkNet(1, p)
	n.SetJitter(-1, 0)
	progs := []Program{{Exchange(1, 10)}, {Exchange(0, 10)}}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, p.EffLambda()+p.Tau*10+p.EffDelta(), 1e-9) {
		t.Error("negative frac must behave as zero")
	}
}
