package collectives

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Broadcast: "broadcast", Scatter: "scatter", Gather: "gather", AllGather: "allgather",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind string must not be empty")
	}
}

func TestJoinBit(t *testing.T) {
	if joinBit(0, 4) != 16 {
		t.Errorf("root join = %d", joinBit(0, 4))
	}
	for r, want := range map[int]int{1: 1, 2: 2, 3: 1, 4: 4, 6: 2, 12: 4} {
		if joinBit(r, 4) != want {
			t.Errorf("joinBit(%d) = %d, want %d", r, joinBit(r, 4), want)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	net := simnet.New(topology.MustNew(3), model.IPSC860Raw())
	if _, err := Simulate(Broadcast, net, 8, 9); err == nil {
		t.Error("root out of cube must fail")
	}
	if _, err := Simulate(Broadcast, net, -1, 0); err == nil {
		t.Error("negative size must fail")
	}
	if _, err := Simulate(Kind(99), net, 8, 0); err == nil {
		t.Error("unknown kind must fail")
	}
}

// Every collective's simulated makespan must match its analytic model on
// an idle network (contention-free trees, lockstep).
func TestSimulateMatchesModel(t *testing.T) {
	for _, prm := range []model.Params{model.IPSC860Raw(), model.Hypothetical()} {
		for d := 1; d <= 6; d++ {
			net := simnet.New(topology.MustNew(d), prm)
			for _, k := range []Kind{Broadcast, Scatter, Gather, AllGather} {
				for _, m := range []int{1, 40, 100} {
					res, err := Simulate(k, net, m, 0)
					if err != nil {
						t.Fatalf("%v d=%d: %v", k, d, err)
					}
					want := Model(k, prm, m, d)
					if !almost(res.Makespan, want, 1e-6) {
						t.Errorf("%v d=%d m=%d: sim %v, model %v",
							k, d, m, res.Makespan, want)
					}
					if res.ContentionStall != 0 {
						t.Errorf("%v d=%d: tree schedule stalled %v",
							k, d, res.ContentionStall)
					}
					if res.DroppedForced != 0 {
						t.Errorf("%v d=%d: %d FORCED messages dropped — receives not pre-posted",
							k, d, res.DroppedForced)
					}
				}
			}
		}
	}
}

// Rooted collectives must cost the same from any root (the tree is a
// relabeling).
func TestRootIndependence(t *testing.T) {
	prm := model.IPSC860Raw()
	net := simnet.New(topology.MustNew(4), prm)
	for _, k := range []Kind{Broadcast, Scatter, Gather} {
		base, err := Simulate(k, net, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, root := range []int{1, 7, 15} {
			res, err := Simulate(k, net, 32, root)
			if err != nil {
				t.Fatal(err)
			}
			if !almost(res.Makespan, base.Makespan, 1e-9) {
				t.Errorf("%v root=%d: %v != %v", k, root, res.Makespan, base.Makespan)
			}
		}
	}
}

// Paper §3/§9: the complete exchange is the densest pattern; its time
// upper-bounds every other collective at the same per-pair block size.
func TestCompleteExchangeUpperBounds(t *testing.T) {
	prm := model.IPSC860()
	for d := 2; d <= 7; d++ {
		net := simnet.New(topology.MustNew(d), prm)
		for _, m := range []int{4, 40, 160} {
			best := math.Inf(1)
			it := partition.NewIterator(d)
			for D := it.Next(); D != nil; D = it.Next() {
				tt, _ := prm.Multiphase(m, d, D)
				if tt < best {
					best = tt
				}
			}
			for _, k := range []Kind{Broadcast, Scatter, Gather, AllGather} {
				res, err := Simulate(k, net, m, 0)
				if err != nil {
					t.Fatal(err)
				}
				if res.Makespan > best {
					t.Errorf("d=%d m=%d: %v (%v µs) exceeds best exchange (%v µs)",
						d, m, k, res.Makespan, best)
				}
			}
		}
	}
}

// Message accounting: scatter and gather must move exactly m(n−1) payload
// bytes; broadcast n−1 messages of m; allgather n·d exchanges.
func TestTrafficAccounting(t *testing.T) {
	prm := model.IPSC860Raw()
	d, m := 4, 10
	n := 16
	net := simnet.New(topology.MustNew(d), prm)

	res, err := Simulate(Broadcast, net, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != n-1 || res.BytesMoved != m*(n-1) {
		t.Errorf("broadcast: %d msgs %dB", res.Messages, res.BytesMoved)
	}
	res, err = Simulate(Scatter, net, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != n-1 {
		t.Errorf("scatter messages = %d", res.Messages)
	}
	// Scatter payload: Σ over tree edges of subtree sizes = m·Σ... for a
	// binomial tree this is m·(n/2·1 + n/4·2 + ...) = m·(n−1) only for
	// the root's sends; total over all edges is m·Σ_{levels} n/2 = m·d·n/2.
	if res.BytesMoved != m*d*n/2 {
		t.Errorf("scatter bytes = %d, want %d", res.BytesMoved, m*d*n/2)
	}
	res, err = Simulate(AllGather, net, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != n*d {
		t.Errorf("allgather messages = %d", res.Messages)
	}
}

// Data-movement correctness on the goroutine runtime, all roots, several
// shapes.
func TestRunBroadcastAllRoots(t *testing.T) {
	for d := 0; d <= 4; d++ {
		for root := 0; root < 1<<uint(d); root++ {
			if err := RunBroadcast(d, 9, root, 30*time.Second); err != nil {
				t.Errorf("d=%d root=%d: %v", d, root, err)
			}
		}
	}
}

func TestRunScatterAllRoots(t *testing.T) {
	for d := 0; d <= 4; d++ {
		for root := 0; root < 1<<uint(d); root++ {
			if err := RunScatter(d, 5, root, 30*time.Second); err != nil {
				t.Errorf("d=%d root=%d: %v", d, root, err)
			}
		}
	}
}

func TestRunGatherAllRoots(t *testing.T) {
	for d := 0; d <= 4; d++ {
		for root := 0; root < 1<<uint(d); root++ {
			if err := RunGather(d, 5, root, 30*time.Second); err != nil {
				t.Errorf("d=%d root=%d: %v", d, root, err)
			}
		}
	}
}

func TestRunAllGather(t *testing.T) {
	for d := 0; d <= 5; d++ {
		if err := RunAllGather(d, 7, 30*time.Second); err != nil {
			t.Errorf("d=%d: %v", d, err)
		}
	}
}

func TestRunRootValidation(t *testing.T) {
	if err := RunBroadcast(3, 4, 8, time.Second); err == nil {
		t.Error("broadcast root out of range must fail")
	}
	if err := RunScatter(3, 4, -1, time.Second); err == nil {
		t.Error("scatter root out of range must fail")
	}
	if err := RunGather(3, 4, 100, time.Second); err == nil {
		t.Error("gather root out of range must fail")
	}
}

func TestCollectivesQuick(t *testing.T) {
	f := func(dRaw, rootRaw, mRaw uint8) bool {
		d := int(dRaw)%4 + 1
		root := int(rootRaw) % (1 << uint(d))
		m := int(mRaw)%13 + 1
		return RunBroadcast(d, m, root, 30*time.Second) == nil &&
			RunScatter(d, m, root, 30*time.Second) == nil &&
			RunGather(d, m, root, 30*time.Second) == nil &&
			RunAllGather(d, m, 30*time.Second) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestModelDegenerate(t *testing.T) {
	prm := model.IPSC860()
	for _, k := range []Kind{Broadcast, Scatter, Gather, AllGather, Kind(77)} {
		if Model(k, prm, 100, 0) != 0 {
			t.Errorf("%v on 0-cube must cost 0", k)
		}
	}
	if Model(Kind(77), prm, 100, 3) != 0 {
		t.Error("unknown kind must cost 0")
	}
}

// The tree schedules use only dimension-1 hops, so every simultaneous
// step is trivially edge-contention-free; verify via the step analyzer on
// the broadcast tree levels.
func TestBroadcastLevelsContentionFree(t *testing.T) {
	d := 5
	h := topology.MustNew(d)
	for root := 0; root < 1<<uint(d); root += 7 {
		for i := 0; i < d; i++ {
			bit := 1 << uint(i)
			var step []topology.Transfer
			for r := 0; r < bit; r++ {
				step = append(step, topology.Transfer{Src: r ^ root, Dst: (r + bit) ^ root})
			}
			rep, err := topology.Analyze(h, step)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.EdgeContentionFree() {
				t.Errorf("root=%d level %d contended", root, i)
			}
		}
	}
	_ = exchange.PayloadByte // payload helper shared with data tests
}
