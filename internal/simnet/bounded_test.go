package simnet_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// plainSource presents explicit programs as a bare Source — not a Phased
// one, so every epoch runs on the engine.
type plainSource []simnet.Program

func (s plainSource) NumNodes() int         { return len(s) }
func (s plainSource) NumOps(p int) int      { return len(s[p]) }
func (s plainSource) Op(p, i int) simnet.Op { return s[p][i] }

// boundedCase returns the case's network and its source: the compiled
// plan, or the explicit programs as a plain Source.
func boundedCase(t *testing.T, c identityCase) (*simnet.Network, simnet.Source) {
	t.Helper()
	net, compiled := c.network(t)
	if compiled == nil {
		return net, plainSource(c.progs(net.Nodes()))
	}
	return net, compiled
}

// cutoffFractions straddle a run's makespan: well inside it, one ulp-scale
// step either side of it, and beyond it.
var cutoffFractions = []float64{0.25, 0.5, 1 - 1e-12, 1, 1 + 1e-12, 2}

// A bounded replay is abandoned with ErrCutoff if and only if the makespan
// exceeds the cutoff, and otherwise is the unbounded replay of the bare
// programs bit for bit — for plain programs, in closed-form phases and in
// engine windows, over every pinned case.
func TestBoundedReplay(t *testing.T) {
	for _, c := range identityCases {
		want := c.oracle(t)
		for _, frac := range cutoffFractions {
			cutoff := frac * want.Makespan
			label := fmt.Sprintf("%s cutoff=%v×makespan", c.name, frac)
			net, src := boundedCase(t, c)
			res, err := net.RunSourceBounded(src, cutoff)
			if want.Makespan > cutoff {
				if !errors.Is(err, simnet.ErrCutoff) {
					t.Errorf("%s: makespan %v above cutoff %v, got err %v", label, want.Makespan, cutoff, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: makespan %v within cutoff %v, got err %v", label, want.Makespan, cutoff, err)
				continue
			}
			if got := digestOf(res); got != digestOf(want) {
				t.Errorf("%s: a completed bounded run differs from the unbounded one:\n  got  %+v\n  want %+v",
					label, got, digestOf(want))
			}
		}
		net, src := boundedCase(t, c)
		if _, err := net.RunSourceBounded(src, -1); !errors.Is(err, simnet.ErrCutoff) {
			t.Errorf("%s: negative cutoff: %v", c.name, err)
		}
	}
}

// The cutoff is a statement about the makespan of a run that completes,
// and replaces no other verdict that comes first: a program that deadlocks
// before any clock passes the cutoff reports the deadlock, and an explicit
// event budget that runs out first still reports the budget.
func TestBoundedReplayKeepsOtherVerdicts(t *testing.T) {
	prm := model.IPSC860()
	net := simnet.New(topology.MustNew(2), prm)
	stuck := plainSource{{simnet.Compute(1), simnet.Compute(1), simnet.Exchange(1, 8)}, {simnet.Compute(2)}, {}, {}}
	if _, err := net.RunSourceBounded(stuck, 1e6); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("deadlock under a cutoff above its last event: %v", err)
	}
	if _, err := net.RunSourceBounded(stuck, 1.5); !errors.Is(err, simnet.ErrCutoff) {
		t.Errorf("deadlocking program whose clocks pass the cutoff first: %v", err)
	}

	busy := plainSource{{simnet.Compute(1), simnet.Compute(1), simnet.Compute(1), simnet.Compute(1)}, {}, {}, {}}
	net.SetEventBudget(5) // four seed events, then one step
	if _, err := net.RunSourceBounded(busy, 3.5); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("budget exhausted before the cutoff: %v", err)
	}
	if _, err := net.RunSourceBounded(busy, 0.5); !errors.Is(err, simnet.ErrCutoff) {
		t.Errorf("cutoff passed before the budget ran out: %v", err)
	}
	net.SetEventBudget(0)
	if res, err := net.RunSourceBounded(busy, 4); err != nil || res.Makespan != 4 {
		t.Errorf("cutoff equal to the makespan: %v, %v", res.Makespan, err)
	}

	// A cyclic phase window: the budget counts the whole run's events.
	torus := topology.MustParseSpec("torus-4x4")
	plan, err := exchange.NewPlanOn(torus, 32, partition.Partition{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cyclic := simnet.New(torus, prm)
	cyclic.SetEventBudget(3)
	if _, err := cyclic.RunSourceBounded(plan.Compile(), 1e9); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("window budget exhausted under a far cutoff: %v", err)
	}
}

// FuzzBoundedReplay: for any topology, grouping, block size, jitter
// setting and cutoff, a bounded replay is abandoned exactly when the
// engine replay's makespan over the bare programs exceeds the cutoff, and otherwise
// equals it.
func FuzzBoundedReplay(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint16(24), false, uint16(500))
	f.Add(uint8(3), uint8(0b10010), uint16(40), false, uint16(1000))
	f.Add(uint8(5), uint8(0b01), uint16(32), false, uint16(999))
	f.Add(uint8(6), uint8(0b11111), uint16(1), true, uint16(1001))
	f.Add(uint8(10), uint8(0b1), uint16(8), false, uint16(250))
	f.Add(uint8(13), uint8(0b101), uint16(0), false, uint16(2000))
	f.Fuzz(func(t *testing.T, spec, cuts uint8, m uint16, jitter bool, permille uint16) {
		topo := topology.MustParseSpec(fuzzSpecs[int(spec)%len(fuzzSpecs)])
		plan, err := exchange.NewPlanOn(topo, int(m%512), fuzzGrouping(topo, cuts))
		if err != nil {
			t.Skip(err)
		}
		src := plan.Compile()
		net := simnet.New(topo, model.IPSC860())
		if jitter {
			net.SetJitter(0.05, int64(cuts))
		}
		oracle, err := net.Run(src.Programs())
		if err != nil {
			t.Fatal(err)
		}
		// permille 1000 is the makespan itself: the boundary is in reach.
		cutoff := oracle.Makespan * float64(permille%2048) / 1000
		res, err := net.RunSourceBounded(src, cutoff)
		if oracle.Makespan > cutoff {
			if !errors.Is(err, simnet.ErrCutoff) {
				t.Fatalf("%v: makespan %v above cutoff %v, got err %v", plan, oracle.Makespan, cutoff, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%v: makespan %v within cutoff %v, got err %v", plan, oracle.Makespan, cutoff, err)
		}
		requireSameSimulation(t, plan.String(), oracle, res)
	})
}
