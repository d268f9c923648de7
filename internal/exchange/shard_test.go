package exchange_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// costOn replays src on a fresh network over topo with the given jitter
// and shard count and returns the result.
func costOn(t *testing.T, topo topology.Network, src simnet.Source, jitterFrac float64, shards int) simnet.Result {
	t.Helper()
	net := simnet.New(topo, model.IPSC860())
	net.SetJitter(jitterFrac, 7)
	net.SetReplayShards(shards)
	res, err := net.RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// simulated strips the fields that report how a result was produced —
// shards, pricing modes, certificate passes — leaving what was simulated.
func simulated(r simnet.Result) simnet.Result {
	r.ReplayShards, r.ClosedFormPhases, r.EnginePhases, r.DeclineReason, r.Certificates = 0, 0, 0, "", 0
	return r
}

// requireBitIdentical asserts every simulated Result field matches
// bit-for-bit — the contract of every replay mode.
func requireBitIdentical(t *testing.T, label string, serial, sharded simnet.Result) {
	t.Helper()
	serial, sharded = simulated(serial), simulated(sharded)
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatalf("%s: sharded ≠ serial\nserial:  %+v\nsharded: %+v", label, serial, sharded)
	}
}

// engineOracle replays the compiled plan's bare per-node programs through
// the monolithic event loop — no phase structure, no certificates, no
// shards: the reference every other replay mode must equal.
func engineOracle(t *testing.T, topo topology.Network, src *exchange.CompiledPlan, jitterFrac float64) simnet.Result {
	t.Helper()
	net := simnet.New(topo, model.IPSC860())
	net.SetJitter(jitterFrac, 7)
	res, err := net.Run(src.Programs())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireMode asserts how a replay priced its phases. A jitter-free XOR
// phase of a healthy topology is answered by its certificate, so sharding
// has nothing to engage on; everything else — any phase under jitter,
// cyclic phases — must have run on the engine, and a replay with such
// phases on several shards when asked for them.
func requireMode(t *testing.T, label string, res simnet.Result, plan *exchange.Plan, jitter float64, shards int) {
	t.Helper()
	closed := 0
	for _, ph := range plan.Phases() {
		if ph.XOR && jitter == 0 {
			closed++
		}
	}
	engine := plan.NumPhases() - closed
	if res.ClosedFormPhases != closed || res.EnginePhases != engine || (engine == 0) != (res.DeclineReason == "") {
		t.Fatalf("%s: %d phases priced in closed form and %d on the engine (declined for %q), want %d and %d",
			label, res.ClosedFormPhases, res.EnginePhases, res.DeclineReason, closed, engine)
	}
	if engine > 0 && shards > 1 && res.ReplayShards < 2 {
		t.Fatalf("%s: sharded replay fell back (ReplayShards=%d)", label, res.ReplayShards)
	}
}

// The equivalence matrix: compiled multiphase plans on all three topology
// families, with jitter off and on, replayed on one engine and across
// several shard counts — every simulated field must agree bit-for-bit
// with the monolithic engine loop, and each replay must have been priced
// the way its input dictates (no silent fallback, no silent engine run).
func TestShardedReplayEquivalence(t *testing.T) {
	cases := []struct {
		spec string
		m    int
		D    partition.Partition
	}{
		{"hypercube-6", 16, partition.Partition{3, 2, 1}},
		{"hypercube-6", 8, partition.Partition{2, 2, 2}},
		{"hypercube-4", 40, partition.Partition{1, 1, 1, 1}},
		{"torus-4x4x4", 24, partition.Partition{2, 1}},
		{"torus-4x4", 8, partition.Partition{1, 1}},
		{"mesh-4x4", 8, partition.Partition{1, 1}},
		{"mesh-8x2", 16, partition.Partition{1, 1}}, // one cyclic phase, one XOR
	}
	for _, tc := range cases {
		topo := topology.MustParseSpec(tc.spec)
		plan, err := exchange.NewPlanOn(topo, tc.m, tc.D)
		if err != nil {
			t.Fatalf("%s %v: %v", tc.spec, tc.D, err)
		}
		src := plan.Compile()
		for _, jitter := range []float64{0, 0.05} {
			oracle := engineOracle(t, topo, src, jitter)
			for _, w := range []int{1, 2, 3, 4} {
				label := fmt.Sprintf("%s/%v w=%d jitter=%v", tc.spec, tc.D, w, jitter)
				res := costOn(t, topo, src, jitter, w)
				requireMode(t, label, res, plan, jitter, w)
				requireBitIdentical(t, label, oracle, res)
			}
		}
	}
}

// Single-phase fragments — the optimizer's memoized costing unit — must
// replay equivalently too: in closed form when nothing forbids it, on
// link-disjoint shards under jitter.
func TestShardedFragmentEquivalence(t *testing.T) {
	topo := topology.MustParseSpec("hypercube-6")
	plan, err := exchange.NewPlanOn(topo, 16, partition.Partition{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < plan.NumPhases(); pi++ {
		frag := plan.CompilePhase(pi)
		for _, jitter := range []float64{0, 0.05} {
			oracle := engineOracle(t, topo, frag, jitter)
			for _, w := range []int{1, 4} {
				label := fmt.Sprintf("phase %d w=%d jitter=%v", pi, w, jitter)
				res := costOn(t, topo, frag, jitter, w)
				if closed := jitter == 0; closed != (res.ClosedFormPhases == 1) || closed == (res.EnginePhases == 1) {
					t.Fatalf("%s: %d closed-form and %d engine phases", label, res.ClosedFormPhases, res.EnginePhases)
				}
				if jitter != 0 && w > 1 && res.ReplayShards < 2 {
					t.Fatalf("%s: fragment fell back (ReplayShards=%d)", label, res.ReplayShards)
				}
				requireBitIdentical(t, label, oracle, res)
			}
		}
	}
}

// PhaseSpans is the compiled plan's sharding metadata: one span per
// phase, row counts covering the whole table, and fragment compilation
// reproducing the corresponding whole-plan entry.
func TestCompiledPlanPhaseSpans(t *testing.T) {
	topo := topology.MustParseSpec("hypercube-6")
	plan, err := exchange.NewPlanOn(topo, 16, partition.Partition{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	c := plan.Compile()
	spans := c.PhaseSpans()
	if len(spans) != plan.NumPhases() {
		t.Fatalf("PhaseSpans has %d entries for %d phases", len(spans), plan.NumPhases())
	}
	total := 0
	for i, sp := range spans {
		if sp.Rows < 1 || sp.Span < 2 || sp.Stride < 1 {
			t.Fatalf("span %d malformed: %+v", i, sp)
		}
		total += sp.Rows
	}
	if total != c.NumOps(0) {
		t.Fatalf("span rows sum to %d, op table has %d rows", total, c.NumOps(0))
	}
	for i := 0; i < plan.NumPhases(); i++ {
		frag := plan.CompilePhase(i)
		fs := frag.PhaseSpans()
		if len(fs) != 1 {
			t.Fatalf("fragment %d has %d spans", i, len(fs))
		}
		if fs[0] != spans[i] {
			t.Fatalf("fragment %d span %+v ≠ whole-plan span %+v", i, fs[0], spans[i])
		}
		if fs[0].Rows != frag.NumOps(0) {
			t.Fatalf("fragment %d span covers %d of %d rows", i, fs[0].Rows, frag.NumOps(0))
		}
	}
}

// A slow-wire-only overlay keeps base routes, so sharding still engages
// and stays bit-identical: per-circuit slow factors are pure functions of
// the route. That holds with the slow wires on one shard or spread over
// several: wires 0–1 and 4–5 lie in different groups of the stride-1
// phase, so two shards stretch circuits of their own.
func TestShardedDegradedSlowWiresStillShard(t *testing.T) {
	base := topology.MustParseSpec("hypercube-5")
	for _, slowLinks := range [][]topology.SlowLink{
		{{Link: topology.Link{A: 0, B: 1}, Factor: 4}},
		{{Link: topology.Link{A: 0, B: 1}, Factor: 3}, {Link: topology.Link{A: 4, B: 5}, Factor: 5}},
	} {
		slow, err := topology.Overlay(base, topology.FaultSet{SlowLinks: slowLinks})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := exchange.NewPlanOn(slow, 16, partition.Partition{2, 2, 1})
		if err != nil {
			t.Fatal(err)
		}
		src := plan.Compile()
		oracle := engineOracle(t, slow, src, 0)
		for _, w := range []int{1, 4} {
			label := fmt.Sprintf("%s w=%d", slow.Name(), w)
			res := costOn(t, slow, src, 0, w)
			if res.DeclineReason != "slow-link" {
				t.Fatalf("%s: declined for %q, want slow-link", label, res.DeclineReason)
			}
			if w > 1 && res.ReplayShards < 2 {
				t.Fatalf("%s: slow-only overlay fell back (ReplayShards=%d)", label, res.ReplayShards)
			}
			requireBitIdentical(t, label, oracle, res)
		}
	}
}

// phaseIndexWithStride locates the compiled phase whose sub-block field
// has the given stride — plans order their phases by the partition's
// dimension grouping, so tests select phases structurally, not by index.
func phaseIndexWithStride(t *testing.T, plan *exchange.Plan, stride int) int {
	t.Helper()
	spans := plan.Compile().PhaseSpans()
	for i, sp := range spans {
		if sp.Stride == stride {
			return i
		}
	}
	t.Fatalf("no phase with stride %d among %+v", stride, spans)
	return -1
}

// A dead wire makes fault-aware routing detour through links that belong
// to other sub-blocks: the partitioner must detect the cross-span
// coverage and take the serial fallback path — and the fallback must
// still produce the serial result exactly.
func TestShardedDegradedDetourFallsBackToSerial(t *testing.T) {
	base := topology.MustParseSpec("hypercube-3")
	// Kill a dimension-2 wire. The stride-4 phase pairs 0↔4 directly
	// across it, so its detour has to borrow wires owned by the other
	// pair groups ({1,5}, {2,6}, {3,7}) — cross-shard coverage.
	dead, err := topology.Overlay(base, topology.FaultSet{
		DeadLinks: []topology.Link{{A: 0, B: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := exchange.NewPlanOn(dead, 8, partition.Partition{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	frag := plan.CompilePhase(phaseIndexWithStride(t, plan, 4))
	serial := costOn(t, dead, frag, 0, 1)
	sharded := costOn(t, dead, frag, 0, 4)
	if sharded.ReplayShards != 1 {
		t.Fatalf("detour-crossed fragment did not fall back: ReplayShards=%d", sharded.ReplayShards)
	}
	requireBitIdentical(t, "detour fallback", serial, sharded)

	// The whole plan still replays equivalently whatever mix of sharded
	// and fallback phases it ends up with.
	whole := plan.Compile()
	requireBitIdentical(t, "degraded whole plan",
		costOn(t, dead, whole, 0, 1), costOn(t, dead, whole, 0, 4))
}
