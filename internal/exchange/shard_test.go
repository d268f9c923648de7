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
// and returns the result.
func costOn(t *testing.T, topo topology.Network, src simnet.Source, jitterFrac float64) simnet.Result {
	t.Helper()
	net := simnet.New(topo, model.IPSC860())
	net.SetJitter(jitterFrac, 7)
	res, err := net.RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// simulated strips the fields that report how a result was produced —
// pricing modes, certificate passes — leaving what was simulated.
func simulated(r simnet.Result) simnet.Result {
	r.ClosedFormPhases, r.EnginePhases, r.DeclineReason, r.Certificates = 0, 0, "", 0
	return r
}

// requireBitIdentical asserts every simulated Result field matches
// bit-for-bit — the contract of every replay mode.
func requireBitIdentical(t *testing.T, label string, oracle, res simnet.Result) {
	t.Helper()
	oracle, res = simulated(oracle), simulated(res)
	if !reflect.DeepEqual(oracle, res) {
		t.Fatalf("%s: replay ≠ bare programs\nbare:   %+v\nreplay: %+v", label, oracle, res)
	}
}

// engineOracle replays the compiled plan's bare per-node programs, every
// epoch on the event engine — no phase structure, no certificates: the
// reference every other replay mode must equal.
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
// phase of a healthy topology is answered by its certificate; everything
// else — any phase under jitter, cyclic phases — must have run on the
// engine.
func requireMode(t *testing.T, label string, res simnet.Result, plan *exchange.Plan, jitter float64) {
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
}

// The equivalence matrix: compiled multiphase plans on all three topology
// families, with jitter off and on, replayed phase by phase — every
// simulated field must agree bit-for-bit with the bare programs' replay,
// and each replay must have been priced the way its input dictates (no
// silent engine run).
func TestPhasedReplayEquivalence(t *testing.T) {
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
			label := fmt.Sprintf("%s/%v jitter=%v", tc.spec, tc.D, jitter)
			res := costOn(t, topo, src, jitter)
			requireMode(t, label, res, plan, jitter)
			requireBitIdentical(t, label, engineOracle(t, topo, src, jitter), res)
		}
	}
}

// Single-phase fragments — the optimizer's memoized costing unit — must
// replay equivalently too: in closed form when nothing forbids it, on the
// engine under jitter.
func TestFragmentReplayEquivalence(t *testing.T) {
	topo := topology.MustParseSpec("hypercube-6")
	plan, err := exchange.NewPlanOn(topo, 16, partition.Partition{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < plan.NumPhases(); pi++ {
		frag := plan.CompilePhase(pi)
		for _, jitter := range []float64{0, 0.05} {
			label := fmt.Sprintf("phase %d jitter=%v", pi, jitter)
			res := costOn(t, topo, frag, jitter)
			if closed := jitter == 0; closed != (res.ClosedFormPhases == 1) || closed == (res.EnginePhases == 1) {
				t.Fatalf("%s: %d closed-form and %d engine phases", label, res.ClosedFormPhases, res.EnginePhases)
			}
			requireBitIdentical(t, label, engineOracle(t, topo, frag, jitter), res)
		}
	}
}

// PhaseSpans is the compiled plan's phase structure: one span per
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

// A slow-wire-only overlay keeps base routes, and its slow factors stretch
// circuits node by node, so every phase runs on the engine and stays
// bit-identical to the bare programs: per-circuit slow factors are pure
// functions of the route. That holds with one slow wire or two in
// different groups of the stride-1 phase (wires 0–1 and 4–5).
func TestDegradedSlowWiresReplayEquivalence(t *testing.T) {
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
		res := costOn(t, slow, src, 0)
		if res.DeclineReason != "slow-link" {
			t.Fatalf("%s: declined for %q, want slow-link", slow.Name(), res.DeclineReason)
		}
		requireBitIdentical(t, slow.Name(), engineOracle(t, slow, src, 0), res)
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
// to other sub-blocks: the certificate must see the longer route and send
// the phase to the engine, which must still produce the bare programs'
// result exactly.
func TestDegradedDetourReplayEquivalence(t *testing.T) {
	base := topology.MustParseSpec("hypercube-3")
	// Kill a dimension-2 wire. The stride-4 phase pairs 0↔4 directly
	// across it, so its detour has to borrow wires of the other pair
	// groups ({1,5}, {2,6}, {3,7}).
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
	res := costOn(t, dead, frag, 0)
	if res.EnginePhases != 1 {
		t.Fatalf("detour-crossed fragment: %d engine phases (declined for %q), want 1", res.EnginePhases, res.DeclineReason)
	}
	requireBitIdentical(t, "detour fragment", engineOracle(t, dead, frag, 0), res)

	// The whole plan still replays equivalently whatever mix of certified
	// and engine-run phases it ends up with.
	whole := plan.Compile()
	requireBitIdentical(t, "degraded whole plan", engineOracle(t, dead, whole, 0), costOn(t, dead, whole, 0))
}
