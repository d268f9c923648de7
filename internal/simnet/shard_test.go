package simnet

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
)

// shardedProgs adapts explicit per-node programs plus a span table to the
// Sharded interface, so the orchestrator can be exercised without the
// exchange compiler (which has its own equivalence suite).
type shardedProgs struct {
	progs []Program
	spans []PhaseSpan
}

func (s *shardedProgs) NumNodes() int           { return len(s.progs) }
func (s *shardedProgs) NumOps(p int) int        { return len(s.progs[p]) }
func (s *shardedProgs) Op(p, i int) Op          { return s.progs[p][i] }
func (s *shardedProgs) PhaseSpans() []PhaseSpan { return s.spans }

// UniformRow answers from the programs themselves, so it agrees with Op
// by construction.
func (s *shardedProgs) UniformRow(i int) (OpKind, int, bool) {
	first := s.progs[0][i]
	for _, prog := range s.progs[1:] {
		if prog[i].Kind != first.Kind || prog[i].Bytes != first.Bytes {
			return 0, 0, false
		}
	}
	return first.Kind, first.Bytes, true
}

// multiphaseSource builds a d=3 hypercube program of two XOR phases plus
// compute and shuffle rows: phase one exchanges across dimension 2
// (stride 4, span 2, four independent pairs), phase two across the
// {0,1} field (stride 1, span 4, two independent quads).
func multiphaseSource() *shardedProgs {
	const n = 8
	progs := make([]Program, n)
	for p := 0; p < n; p++ {
		progs[p] = Program{
			{Kind: OpBarrier},
			{Kind: OpExchange, Peer: p ^ 4, Bytes: 64},
			{Kind: OpCompute, Micros: 5},
			{Kind: OpShuffle, Bytes: 128},
			{Kind: OpBarrier},
			{Kind: OpExchange, Peer: p ^ 1, Bytes: 32},
			{Kind: OpExchange, Peer: p ^ 2, Bytes: 32},
			{Kind: OpExchange, Peer: p ^ 3, Bytes: 32},
		}
	}
	return &shardedProgs{
		progs: progs,
		spans: []PhaseSpan{
			{Rows: 4, Stride: 4, Span: 2},
			{Rows: 4, Stride: 1, Span: 4},
		},
	}
}

func mustRunSource(t *testing.T, net *Network, src Source) Result {
	t.Helper()
	res, err := net.RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// simulated strips the fields that report how a result was produced —
// shards, pricing modes, certificate passes — leaving what was simulated.
func simulated(r Result) Result {
	r.ReplayShards, r.ClosedFormPhases, r.EnginePhases, r.DeclineReason, r.Certificates = 0, 0, 0, "", 0
	return r
}

// requireIdentical asserts two results agree bit-for-bit in every
// simulated field.
func requireIdentical(t *testing.T, label string, serial, sharded Result) {
	t.Helper()
	serial, sharded = simulated(serial), simulated(sharded)
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatalf("%s: sharded result differs from serial\nserial:  %+v\nsharded: %+v", label, serial, sharded)
	}
}

// The sharded replay of a link-disjoint multiphase program must be
// bit-identical to the serial replay, and both to the monolithic engine
// loop over the bare programs — with and without jitter, across shard
// counts that divide the groups evenly and ones that do not. Phase one
// has a compute row, so it runs on the engine either way; phase two is
// pure exchanges and is priced in closed form unless jitter forbids it.
func TestShardedReplayMatchesSerial(t *testing.T) {
	topo := topology.MustNew(3)
	for _, jitter := range []float64{0, 0.08} {
		src := multiphaseSource()
		serialNet := New(topo, model.Hypothetical())
		serialNet.SetJitter(jitter, 42)
		serial := mustRunSource(t, serialNet, src)
		if serial.ReplayShards != 1 {
			t.Fatalf("serial ReplayShards = %d, want 1", serial.ReplayShards)
		}
		oracle, err := serialNet.Run(src.progs)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "phase by phase vs monolithic", oracle, serial)
		wantClosed, wantReason := 1, declineRowNotExchange
		if jitter != 0 {
			wantClosed, wantReason = 0, declineJitter
		}
		if serial.ClosedFormPhases != wantClosed || serial.EnginePhases != 2-wantClosed || serial.DeclineReason != wantReason {
			t.Fatalf("jitter=%v: %d closed-form and %d engine phases, declined for %q; want %d, %d, %q", jitter,
				serial.ClosedFormPhases, serial.EnginePhases, serial.DeclineReason, wantClosed, 2-wantClosed, wantReason)
		}
		for _, w := range []int{2, 3, 4, 7} {
			net := New(topo, model.Hypothetical())
			net.SetJitter(jitter, 42)
			net.SetReplayShards(w)
			res := mustRunSource(t, net, src)
			if res.ReplayShards < 2 {
				t.Fatalf("jitter=%v w=%d: sharded replay fell back (ReplayShards=%d)", jitter, w, res.ReplayShards)
			}
			requireIdentical(t, "sharded vs serial", serial, res)
		}
	}
}

// A span table whose peers escape their declared groups must force the
// affected phase onto one shard — and still produce the serial result.
func TestShardedCrossGroupPeerFallsBack(t *testing.T) {
	src := multiphaseSource()
	// Lie about phase two: claim it spans only dimension 0 (stride 1,
	// span 2) while its exchanges reach across dimensions 0–1.
	src.spans[1] = PhaseSpan{Rows: 4, Stride: 1, Span: 2}
	topo := topology.MustNew(3)
	serialNet := New(topo, model.Hypothetical())
	serial := mustRunSource(t, serialNet, src)
	net := New(topo, model.Hypothetical())
	net.SetReplayShards(4)
	res := mustRunSource(t, net, src)
	// Phase one still shards; the mis-declared phase runs single-shard.
	if res.ReplayShards < 2 {
		t.Fatalf("phase one should still shard, got ReplayShards=%d", res.ReplayShards)
	}
	requireIdentical(t, "cross-group fallback", serial, res)
}

// Structurally unusable span tables (wrong row totals, missing barriers,
// non-dividing blocks) must reject the sharded path entirely.
func TestShardedStructuralFallback(t *testing.T) {
	topo := topology.MustNew(3)
	serial := mustRunSource(t, New(topo, model.Hypothetical()), multiphaseSource())
	cases := map[string]func(*shardedProgs){
		"row sum mismatch":  func(s *shardedProgs) { s.spans[0].Rows = 3 },
		"zero span":         func(s *shardedProgs) { s.spans[1].Span = 0 },
		"non-dividing span": func(s *shardedProgs) { s.spans[1].Span = 3 },
		"no spans":          func(s *shardedProgs) { s.spans = nil },
		"barrier misplaced": func(s *shardedProgs) { s.spans[0].Rows = 5; s.spans[1].Rows = 3 },
	}
	for name, mutate := range cases {
		src := multiphaseSource()
		mutate(src)
		net := New(topo, model.Hypothetical())
		net.SetReplayShards(4)
		res := mustRunSource(t, net, src)
		if res.ReplayShards != 1 {
			t.Errorf("%s: ReplayShards = %d, want serial fallback", name, res.ReplayShards)
		}
		requireIdentical(t, name, serial, res)
	}
}

// Tracing records a global, completion-ordered timeline; the sharded
// path must decline while a trace is on.
func TestShardedDeclinesUnderTrace(t *testing.T) {
	topo := topology.MustNew(3)
	net := New(topo, model.Hypothetical())
	net.SetReplayShards(4)
	net.SetTrace(true)
	res := mustRunSource(t, net, multiphaseSource())
	if res.ReplayShards != 1 {
		t.Fatalf("ReplayShards = %d under trace, want 1", res.ReplayShards)
	}
	if res.ClosedFormPhases != 0 || res.EnginePhases != 2 || res.DeclineReason != declineTrace {
		t.Fatalf("under trace: %d closed-form and %d engine phases, declined for %q",
			res.ClosedFormPhases, res.EnginePhases, res.DeclineReason)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("trace produced no timeline")
	}
}

func TestSetReplayShardsClamps(t *testing.T) {
	net := New(topology.MustNew(2), model.Hypothetical())
	net.SetReplayShards(0)
	if net.shards != 1 {
		t.Fatalf("shards after SetReplayShards(0) = %d, want 1", net.shards)
	}
	net.SetReplayShards(1 << 20)
	if net.shards != maxReplayShards {
		t.Fatalf("shards after huge SetReplayShards = %d, want %d", net.shards, maxReplayShards)
	}
}

// The shard-safety audit satellite: one Network must serve concurrent
// RunSource calls — serial and sharded mixed — without data races (run
// under -race) and with every call returning the identical result.
func TestConcurrentRunSourceOneNetwork(t *testing.T) {
	topo := topology.MustNew(3)
	src := multiphaseSource()
	want := mustRunSource(t, New(topo, model.Hypothetical()), src)

	shardedNet := New(topo, model.Hypothetical())
	shardedNet.SetReplayShards(4)
	serialNet := New(topo, model.Hypothetical())

	const callers = 8
	results := make([]Result, 2*callers)
	errs := make([]error, 2*callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = shardedNet.RunSource(src)
		}(i)
		go func(i int) {
			defer wg.Done()
			results[callers+i], errs[callers+i] = serialNet.RunSource(src)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		requireIdentical(t, "concurrent caller", want, results[i])
	}
}

// A recycled runState must carry nothing over: replays that leave events
// queued, nodes parked, channels open and links backlogged (a budget trip,
// a deadlock, a contended fan-in on a different-sized machine, runs
// abandoned at a cutoff with their engines stopped mid-queue) may hand
// their state to the next replay, whose result must equal a first run's.
func TestRecycledStateCarriesNothingOver(t *testing.T) {
	src := multiphaseSource()
	fresh := func(shards int) Result {
		net := New(topology.MustNew(3), model.IPSC860())
		net.SetJitter(0.05, 7)
		net.SetReplayShards(shards)
		return mustRunSource(t, net, src)
	}
	want := fresh(1)

	budget := mkNet(2, model.IPSC860())
	budget.SetEventBudget(3)
	stuck := []Program{{Compute(1), Compute(1), Exchange(1, 8)}, {Compute(2)}, {Send(0, 64, Forced)}, {}}
	fan := make([]Program, 32)
	for p := 1; p < len(fan); p++ {
		fan[p] = Program{Send(0, 4096, Unforced), Send(0, 64, Forced)}
		fan[0] = append(fan[0], Recv(p), Recv(p))
	}
	for round := 0; round < 3; round++ {
		if _, err := budget.Run(stuck); err == nil {
			t.Fatal("tiny budget must trip")
		}
		if _, err := mkNet(2, model.IPSC860()).Run(stuck); err == nil {
			t.Fatal("unmatched exchange must deadlock")
		}
		fanRes, err := mkNet(5, model.IPSC860()).Run(fan)
		if err != nil || fanRes.MaxEdgeQueue <= edgeRing {
			t.Fatalf("fan-in: max edge queue %d, err %v", fanRes.MaxEdgeQueue, err)
		}
		if _, err := mkNet(5, model.IPSC860()).RunSourceBounded(programsSource(fan), fanRes.Makespan/2); !errors.Is(err, ErrCutoff) {
			t.Fatalf("fan-in under half its makespan: %v", err)
		}
		for _, shards := range []int{1, 3} {
			net := New(topology.MustNew(3), model.IPSC860())
			net.SetJitter(0.05, 7)
			net.SetReplayShards(shards)
			if _, err := net.RunSourceBounded(src, want.Makespan*0.9); !errors.Is(err, ErrCutoff) {
				t.Fatalf("%d shards under 0.9 of the makespan: %v", shards, err)
			}
		}
		requireIdentical(t, "serial after dirty runs", want, fresh(1))
		requireIdentical(t, "sharded after dirty runs", want, fresh(3))
	}
}

// A certificate is kept with the fabric handle it was proved on: a second
// run on the same handle certifies nothing, and another handle of the
// same spec proves its own. A mesh spec parses to a new handle, so every run of this test —
// -count included — starts cold.
func TestCertificateKeptWithHandle(t *testing.T) {
	topo := topology.MustParseSpec("mesh-2x2x2")
	src := multiphaseSource()
	for i := range src.spans {
		src.spans[i].Shape = "kept-with-handle"
	}
	want := mustRunSource(t, New(topo, model.Hypothetical()), multiphaseSource())
	for _, tc := range []struct {
		label  string
		net    topology.Network
		passes int
	}{
		{"first run", topo, 2},
		{"same handle", topo, 0},
		{"another handle of the spec", topology.MustParseSpec("mesh-2x2x2"), 2},
	} {
		got := mustRunSource(t, New(tc.net, model.Hypothetical()), src)
		requireIdentical(t, tc.label, want, got)
		if got.Certificates != tc.passes {
			t.Errorf("%s: %d certificate passes, want %d", tc.label, got.Certificates, tc.passes)
		}
	}
}
