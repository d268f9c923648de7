package simnet

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
)

// phasedProgs adapts explicit per-node programs plus a span table to the
// Phased interface, so the phase-by-phase driver can be exercised without
// the exchange compiler (which has its own equivalence suite).
type phasedProgs struct {
	progs []Program
	spans []PhaseSpan
}

func (s *phasedProgs) NumNodes() int           { return len(s.progs) }
func (s *phasedProgs) NumOps(p int) int        { return len(s.progs[p]) }
func (s *phasedProgs) Op(p, i int) Op          { return s.progs[p][i] }
func (s *phasedProgs) PhaseSpans() []PhaseSpan { return s.spans }

// UniformRow answers from the programs themselves, so it agrees with Op
// by construction.
func (s *phasedProgs) UniformRow(i int) (OpKind, int, bool) {
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
func multiphaseSource() *phasedProgs {
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
	return &phasedProgs{
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
// pricing modes, certificate passes — leaving what was simulated.
func simulated(r Result) Result {
	r.ClosedFormPhases, r.EnginePhases, r.DeclineReason, r.Certificates = 0, 0, "", 0
	return r
}

// requireIdentical asserts two results agree bit-for-bit in every
// simulated field.
func requireIdentical(t *testing.T, label string, want, got Result) {
	t.Helper()
	want, got = simulated(want), simulated(got)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ\nwant: %+v\ngot:  %+v", label, want, got)
	}
}

// The phase-by-phase replay of a multiphase program must be bit-identical
// to the engine replay of the bare programs, with and without
// jitter. Phase one has a compute row, so it runs on the engine either
// way; phase two is pure exchanges and is priced in closed form unless
// jitter forbids it.
func TestPhasedProgramsMatchMonolithic(t *testing.T) {
	topo := topology.MustNew(3)
	for _, jitter := range []float64{0, 0.08} {
		src := multiphaseSource()
		net := New(topo, model.Hypothetical())
		net.SetJitter(jitter, 42)
		phased := mustRunSource(t, net, src)
		if phased.ReplayShards != 1 {
			t.Fatalf("ReplayShards = %d, want 1", phased.ReplayShards)
		}
		oracle, err := net.Run(src.progs)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "phase by phase vs bare programs", oracle, phased)
		wantClosed, wantReason := 1, declineRowNotExchange
		if jitter != 0 {
			wantClosed, wantReason = 0, declineJitter
		}
		if phased.ClosedFormPhases != wantClosed || phased.EnginePhases != 2-wantClosed || phased.DeclineReason != wantReason {
			t.Fatalf("jitter=%v: %d closed-form and %d engine phases, declined for %q; want %d, %d, %q", jitter,
				phased.ClosedFormPhases, phased.EnginePhases, phased.DeclineReason, wantClosed, 2-wantClosed, wantReason)
		}
	}
}

// A span table whose peers escape their declared groups describes the
// phase wrongly, but the replay rests only on what the certificate proves
// from the routed links: it still equals the engine replay of the bare
// programs.
func TestMisdeclaredSpanMatchesMonolithic(t *testing.T) {
	src := multiphaseSource()
	// Lie about phase two: claim it spans only dimension 0 (stride 1,
	// span 2) while its exchanges reach across dimensions 0–1.
	src.spans[1] = PhaseSpan{Rows: 4, Stride: 1, Span: 2}
	net := New(topology.MustNew(3), model.Hypothetical())
	res := mustRunSource(t, net, src)
	if res.ClosedFormPhases+res.EnginePhases != 2 {
		t.Fatalf("%d closed-form and %d engine phases, want 2 phases replayed one by one",
			res.ClosedFormPhases, res.EnginePhases)
	}
	oracle, err := net.Run(src.progs)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "misdeclared span", oracle, res)
}

// Structurally unusable span tables (wrong row totals, missing barriers,
// non-dividing blocks) price no epoch: every one runs on the engine, as
// the bare programs' do.
func TestUnusableSpansRunMonolithic(t *testing.T) {
	topo := topology.MustNew(3)
	oracle, err := New(topo, model.Hypothetical()).Run(multiphaseSource().progs)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*phasedProgs){
		"row sum mismatch":  func(s *phasedProgs) { s.spans[0].Rows = 3 },
		"zero span":         func(s *phasedProgs) { s.spans[1].Span = 0 },
		"non-dividing span": func(s *phasedProgs) { s.spans[1].Span = 3 },
		"no spans":          func(s *phasedProgs) { s.spans = nil },
		"barrier misplaced": func(s *phasedProgs) { s.spans[0].Rows = 5; s.spans[1].Rows = 3 },
	}
	for name, mutate := range cases {
		src := multiphaseSource()
		mutate(src)
		res := mustRunSource(t, New(topo, model.Hypothetical()), src)
		if res.ClosedFormPhases != 0 || res.EnginePhases != 0 {
			t.Errorf("%s: %d closed-form and %d engine phases, want none priced",
				name, res.ClosedFormPhases, res.EnginePhases)
		}
		requireIdentical(t, name, oracle, res)
	}
}

// Tracing records a global, completion-ordered timeline; a traced replay
// runs every phase on the engine and says so.
func TestTraceRunsMonolithic(t *testing.T) {
	topo := topology.MustNew(3)
	net := New(topo, model.Hypothetical())
	net.SetTrace(true)
	res := mustRunSource(t, net, multiphaseSource())
	if res.ClosedFormPhases != 0 || res.EnginePhases != 2 || res.DeclineReason != declineTrace {
		t.Fatalf("under trace: %d closed-form and %d engine phases, declined for %q",
			res.ClosedFormPhases, res.EnginePhases, res.DeclineReason)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("trace produced no timeline")
	}
}

// One Network must serve concurrent RunSource calls without data races
// (run under -race), every call returning the bare programs' result.
func TestConcurrentRunSourceOneNetwork(t *testing.T) {
	topo := topology.MustNew(3)
	src := multiphaseSource()
	net := New(topo, model.Hypothetical())
	net.SetJitter(0.05, 7)
	want, err := net.Run(src.progs)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 16
	results := make([]Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = net.RunSource(src)
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
// their state to the next replay, whose result must equal a first run's:
// the bare programs', on the phase-by-phase path and on the bare programs
// themselves.
func TestRecycledStateCarriesNothingOver(t *testing.T) {
	src := multiphaseSource()
	fresh := func() *Network {
		net := New(topology.MustNew(3), model.IPSC860())
		net.SetJitter(0.05, 7)
		return net
	}
	want := mustRun(t, fresh(), src.progs)

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
		if _, err := fresh().RunSourceBounded(src, want.Makespan*0.9); !errors.Is(err, ErrCutoff) {
			t.Fatalf("under 0.9 of the makespan: %v", err)
		}
		requireIdentical(t, "phased after dirty runs", want, mustRunSource(t, fresh(), src))
		requireIdentical(t, "bare programs after dirty runs", want, mustRun(t, fresh(), src.progs))
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
