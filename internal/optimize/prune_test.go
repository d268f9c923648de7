package optimize

import (
	"context"
	"math"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// equivalenceShapes are the three topology families the acceptance
// criteria name; all small enough for both backends.
var equivalenceShapes = []string{"hypercube-6", "torus-4x4", "mesh-3x3", "torus-8x2x2"}

func shapeNet(t *testing.T, spec string) topology.Network {
	t.Helper()
	if spec == "hypercube-6" {
		net, err := topology.New(6)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	return topology.MustParseSpec(spec)
}

// The tentpole invariant: the pruned, best-first, parallel enumeration
// must return the exact same Choice — partition and bit-identical
// TimeMicro — as exhaustive serial enumeration, on every topology shape
// and both backends.
func TestPrunedParallelEquivalentToExhaustiveSerial(t *testing.T) {
	prm := model.IPSC860()
	for _, spec := range equivalenceShapes {
		for _, backend := range []Backend{Analytic, Simulated} {
			net := shapeNet(t, spec)
			newOpt := New
			if backend == Simulated {
				newOpt = NewSimulated
			}
			serial := newOpt(prm)
			serial.SetExhaustive(true)
			serial.SetWorkers(1)
			pruned := newOpt(prm)
			pruned.SetWorkers(4)
			for _, m := range []int{0, 4, 40, 200} {
				want, err := serial.BestOn(net, m)
				if err != nil {
					t.Fatalf("%s %v m=%d serial: %v", spec, backend, m, err)
				}
				got, err := pruned.BestOn(net, m)
				if err != nil {
					t.Fatalf("%s %v m=%d pruned: %v", spec, backend, m, err)
				}
				if !got.Part.Equal(want.Part) || got.TimeMicro != want.TimeMicro {
					t.Errorf("%s %v m=%d: pruned+parallel %v/%v µs, exhaustive-serial %v/%v µs",
						spec, backend, m, got.Part, got.TimeMicro, want.Part, want.TimeMicro)
				}
			}
		}
	}
}

// BuildTableOnCtx must produce the identical table under pruning and
// parallelism as under exhaustive serial enumeration.
func TestPrunedTableEquivalentToExhaustiveSerial(t *testing.T) {
	prm := model.IPSC860()
	for _, spec := range []string{"hypercube-6", "torus-4x4", "mesh-3x3"} {
		net := shapeNet(t, spec)
		serial := NewSimulated(prm)
		serial.SetExhaustive(true)
		serial.SetWorkers(1)
		pruned := NewSimulated(prm)
		pruned.SetWorkers(4)
		want, err := serial.BuildTableOnCtx(context.Background(), net, 0, 96, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pruned.BuildTableOnCtx(context.Background(), net, 0, 96, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got.Topo != want.Topo || got.D != want.D || len(got.Segments) != len(want.Segments) {
			t.Fatalf("%s: table shape differs: %+v vs %+v", spec, got, want)
		}
		for i := range got.Segments {
			g, w := got.Segments[i], want.Segments[i]
			if !g.Part.Equal(w.Part) || g.MinBlock != w.MinBlock || g.MaxBlock != w.MaxBlock {
				t.Errorf("%s segment %d: pruned %+v, exhaustive %+v", spec, i, g, w)
			}
		}
	}
}

// The analytic phase-sum — each distinct field priced once per block size
// and shared by every grouping it occurs in — must be bit-identical to the
// closed forms priced grouping by grouping, on every grouping: the
// property that keeps the optimizer's reported times exactly equal to
// Multiphase/MultiphaseOn.
func TestMemoizedAnalyticCostMatchesUnmemoized(t *testing.T) {
	prm := model.IPSC860()
	for _, spec := range equivalenceShapes {
		net := shapeNet(t, spec)
		o := New(prm)
		es, err := enumFor(net)
		if err != nil {
			t.Fatal(err)
		}
		pricer := o.newAnalyticPricer(net, es)
		for _, m := range []int{0, 3, 40, 331} {
			best, bestCost, err := pricer.winner(m)
			if err != nil {
				t.Fatal(err)
			}
			for i, D := range es.parts {
				got := 0.0
				for _, k := range es.phase[i] {
					got += pricer.cost[k]
				}
				want, _, err := prm.MultiphaseOn(net, m, D)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s m=%d %v: shared-field sum %v, MultiphaseOn %v", spec, m, D, got, want)
				}
				if want < bestCost {
					t.Errorf("%s m=%d: winner %v costs %v, %v costs %v", spec, m, es.parts[best], bestCost, D, want)
				}
			}
		}
	}
}

// The branch-and-bound cut is only sound if the bound never exceeds the
// simulated cost. Check candidate-level admissibility — the per-phase
// bound sum against both the fragment-sum screening cost and the
// whole-plan makespan — on every grouping of every shape.
func TestLowerBoundAdmissible(t *testing.T) {
	for _, prm := range []model.Params{model.IPSC860(), model.IPSC860Raw(), model.Hypothetical()} {
		for _, spec := range equivalenceShapes {
			net := shapeNet(t, spec)
			ev := NewSimulated(prm).newEvaluation(net)
			es, err := enumFor(net)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{0, 8, 100} {
				for i, D := range es.parts {
					lb, err := ev.candidateBound(m, es.fields[i], make([]float64, len(es.fields[i])))
					if err != nil {
						t.Fatal(err)
					}
					screen, _, err := ev.candidateCost(context.Background(), m, D, es.fields[i], nil, math.Inf(1))
					if err != nil {
						t.Fatal(err)
					}
					plan, err := exchange.NewPlanOn(net, m, D)
					if err != nil {
						t.Fatal(err)
					}
					res, err := plan.Cost(ev.net)
					if err != nil {
						t.Fatal(err)
					}
					if lb > screen*(1+pruneSlack) {
						t.Errorf("%s m=%d %v: bound %v above fragment-sum %v", spec, m, D, lb, screen)
					}
					if lb > res.Makespan*(1+pruneSlack) {
						t.Errorf("%s m=%d %v: bound %v above whole-plan %v", spec, m, D, lb, res.Makespan)
					}
					// The screening phase-sum tracks the whole-plan
					// makespan closely. The decomposition is exact in
					// real arithmetic (barriers serialize phases), but
					// contended cyclic phases resolve exactly-tied link
					// acquisitions by float comparison of absolute
					// times, and a phase replayed from a different
					// start offset can flip a tie and cascade into a
					// slightly different schedule (observed ≤ 2% on
					// torus-8x2x2). Contention-free phases decompose to
					// float noise.
					tol := 1e-9*res.Makespan + 1e-9
					if res.ContentionStall > 0 {
						tol = 0.05*res.Makespan + 1e-9
					}
					if diff := screen - res.Makespan; diff > tol || -diff > tol {
						t.Errorf("%s m=%d %v: fragment-sum %v vs whole-plan %v (stall %v)",
							spec, m, D, screen, res.Makespan, res.ContentionStall)
					}
				}
			}
		}
	}
}

// A d=10 simulated enumeration on the contention-free hypercube must
// both prune and hit the memo; every dequeued candidate lands in exactly
// one of the two counters.
func TestStatsCounters(t *testing.T) {
	o := NewSimulated(model.IPSC860())
	if _, err := o.BestOn(topology.MustNew(10), 4); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Evaluations != 1 {
		t.Errorf("Evaluations = %d, want 1", st.Evaluations)
	}
	total := int64(len(partition.All(10)))
	if st.Evaluated+st.Pruned != total {
		t.Errorf("Evaluated %d + Pruned %d != %d candidates", st.Evaluated, st.Pruned, total)
	}
	if st.Pruned == 0 {
		t.Error("pruning never engaged on a d=10 enumeration")
	}
	if st.Evaluated == 0 {
		t.Error("no candidate was evaluated")
	}
	if st.MemoMisses == 0 {
		t.Error("memo never filled")
	}
	var sum Stats
	sum.Add(st)
	sum.Add(st)
	if sum.Pruned != 2*st.Pruned || sum.Evaluations != 2 {
		t.Errorf("Stats.Add: %+v", sum)
	}
}

// Every replay of a simulated build — each memo-miss fragment the
// screening pays for, finished or aborted at its cutoff, not only the
// winner's re-derivation — must land in the trace's "replay" stage,
// including the ones past the trace's span budget: the stage's busy time
// is what says where a build's time went.
func TestEveryReplayIsAttributed(t *testing.T) {
	tracer := obs.NewTracer(4)
	ctx, root := tracer.StartRequest(context.Background(), "build", "hull")
	o := NewSimulated(model.IPSC860())
	if _, err := o.BuildTableOnCtx(ctx, topology.MustParseSpec("torus-4x4x4"), 0, 2048, 16); err != nil {
		t.Fatal(err)
	}
	root.End()
	st := o.Stats()
	replays := st.ReplaysSerial + st.ReplaysAborted
	if st.ReplaysAborted == 0 {
		t.Error("no replay of the sweep was aborted at its cutoff")
	}
	if replays <= obs.MaxSpansPerTrace {
		t.Fatalf("only %d replays: the sweep must outrun the %d-span budget", replays, obs.MaxSpansPerTrace)
	}
	if got := tracer.StageStats()["replay"].Count; got != replays {
		t.Errorf("replay stage observed %d spans for %d replays", got, replays)
	}
	fragments, aborted := 0, 0
	for _, sp := range tracer.Find("build")[0].Spans {
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if sp.Name == "replay" && attrs["kind"] == "fragment" {
			fragments++
		}
		if attrs["aborted"] == "true" {
			aborted++
			if attrs["cutoff_us"] == "" {
				t.Errorf("aborted replay span without its cutoff: %v", sp.Attrs)
			}
		}
	}
	if fragments == 0 {
		t.Error("no fragment replay span on the trace")
	}
	if aborted == 0 {
		t.Error("no aborted replay span within the trace's span budget")
	}
}

// An analytic table build is one enumeration, whatever the lattice: every
// candidate is counted once and the phase memo (a simulated-backend
// structure) does not move. Nothing of a build is kept, so a rebuild is one
// more enumeration.
func TestBuildTableBuildsPerSweep(t *testing.T) {
	o := New(model.IPSC860())
	cube := topology.MustNew(6)
	const lo, hi, step = 0, 64, 2
	candidates := int64(len(partition.All(6)))
	for build := int64(1); build <= 2; build++ {
		if _, err := o.BuildTableOnCtx(context.Background(), cube, lo, hi, step); err != nil {
			t.Fatal(err)
		}
		st := o.Stats()
		if st.Evaluations != build || st.Evaluated != build*candidates {
			t.Errorf("after build %d: %d enumerations of %d candidates, want %d of %d",
				build, st.Evaluations, st.Evaluated, build, build*candidates)
		}
		if st.MemoHits != 0 || st.MemoMisses != 0 || st.Pruned != 0 {
			t.Errorf("analytic build moved simulated-backend counters: %+v", st)
		}
	}
}

// The warm-start hint reorders evaluation only; even a deliberately bad
// hint must not change the winner.
func TestHintDoesNotChangeResult(t *testing.T) {
	prm := model.IPSC860()
	net := topology.MustParseSpec("torus-4x4x4")
	want, err := NewSimulated(prm).BestOn(net, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, hint := range []partition.Partition{{3}, {1, 1, 1}, {2, 1}} {
		o := NewSimulated(prm)
		got, err := o.newEvaluation(net).best(context.Background(), 40, hint, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Part.Equal(want.Part) || got.TimeMicro != want.TimeMicro {
			t.Errorf("hint %v: %v/%v µs, want %v/%v µs", hint, got.Part, got.TimeMicro, want.Part, want.TimeMicro)
		}
	}
}

// SetWorkers must clamp and never alter results; worker counts from 1 to
// GOMAXPROCS return the same Choice (determinism of the parallel path).
func TestWorkerCountsAgree(t *testing.T) {
	prm := model.IPSC860()
	net := topology.MustParseSpec("torus-8x2x2")
	var ref Choice
	for i, w := range []int{1, 2, 3, 4, 1 << 20} {
		o := NewSimulated(prm)
		o.SetWorkers(w)
		c, err := o.BestOn(net, 24)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = c
			continue
		}
		if !c.Part.Equal(ref.Part) || c.TimeMicro != ref.TimeMicro {
			t.Errorf("workers=%d: %v/%v µs, want %v/%v µs", w, c.Part, c.TimeMicro, ref.Part, ref.TimeMicro)
		}
	}
}

// lowerBoundSpecs are the fabrics FuzzLowerBoundAdmissible draws from: a
// cube, a torus, a mixed-radix mesh, a dead-wire and a slow-wire overlay.
var lowerBoundSpecs = []string{"hypercube-5", "torus-4x4", "mesh-2x3x4", "torus-4x4!dl=0-1", "hypercube-4!sl=0-1:2.5"}

// FuzzLowerBoundAdmissible: on every machine, the admissible bound of any
// phase field at any block size never exceeds the makespan of that
// phase's fragment replay — the cost it stands in for. Pruning discards a
// candidate on its bounds alone, so a pruned enumeration returns the
// exhaustive one's answer only while this holds.
func FuzzLowerBoundAdmissible(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(4), uint16(40))
	f.Add(uint8(1), uint8(0), uint8(1), uint16(0))
	f.Add(uint8(2), uint8(1), uint8(1), uint16(512))
	f.Add(uint8(3), uint8(0), uint8(1), uint16(7))
	f.Add(uint8(4), uint8(1), uint8(2), uint16(200))
	nets := make([]topology.Network, len(lowerBoundSpecs))
	for i, spec := range lowerBoundSpecs {
		nets[i] = topology.MustParseSpec(spec)
	}
	machines := []model.Params{model.IPSC860(), model.Hypothetical(), model.Ncube2()}
	f.Fuzz(func(t *testing.T, spec, lo, w uint8, m uint16) {
		net := nets[int(spec)%len(nets)]
		k := net.NumDims()
		fieldLo := int(lo) % k
		width := int(w)%(k-fieldLo) + 1
		block := int(m) % 513
		// The grouping whose phases are the dimensions above the field, the
		// field, and those below it; phases take dimensions from the top.
		var groups partition.Partition
		phase := 0
		if top := k - fieldLo - width; top > 0 {
			groups, phase = append(groups, top), 1
		}
		groups = append(groups, width)
		if fieldLo > 0 {
			groups = append(groups, fieldLo)
		}
		plan, err := exchange.NewPlanOn(net, block, groups)
		if err != nil {
			t.Fatal(err)
		}
		fragment := plan.CompilePhase(phase)
		for i, prm := range machines {
			lb, err := prm.PhaseLowerBoundOn(net, block, fieldLo, width)
			if err != nil {
				t.Fatal(err)
			}
			res, err := simnet.New(net, prm).RunSource(fragment)
			if err != nil {
				t.Fatal(err)
			}
			if lb > res.Makespan*(1+pruneSlack) {
				t.Errorf("%s machine %d field [%d,%d) m=%d: bound %v above the fragment's makespan %v",
					net.Name(), i, fieldLo, fieldLo+width, block, lb, res.Makespan)
			}
		}
	})
}
