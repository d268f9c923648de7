package optimize

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/topology"
)

// wide widens TestCutoffPrunedEqualsExhaustive from the lines tier-1 can
// afford to the ones that take seconds each; CI's race job passes it
// (go test ./internal/optimize -run Cutoff -args -wide).
var wide = flag.Bool("wide", false, "run the cutoff equivalence matrix on the large topologies too")

// cutoffTopologies are the lines the bounded costing is pinned on by
// default: a certified cube, cyclic tori and meshes with uniform and mixed
// radices, and a dead link. wideTopologies add larger cubes, a slow link,
// the mixed-radix mesh whose compositions share fields, and the 256-node
// torus whose whole-machine phase is the replay a cutoff saves most on.
var (
	cutoffTopologies = []string{"hypercube-7", "torus-4x4x4", "mesh-4x8", "torus-3x5x4", "torus-4x4!dl=0-1"}
	wideTopologies   = []string{
		"hypercube-8", "hypercube-9", "hypercube-10", "torus-4x4x4x4",
		"mesh-2x3x4x2", "torus-8x8!dl=0-1", "hypercube-6!sl=0-1:2.5",
	}
)

// sweepChoices sweeps pland's block-size range on o — at pland's step
// under -wide, at twice that otherwise — and returns the table and, when
// asked for, every point's Choice.
func sweepChoices(t *testing.T, o *Optimizer, net topology.Network, withChoices bool) (Table, []Choice) {
	t.Helper()
	const lo, hi = 0, 256
	step := 32
	if *wide {
		step = 16
	}
	table, err := o.BuildTableOnCtx(context.Background(), net, lo, hi, step)
	if err != nil {
		t.Fatalf("%s: %v", net.Name(), err)
	}
	var choices []Choice
	for m := lo; withChoices && m <= hi; m += step {
		c, err := o.BestOn(net, m)
		if err != nil {
			t.Fatal(err)
		}
		choices = append(choices, c)
	}
	return table, choices
}

// The tentpole invariant: costing under a cutoff, sweep points dealt to
// any number of workers, returns the table — and at every point the
// Choice, TimeMicro to the bit — that exhaustive serial enumeration does.
// Every setting's table is compared; the points' Choices are re-enumerated
// and compared at one pruned setting, two workers.
func TestCutoffPrunedEqualsExhaustive(t *testing.T) {
	machines := []struct {
		name string
		prm  model.Params
	}{{"ipsc860", model.IPSC860()}, {"hypo", model.Hypothetical()}, {"ncube2", model.Ncube2()}}
	topos := cutoffTopologies
	if *wide {
		topos = append(topos[:len(topos):len(topos)], wideTopologies...)
	}
	for _, spec := range topos {
		net := topology.MustParseSpec(spec)
		for _, mc := range machines {
			oracle := NewSimulated(mc.prm)
			oracle.SetExhaustive(true)
			oracle.SetWorkers(1)
			wantTable, want := sweepChoices(t, oracle, net, true)
			if st := oracle.Stats(); st.ReplaysAborted != 0 || st.Pruned != 0 {
				t.Fatalf("%s %s: the exhaustive oracle aborted %d replays and pruned %d candidates",
					spec, mc.name, st.ReplaysAborted, st.Pruned)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				// SetWorkers clamps to GOMAXPROCS; raise it so 4 and 8
				// mean 4 and 8 on a small box.
				prev := runtime.GOMAXPROCS(max(workers, runtime.GOMAXPROCS(0)))
				o := NewSimulated(mc.prm)
				o.SetWorkers(workers)
				label := fmt.Sprintf("%s %s workers=%d", spec, mc.name, workers)
				gotTable, got := sweepChoices(t, o, net, workers == 2)
				if !reflect.DeepEqual(gotTable, wantTable) {
					t.Errorf("%s: table %+v, exhaustive %+v", label, gotTable, wantTable)
				}
				for i := range got {
					if !got[i].Part.Equal(want[i].Part) ||
						math.Float64bits(got[i].TimeMicro) != math.Float64bits(want[i].TimeMicro) {
						t.Errorf("%s m=%d: %v/%v µs, exhaustive %v/%v µs", label, want[i].Block,
							got[i].Part, got[i].TimeMicro, want[i].Part, want[i].TimeMicro)
					}
				}
				runtime.GOMAXPROCS(prev)
			}
		}
	}
}

// A fragment aborted under a tight incumbent and needed again under a
// looser one is replayed again and becomes exact; a bound is never
// returned as a cost. Compositions of a mixed-radix mesh share fields, so
// one candidate's aborted phase is another's.
func TestBoundEntryUpgrades(t *testing.T) {
	prm := model.IPSC860()
	net := topology.MustParseSpec("mesh-2x3x4x2")
	o := NewSimulated(prm)
	ev := o.newEvaluation(net)
	es, err := enumFor(net)
	if err != nil {
		t.Fatal(err)
	}
	const m = 64
	// The whole-machine field {4}, shared by nothing, and the costliest
	// candidate's cost as the loose limit.
	whole := -1
	for i, D := range es.parts {
		if len(D) == 1 {
			whole = i
		}
	}
	ctx := context.Background()
	exact, _, err := NewSimulated(prm).newEvaluation(net).candidateCost(ctx, m, es.parts[whole], es.fields[whole], nil, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	lb := make([]float64, 1)
	if _, err := ev.candidateBound(m, es.fields[whole], lb); err != nil {
		t.Fatal(err)
	}
	if !(lb[0] < exact) {
		t.Fatalf("bound %v not below the exact cost %v: the test needs room between them", lb[0], exact)
	}
	k := phaseKey{lo: es.fields[whole][0][0], w: es.fields[whole][0][1], m: m}
	entry := func() (float64, bool) {
		e := ev.simPhases.m[k]
		return e.val, e.exact
	}

	// A tight limit between bound and cost: the replay runs and is aborted.
	tight := (lb[0] + exact) / 2
	if _, fits, err := ev.candidateCost(ctx, m, es.parts[whole], es.fields[whole], lb, tight); err != nil || fits {
		t.Fatalf("under limit %v: fits=%v err=%v, want a pruned candidate", tight, fits, err)
	}
	st := o.Stats()
	if st.ReplaysAborted != 1 || st.Pruned != 1 || st.PrunedByCutoff != 1 || st.Evaluated != 0 {
		t.Fatalf("after the aborted replay: %+v", st)
	}
	if v, isExact := entry(); isExact || v != tight {
		t.Fatalf("entry after the abort: %v exact=%v, want the bound %v", v, isExact, tight)
	}
	// A lower limit is answered by the bound entry: no replay.
	if _, fits, _ := ev.candidateCost(ctx, m, es.parts[whole], es.fields[whole], lb, (lb[0]+tight)/2); fits {
		t.Fatal("a bound entry was returned as a cost")
	}
	if st := o.Stats(); st.ReplaysAborted != 1 || st.ReplaysSerial != 0 {
		t.Fatalf("a limit below the recorded bound replayed again: %+v", st)
	}
	// A looser limit, still short of the cost: replayed again, bound raised.
	looser := (tight + exact) / 2
	if _, fits, _ := ev.candidateCost(ctx, m, es.parts[whole], es.fields[whole], lb, looser); fits {
		t.Fatal("a bound entry was returned as a cost")
	}
	if v, isExact := entry(); isExact || v != looser {
		t.Fatalf("entry after the second abort: %v exact=%v, want the bound %v", v, isExact, looser)
	}
	// A limit above the cost: replayed to the end, exact from now on.
	got, fits, err := ev.candidateCost(ctx, m, es.parts[whole], es.fields[whole], lb, 2*exact)
	if err != nil || !fits || math.Float64bits(got) != math.Float64bits(exact) {
		t.Fatalf("under a loose limit: %v fits=%v err=%v, want the exact %v", got, fits, err, exact)
	}
	if v, isExact := entry(); !isExact || v != exact {
		t.Fatalf("entry after the full replay: %v exact=%v", v, isExact)
	}
	st = o.Stats()
	if st.ReplaysAborted != 2 || st.ReplaysSerial != 1 || st.Evaluated != 0 {
		t.Fatalf("replay counts after the upgrade: %+v", st)
	}
	// An exact entry above the limit prunes without a replay.
	if _, fits, _ := ev.candidateCost(ctx, m, es.parts[whole], es.fields[whole], lb, tight); fits {
		t.Fatal("an exact cost above the limit was accepted")
	}
	if after := o.Stats(); after.ReplaysAborted != 2 || after.ReplaysSerial != 1 {
		t.Fatalf("an exact entry replayed again: %+v", after)
	}

	// The same through the public surface: the sweep's own evaluation aborts
	// and upgrades entries of the shared fields, and its table equals the
	// exhaustive one.
	oracle := NewSimulated(prm)
	oracle.SetExhaustive(true)
	want, err := oracle.BuildTableOnCtx(context.Background(), net, 0, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	table, err := o.BuildTableOnCtx(context.Background(), net, 0, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(table, want) {
		t.Errorf("table over upgraded entries %+v, exhaustive %+v", table, want)
	}
	if after := o.Stats(); after.ReplaysAborted <= st.ReplaysAborted {
		t.Errorf("the sweep aborted no replay: %+v", after)
	}
}

// With one worker the sweep is sequential — points in m order, each
// hinted by the one before, candidates serial — so every counter repeats
// exactly, run to run.
func TestSweepWorkersOneIsSequential(t *testing.T) {
	net := topology.MustParseSpec("torus-4x4x4")
	var first Stats
	for run := 0; run < 3; run++ {
		o := NewSimulated(model.IPSC860())
		o.SetWorkers(1)
		if _, err := o.BuildTableOnCtx(context.Background(), net, 0, 256, 16); err != nil {
			t.Fatal(err)
		}
		st := o.Stats()
		st.Certificates = 0 // kept with net's handle: only the first run can pay
		if run == 0 {
			first = st
			if st.ReplaysAborted == 0 || st.PrunedByCutoff == 0 || st.Evaluated+st.Pruned == 0 {
				t.Fatalf("the sweep exercised no cutoff: %+v", st)
			}
			continue
		}
		if !reflect.DeepEqual(st, first) {
			t.Errorf("run %d: %+v, first run %+v", run, st, first)
		}
	}
}

// cancelAfter is a context that reports itself cancelled from its n-th
// Err call on — the sweep's only cancellation check — so the test decides
// exactly which point of the sweep sees the cancellation.
type cancelAfter struct {
	context.Context
	calls chan struct{} // buffered; one token per Err call that still says nil
}

func (c *cancelAfter) Err() error {
	select {
	case <-c.calls:
		return nil
	default:
		return context.Canceled
	}
}

// A cancelled context ends a sweep after at most one more Best per worker,
// with the context's error, and leaves no goroutine behind.
func TestSweepCancel(t *testing.T) {
	net := topology.MustParseSpec("torus-4x4x4")
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(max(workers, runtime.GOMAXPROCS(0)))
		const allowed = 3
		ctx := &cancelAfter{Context: context.Background(), calls: make(chan struct{}, allowed)}
		for i := 0; i < allowed; i++ {
			ctx.calls <- struct{}{}
		}
		o := NewSimulated(model.IPSC860())
		o.SetWorkers(workers)
		_, err := o.BuildTableOnCtx(ctx, net, 0, 256, 16)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled sweep returned %v", workers, err)
		}
		// Every point that found the context live ran its Best; none after.
		if got := o.Stats().Evaluations; got != allowed {
			t.Errorf("workers=%d: %d enumerations around a cancellation at point %d", workers, got, allowed)
		}
		runtime.GOMAXPROCS(prev)
	}
	// BuildTableOnCtx waits for its workers, so none should be left; allow
	// the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the cancelled sweeps, %d after", before, after)
	}
}
