package simnet_test

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Where the link-backlog accounting runs — inline on the replay goroutine,
// or on a helper fed chunks of the hold log — must change no bit of any
// Result field. TestContendedReplayPinned holds both placements to its
// pins; this covers the rest: jittered contended replays, the overlays
// whose exchanges hold links through the generic engine, the monolithic
// loop, and bounded replays that trip mid-window. No helper may outlive
// the replay that started it.
func TestHoldLogPlacementsAgree(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	for _, r := range []struct {
		name       string
		spec       string
		part       partition.Partition
		m          int
		jitter     float64
		monolithic bool // replay the bare programs on the monolithic loop too
	}{
		{"torus-16x16 {2} jittered", "torus-16x16", partition.Partition{2}, 40, 0.08, false},
		{"torus-8x8x8 {2,1} jittered", "torus-8x8x8", partition.Partition{2, 1}, 160, 0.08, false},
		{"mesh-16x16 {2}", "mesh-16x16", partition.Partition{2}, 4, 0, false},
		{"hypercube-10!sl=0-1:2.5 {5,5}", "hypercube-10!sl=0-1:2.5", partition.Partition{5, 5}, 40, 0, true},
		{"hypercube-10!dl=0-1 {5,5}", "hypercube-10!dl=0-1", partition.Partition{5, 5}, 40, 0, true},
		{"torus-8x8!dl=0-1 {2}", "torus-8x8!dl=0-1", partition.Partition{2}, 160, 0.08, false},
		{"hypercube-6!sl=0-1:2 {3,3}", "hypercube-6!sl=0-1:2", partition.Partition{3, 3}, 40, 0.08, true},
	} {
		topo := topology.MustParseSpec(r.spec)
		plan, err := exchange.NewPlanOn(topo, r.m, r.part)
		if err != nil {
			t.Fatal(err)
		}
		src := plan.Compile()
		net := simnet.New(topo, model.IPSC860())
		net.SetJitter(r.jitter, 7)
		runs := func(run func() (simnet.Result, error)) (inline, helper simnet.Result, inlineErr, helperErr error) {
			restore := simnet.HoldLogOn(false)
			inline, inlineErr = run()
			restore()
			restore = simnet.HoldLogOn(true)
			helper, helperErr = run()
			restore()
			return
		}
		// The first replay on a handle runs the certificate passes later
		// ones reuse: Result.Certificates would differ.
		if _, err := net.RunSource(src); err != nil {
			t.Fatal(err)
		}
		inline, helper, ierr, herr := runs(func() (simnet.Result, error) { return net.RunSource(src) })
		if ierr != nil || herr != nil {
			t.Fatalf("%s: %v / %v", r.name, ierr, herr)
		}
		requireDeepEqual(t, r.name, inline, helper)
		if inline.MaxEdgeQueue < 1 {
			t.Fatalf("%s: no circuit held a link", r.name)
		}
		if r.monolithic {
			progs := src.Programs()
			inline, helper, ierr, herr = runs(func() (simnet.Result, error) { return net.Run(progs) })
			if ierr != nil || herr != nil {
				t.Fatalf("%s on the monolithic loop: %v / %v", r.name, ierr, herr)
			}
			requireDeepEqual(t, r.name+" on the monolithic loop", inline, helper)
		}
		cutoff := inline.Makespan / 2
		_, _, ierr, herr = runs(func() (simnet.Result, error) { return net.RunSourceBounded(src, cutoff) })
		if !errors.Is(ierr, simnet.ErrCutoff) || !errors.Is(herr, simnet.ErrCutoff) {
			t.Fatalf("%s bounded at half its makespan: %v / %v, want ErrCutoff from both", r.name, ierr, herr)
		}
	}
	// A helper has signalled its join before it returns, so allow it the
	// moment it needs to exit.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the replays, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}

// requireDeepEqual fails unless the helper's result is reflect.DeepEqual
// to the inline one, naming the fields that differ.
func requireDeepEqual(t *testing.T, label string, inline, helper simnet.Result) {
	t.Helper()
	if reflect.DeepEqual(inline, helper) {
		return
	}
	iv, hv := reflect.ValueOf(inline), reflect.ValueOf(helper)
	for i := range iv.NumField() {
		if !reflect.DeepEqual(iv.Field(i).Interface(), hv.Field(i).Interface()) {
			t.Errorf("%s: %s differs between the inline and the helper's accounting", label, iv.Type().Field(i).Name)
		}
	}
	t.FailNow()
}
