package topology

import (
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// faultCases builds the five damage patterns the derivation is checked
// under, all hanging off node 0: one dead wire, one dead node, slow wires
// only, a mix of the three, and node 0 cut off from the rest.
func faultCases(base Network) map[string]FaultSet {
	nb := base.Neighbors(0)
	last := base.Nodes() - 1
	severed := FaultSet{}
	for _, q := range nb {
		severed.DeadLinks = append(severed.DeadLinks, Link{A: 0, B: q})
	}
	return map[string]FaultSet{
		"dl":      {DeadLinks: []Link{{A: 0, B: nb[0]}}},
		"dn":      {DeadNodes: []int{last}},
		"sl-only": {SlowLinks: []SlowLink{{Link: Link{A: 0, B: nb[1]}, Factor: 2.5}}},
		"mixed": {
			DeadLinks: []Link{{A: 0, B: nb[0]}},
			DeadNodes: []int{last},
			SlowLinks: []SlowLink{{Link: Link{A: 0, B: nb[1]}, Factor: 2.5}},
		},
		"severed": severed,
	}
}

// wide runs TestDegradedDerivedFactsMatchOracle's whole matrix; without it
// hypercube-10 — two seconds of oracle walks — takes its dead-wire case
// only. go test ./internal/topology -args -wide
var wide = flag.Bool("wide", false, "compare every hypercube-10 overlay against the oracle walks")

// The one derivation pass must answer exactly what the separate walks it
// replaced answered (oracle_test.go): same verdict and message, same
// diameter.
func TestDegradedDerivedFactsMatchOracle(t *testing.T) {
	for _, spec := range []string{
		"hypercube-6", "hypercube-7", "hypercube-8", "hypercube-9", "hypercube-10",
		"torus-8x8", "mesh-8x8", "torus-4x4x4", "torus-3x5x4", "mesh-7x9",
	} {
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			base := MustParseSpec(spec)
			for name, fs := range faultCases(base) {
				if spec == "hypercube-10" && name != "dl" && !*wide {
					continue
				}
				d := mustOverlay(t, base, fs)
				got, want := d.Connected(), oracleConnected(d)
				if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
					t.Errorf("%s: Connected() = %v, oracle %v", d.Name(), got, want)
				}
				if (name == "severed") != (got != nil) {
					t.Errorf("%s (%s): Connected() = %v", d.Name(), name, got)
				}
				if got, want := d.Diameter(), oracleDiameter(d); got != want {
					t.Errorf("%s: Diameter() = %d, oracle %d", d.Name(), got, want)
				}
			}
		})
	}
}

// Above maxExactMetricNodes the diameter is an estimate that must not
// fall below the live graph's true diameter on fabrics whose detours stay
// local — a dead node counts as the wires it takes down. The exact value
// comes from the same all-pairs pass, run past its size bound.
func TestLargeFabricDiameterFallback(t *testing.T) {
	for _, spec := range []string{
		"mesh-2x2100!dn=2",
		"torus-65x65!dn=100!dl=0-1",
		"mesh-3x1400!dn=1,2103!dl=10-13",
	} {
		d := MustParseSpec(spec).(*Degraded)
		if d.Nodes() <= maxExactMetricNodes {
			t.Fatalf("%s: %d nodes do not reach the fallback", spec, d.Nodes())
		}
		if err := d.Connected(); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		g, _ := d.liveGraph()
		exact := g.allPairs(d.deadNode)
		if got := d.Diameter(); got < exact || got <= d.base.Diameter() {
			t.Errorf("%s: Diameter() = %d, live graph %d, base %d", spec, got, exact, d.base.Diameter())
		}
	}
}

func mustResolve(t *testing.T, spec string) Network {
	t.Helper()
	net, err := Resolve(spec)
	if err != nil {
		t.Fatalf("Resolve(%q): %v", spec, err)
	}
	return net
}

// testRun numbers the runs of the tests below in this process: the handle
// table has no reset hook, so each run names fabrics no earlier run — under
// -count too — has resolved.
var testRun int

func TestResolveSharesHandles(t *testing.T) {
	testRun++
	factor := fmt.Sprintf("%d.25", testRun+1)
	canon, err := Resolve("torus-8x8!dn=9!dl=0-1,8-9!sl=2-3:" + factor)
	if err != nil {
		t.Fatal(err)
	}
	for _, spelling := range []string{
		canon.Name(),
		"  TORUS-8x8!dn=9!dl=0-1,8-9!sl=2-3:" + factor + "\n",
		"torus-8x8!sl=3-2:" + factor + "!dl=9-8,1-0,0-1!dn=9,9",
		"torus-8x8!dl=8-9!dn=9!sl=2-3:1.5,2-3:" + factor + "!dl=0-1",
	} {
		got, err := Resolve(spelling)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", spelling, err)
		}
		if got != canon {
			t.Errorf("Resolve(%q) = %p (%s), want the handle %p (%s)", spelling, got, got.Name(), canon, canon.Name())
		}
	}
	if a, b := mustResolve(t, "Torus-8x8 "), mustResolve(t, "torus-8x8"); a != b || a == Network(canon) {
		t.Errorf("torus-8x8 resolved to %p and %p (overlay %p)", a, b, canon)
	}
	if cube, _ := Resolve("cube-7"); cube != Network(MustNew(7)) {
		t.Errorf("Resolve(cube-7) is not the shared hypercube")
	}
	if _, err := Resolve("blob-3"); err == nil {
		t.Error("Resolve(blob-3) succeeded")
	}

	// Concurrent first use of one new fabric: one handle, one derivation.
	spec := "hypercube-8!dl=0-1!sl=2-3:" + factor
	before := ResolveStats()
	const callers = 16
	got := make([]Network, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net, err := Resolve(spec)
			if err != nil {
				t.Error(err)
				return
			}
			if net.Diameter() != 8 || CheckOperational(net) != nil {
				t.Errorf("%s: diameter %d, operational %v", spec, net.Diameter(), CheckOperational(net))
			}
			got[i] = net
		}()
	}
	wg.Wait()
	for _, net := range got {
		if net != got[0] {
			t.Fatalf("concurrent Resolve(%q) returned two handles", spec)
		}
	}
	after := ResolveStats()
	if n := after.Derivations - before.Derivations; n != 1 {
		t.Errorf("%d derivations for one fabric, want 1", n)
	}
	if after.Hits+after.Misses-before.Hits-before.Misses != callers {
		t.Errorf("hits+misses moved by %d, want %d", after.Hits+after.Misses-before.Hits-before.Misses, callers)
	}
}

func TestResolveTableIsBounded(t *testing.T) {
	testRun++
	held, err := Resolve(fmt.Sprintf("torus-8x8!dl=0-1!sl=2-3:%d.75", testRun+1))
	if err != nil {
		t.Fatal(err)
	}
	wantDiameter := held.Diameter()
	checkBounds := func() {
		t.Helper()
		handles.mu.RLock()
		defer handles.mu.RUnlock()
		if len(handles.byName) > maxHandles || len(handles.alias) > maxAliases {
			t.Fatalf("table holds %d handles and %d aliases, bounds %d and %d",
				len(handles.byName), len(handles.alias), maxHandles, maxAliases)
		}
	}
	evictions := ResolveStats().Evictions
	for i := 0; i < 10000; i++ {
		spec := fmt.Sprintf("torus-%dx%d", 2+i/100, 2+i%100)
		net, err := Resolve(spec)
		if err != nil || net.Name() != spec {
			t.Fatalf("Resolve(%q) = %v, %v", spec, net, err)
		}
		if i%1000 == 0 {
			checkBounds()
		}
	}
	checkBounds()
	if ResolveStats().Evictions == evictions {
		t.Error("10 000 distinct fabrics evicted nothing")
	}
	one, err := Resolve("mesh-5x3")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		spelling := strings.Repeat(" ", 1+i%100) + "Mesh-5X3" + strings.Repeat("\t", i/100)
		if net, err := Resolve(spelling); err != nil || net != one {
			t.Fatalf("Resolve(%q) = %v, %v, want the mesh-5x3 handle", spelling, net, err)
		}
	}
	checkBounds()
	if ResolveStats().Handles > maxHandles {
		t.Errorf("ResolveStats().Handles = %d", ResolveStats().Handles)
	}

	// The handle taken before the flood was evicted by it and still answers;
	// its name resolves to an equal fabric.
	if held.Diameter() != wantDiameter || CheckOperational(held) != nil || held.Distance(0, 1) != 3 {
		t.Errorf("evicted handle %s stopped answering", held.Name())
	}
	again, err := Resolve(held.Name())
	if err != nil || again.Name() != held.Name() || again.Diameter() != wantDiameter {
		t.Errorf("Resolve(%q) after eviction = %v, %v", held.Name(), again, err)
	}
}

// Resolve is ParseSpec with sharing: same errors, same names, and a name
// resolves to the handle that reported it.
func FuzzResolveSpec(f *testing.F) {
	for _, seed := range []string{
		"hypercube-7", " Torus-4x4x4 ", "cube-3", "mesh-8x8", "torus-4x4!dl=0-1",
		"torus-4x4!sl=0-1:2.5!dl=1-0,0-1", "mesh-8x8!dn=3,3,1", "hypercube-6!sl=0-1:2.5!dn=5",
		"blob-3", "torus-0x4", "torus-4x4!dl=0-5", "torus-4x4!", "hypercube-5!sl=0-1:1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 96 {
			t.Skip()
		}
		// An overlay allocates per link slot: keep fuzzed fabrics small.
		baseSpec, _ := SplitSpec(spec)
		if base, err := ParseSpec(baseSpec); err == nil && base.Nodes() > 1<<12 {
			t.Skip()
		}
		parsed, perr := ParseSpec(spec)
		net, rerr := Resolve(spec)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("%q: ParseSpec error %v, Resolve error %v", spec, perr, rerr)
		}
		if perr != nil {
			if perr.Error() != rerr.Error() {
				t.Fatalf("%q: ParseSpec says %q, Resolve %q", spec, perr, rerr)
			}
			return
		}
		if net.Name() != parsed.Name() || HealthDigestOf(net) != HealthDigestOf(parsed) {
			t.Fatalf("%q: Resolve names %q (%s), ParseSpec %q (%s)", spec,
				net.Name(), HealthDigestOf(net), parsed.Name(), HealthDigestOf(parsed))
		}
		byName, err := Resolve(net.Name())
		if err != nil || byName != net {
			t.Fatalf("%q: Resolve(Name() = %q) = %v, %v, want the same handle", spec, net.Name(), byName, err)
		}
		if again, _ := Resolve(spec); again != net {
			t.Fatalf("%q: resolved to two handles", spec)
		}
	})
}

var benchNet Network

// A spelling seen before is a map read: 0 allocs/op.
func BenchmarkResolveHit(b *testing.B) {
	const spec = "torus-4x4x4"
	if _, err := Resolve(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		benchNet, _ = Resolve(spec)
	}
}

// One op is what a fabric's first request pays: parse, overlay, derive.
func BenchmarkDegradedDerive(b *testing.B) {
	for _, spec := range []string{"hypercube-10!dl=0-1", "hypercube-10!sl=0-1:2.5", "torus-8x8!dl=0-1"} {
		b.Run(spec, func(b *testing.B) {
			for b.Loop() {
				benchNet = MustParseSpec(spec)
				if benchNet.Diameter() == 0 {
					b.Fatal("no diameter")
				}
			}
		})
	}
}
