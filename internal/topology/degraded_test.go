package topology

import (
	"errors"
	"reflect"
	"testing"
)

func mustOverlay(t *testing.T, base Network, fs FaultSet) *Degraded {
	t.Helper()
	d, err := Overlay(base, fs)
	if err != nil {
		t.Fatalf("Overlay(%s, %+v): %v", base.Name(), fs, err)
	}
	return d
}

// An overlay always carries a fault: Overlay refuses an empty set, and
// every overlay a spec resolves to — through ParseSpec or the shared
// table — has a non-empty digest that suffixes its name.
func TestOverlayCarriesAFault(t *testing.T) {
	for _, spec := range []string{"hypercube-5", "torus-4x4x4", "mesh-5x3"} {
		if d, err := Overlay(MustParseSpec(spec), FaultSet{}); err == nil {
			t.Fatalf("%s: Overlay(FaultSet{}) = %s, want an error", spec, d.Name())
		}
	}
	for _, spec := range []string{"torus-4x4!", "torus-4x4!dl=", "hypercube-3!dn=", "hypercube-3!!"} {
		if net, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) = %s, want an error", spec, net.Name())
		}
	}
	for _, spec := range []string{"hypercube-5!dl=0-1", "torus-4x4!dn=5", "mesh-5x3!sl=0-1:2", "TORUS-4x4 !dl=1-0"} {
		for _, resolve := range []func(string) (Network, error){ParseSpec, Resolve} {
			net, err := resolve(spec)
			if err != nil {
				t.Fatalf("%q: %v", spec, err)
			}
			d, ok := net.(*Degraded)
			if !ok {
				t.Fatalf("%q resolved to %T, want *Degraded", spec, net)
			}
			if digest := d.HealthDigest(); digest == "" || digest == "ok" || d.Name() != d.Base().Name()+"!"+digest {
				t.Errorf("%q: digest %q, name %q", spec, digest, d.Name())
			}
		}
	}
}

// One dead wire on a torus: unaffected pairs keep the exact base route;
// broken pairs detour over a live shortest path.
func TestDegradedDetourTorus(t *testing.T) {
	base := MustParseSpec("torus-4x4")
	d := mustOverlay(t, base, FaultSet{DeadLinks: []Link{{A: 0, B: 1}}})

	if got, want := d.Name(), "torus-4x4!dl=0-1"; got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
	if got, want := d.HealthDigest(), "dl=0-1"; got != want {
		t.Fatalf("HealthDigest = %q, want %q", got, want)
	}
	if err := d.Operational(); err != nil {
		t.Fatalf("one dead wire on a torus must stay operational: %v", err)
	}

	// The wire is dead in both directions and gone from Neighbors.
	for _, nb := range d.Neighbors(0) {
		if nb == 1 {
			t.Fatal("dead wire 0-1 still in Neighbors(0)")
		}
	}
	if d.LinkAlive(0, 1) || d.LinkAlive(1, 0) {
		t.Fatal("dead wire reports LinkAlive")
	}

	n := base.Nodes()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			route, err := d.Route(src, dst)
			if err != nil {
				t.Fatalf("route %d→%d: %v", src, dst, err)
			}
			for i := 0; i+1 < len(route); i++ {
				if !d.LinkAlive(route[i], route[i+1]) {
					t.Fatalf("route %d→%d crosses dead wire at hop %d→%d: %v",
						src, dst, route[i], route[i+1], route)
				}
				if base.Distance(route[i], route[i+1]) != 1 {
					t.Fatalf("route %d→%d hop %d→%d is not a link", src, dst, route[i], route[i+1])
				}
			}
			baseRoute, _ := base.Route(src, dst)
			clean := true
			for i := 0; i+1 < len(baseRoute); i++ {
				if !d.LinkAlive(baseRoute[i], baseRoute[i+1]) {
					clean = false
					break
				}
			}
			if clean && !reflect.DeepEqual(route, baseRoute) {
				t.Fatalf("unaffected pair %d→%d changed route: %v vs %v", src, dst, route, baseRoute)
			}
			if !clean && len(route)-1 != d.Distance(src, dst) {
				t.Fatalf("detour %d→%d hops %d != Distance %d", src, dst, len(route)-1, d.Distance(src, dst))
			}
		}
	}
	// 4x4 torus has 64 directed links; one dead wire removes 2.
	links := 0
	for p := 0; p < n; p++ {
		links += len(d.Neighbors(p))
	}
	if links != 64-2 {
		t.Fatalf("%d live directed links, want 62", links)
	}
}

func TestDegradedUnroutable(t *testing.T) {
	// A 1-D mesh severed in the middle partitions the line.
	base := MustParseSpec("mesh-6")
	d := mustOverlay(t, base, FaultSet{DeadLinks: []Link{{A: 2, B: 3}}})
	if _, err := d.Route(0, 5); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("Route across severed mesh: %v, want ErrUnroutable", err)
	}
	if err := d.Connected(); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("Connected on severed mesh: %v, want ErrUnroutable", err)
	}
	if err := CheckOperational(d); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("CheckOperational on severed mesh: %v, want ErrUnroutable", err)
	}
	// Same side of the cut still routes.
	if _, err := d.Route(0, 2); err != nil {
		t.Fatalf("Route within live partition: %v", err)
	}

	// A dead node makes a complete exchange impossible even though the
	// survivors stay connected.
	d2 := mustOverlay(t, MustParseSpec("torus-4x4"), FaultSet{DeadNodes: []int{5}})
	if err := d2.Connected(); err != nil {
		t.Fatalf("torus minus one node must stay connected: %v", err)
	}
	if err := d2.Operational(); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("Operational with dead node: %v, want ErrUnroutable", err)
	}
	if _, err := d2.Route(5, 0); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("Route from dead node: %v, want ErrUnroutable", err)
	}
}

func TestDegradedSlowLinks(t *testing.T) {
	base := MustParseSpec("torus-4x4")
	d := mustOverlay(t, base, FaultSet{SlowLinks: []SlowLink{{Link: Link{A: 0, B: 1}, Factor: 2.5}}})
	if !d.HasSlowLinks() || d.MaxSlowFactor() != 2.5 {
		t.Fatalf("slow-link state wrong: has=%v max=%v", d.HasSlowLinks(), d.MaxSlowFactor())
	}
	if got := d.SlowFactor(base.LinkSlot(0, 1)); got != 2.5 {
		t.Fatalf("SlowFactor(0→1) = %v, want 2.5", got)
	}
	if got := d.SlowFactor(base.LinkSlot(1, 0)); got != 2.5 {
		t.Fatalf("SlowFactor(1→0) = %v, want 2.5 (both directions)", got)
	}
	if got := d.SlowFactor(base.LinkSlot(1, 2)); got != 1 {
		t.Fatalf("SlowFactor(healthy) = %v, want 1", got)
	}
	// Slow links do not change routes, only speeds.
	want, _ := base.Route(0, 1)
	got, err := d.Route(0, 1)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("slow wire changed route: %v, %v", got, err)
	}
	dist, slow, err := d.RouteMetrics(0, 1)
	if err != nil || dist != 1 || slow != 2.5 {
		t.Fatalf("RouteMetrics(0,1) = %d, %v, %v; want 1, 2.5", dist, slow, err)
	}
	if err := d.Operational(); err != nil {
		t.Fatalf("slow links must stay operational: %v", err)
	}
}

func TestFaultSetCanonicalization(t *testing.T) {
	base := MustParseSpec("torus-4x4")
	d := mustOverlay(t, base, FaultSet{
		DeadNodes: []int{7, 3, 7},
		DeadLinks: []Link{{A: 1, B: 0}, {A: 0, B: 1}, {A: 8, B: 12}},
		SlowLinks: []SlowLink{
			{Link: Link{A: 1, B: 0}, Factor: 2}, // dropped: that wire is dead
			{Link: Link{A: 6, B: 2}, Factor: 2},
			{Link: Link{A: 2, B: 6}, Factor: 3}, // duplicate, keeps max
		},
	})
	fs := d.Faults()
	if !reflect.DeepEqual(fs.DeadNodes, []int{3, 7}) {
		t.Fatalf("DeadNodes = %v", fs.DeadNodes)
	}
	if !reflect.DeepEqual(fs.DeadLinks, []Link{{A: 0, B: 1}, {A: 8, B: 12}}) {
		t.Fatalf("DeadLinks = %v", fs.DeadLinks)
	}
	if !reflect.DeepEqual(fs.SlowLinks, []SlowLink{{Link: Link{A: 2, B: 6}, Factor: 3}}) {
		t.Fatalf("SlowLinks = %v", fs.SlowLinks)
	}
	if got, want := d.HealthDigest(), "dn=3,7!dl=0-1,8-12!sl=2-6:3"; got != want {
		t.Fatalf("HealthDigest = %q, want %q", got, want)
	}

	// Validation failures.
	for _, bad := range []FaultSet{
		{DeadNodes: []int{99}},
		{DeadLinks: []Link{{A: 0, B: 5}}}, // not adjacent in torus-4x4
		{DeadLinks: []Link{{A: 0, B: 0}}},
		{SlowLinks: []SlowLink{{Link: Link{A: 0, B: 1}, Factor: 0.5}}},
		{SlowLinks: []SlowLink{{Link: Link{A: 0, B: 1}, Factor: 1}}},
	} {
		if _, err := Overlay(base, bad); err == nil {
			t.Fatalf("Overlay(%+v) accepted invalid fault set", bad)
		}
	}
	if _, err := Overlay(d, FaultSet{DeadNodes: []int{1}}); err == nil {
		t.Fatal("Overlay over an already degraded network must be rejected")
	}
}

// Degraded names round-trip through ParseSpec to an equivalent overlay.
func TestDegradedSpecRoundTrip(t *testing.T) {
	d := mustOverlay(t, MustParseSpec("torus-4x4x4"), FaultSet{
		DeadNodes: []int{3, 5},
		DeadLinks: []Link{{A: 0, B: 1}, {A: 8, B: 9}},
		SlowLinks: []SlowLink{{Link: Link{A: 2, B: 6}, Factor: 2.5}},
	})
	net, err := ParseSpec(d.Name())
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", d.Name(), err)
	}
	d2, ok := net.(*Degraded)
	if !ok {
		t.Fatalf("ParseSpec(%q) = %T, want *Degraded", d.Name(), net)
	}
	if d2.Name() != d.Name() || !reflect.DeepEqual(d2.Faults(), d.Faults()) {
		t.Fatalf("round-trip mismatch: %q vs %q", d2.Name(), d.Name())
	}
	base, digest := SplitSpec(d.Name())
	if base != "torus-4x4x4" || digest != "dn=3,5!dl=0-1,8-9!sl=2-6:2.5" {
		t.Fatalf("SplitSpec = %q, %q", base, digest)
	}

	for _, bad := range []string{
		"torus-4x4!dl=0-5",     // not adjacent
		"torus-4x4!xx=1",       // unknown group
		"torus-4x4!dn=",        // empty value
		"torus-4x4!sl=0-1:0.5", // factor ≤ 1
		"torus-4x4!dl=0",       // malformed link
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted a bad degraded spec", bad)
		}
	}
}

// HealthDigestOf and SplitSpec on plain networks.
func TestHealthDigestOfPlain(t *testing.T) {
	if got := HealthDigestOf(MustNew(3)); got != "ok" {
		t.Fatalf("HealthDigestOf(hypercube) = %q", got)
	}
	base, digest := SplitSpec("hypercube-3")
	if base != "hypercube-3" || digest != "" {
		t.Fatalf("SplitSpec(plain) = %q, %q", base, digest)
	}
}
