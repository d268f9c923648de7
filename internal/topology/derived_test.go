package topology

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"
)

// derivedKey is this file's own key type, as every caller of Derived
// brings its own.
type derivedKey struct{ fact, lo, w int }

// built reports whether Derived ran build for key on net.
func built(net Network, key derivedKey) (ran bool) {
	Derived(net, key, func() *[8]int { ran = true; return new([8]int) })
	return ran
}

// A handle derives a value once and keeps it: concurrent first callers
// share one run of build, an overlay and a second parse of the same spec
// derive their own, a hit allocates nothing, and a value dies with its
// handle.
func TestDerivedOncePerHandle(t *testing.T) {
	torus := MustParseSpec("torus-4x4") // a handle no other test holds
	var runs atomic.Int32
	const callers = 16
	got := make([]*[8]int, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = Derived(torus, derivedKey{fact: 1}, func() *[8]int {
				runs.Add(1)
				return new([8]int)
			})
		}()
	}
	close(start)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Errorf("%d concurrent first callers ran build %d times, want once", callers, n)
	}
	for i, v := range got {
		if v != got[0] {
			t.Errorf("caller %d got another value than caller 0", i)
		}
	}

	for _, other := range []string{"torus-4x4!dl=0-1", "torus-4x4"} {
		if !built(MustParseSpec(other), derivedKey{fact: 1}) {
			t.Errorf("%s shares values with another handle", other)
		}
	}
	if !built(torus, derivedKey{fact: 1, w: 1}) {
		t.Error("keys differing in one field share a value")
	}
	if allocs := testing.AllocsPerRun(100, func() { built(torus, derivedKey{fact: 1}) }); allocs != 0 {
		t.Errorf("a hit allocated %.0f times", allocs)
	}

	value := func() weak.Pointer[[64]int] {
		mesh := MustParseSpec("mesh-3x3")
		return weak.Make(Derived(mesh, derivedKey{}, func() *[64]int { return new([64]int) }))
	}()
	runtime.GC()
	runtime.GC()
	if value.Value() != nil {
		t.Error("a value derived on an unreachable handle was not collected")
	}
}
