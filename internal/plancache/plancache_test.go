package plancache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/topology"
)

func TestGetMatchesOptimizerBest(t *testing.T) {
	c := New(Config{})
	ref := optimize.New(model.IPSC860())
	for _, m := range []int{0, 1, 16, 40, 159, 160, 161, 400, 512} {
		got, err := c.GetForCtx(bg, "ipsc860", mustCube(t, 7), m)
		if err != nil {
			t.Fatalf("Get(ipsc860,7,%d): %v", m, err)
		}
		want, err := ref.BestOn(topology.MustNew(7), m)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Part.Equal(want.Part) {
			t.Errorf("m=%d: cache partition %v, optimizer %v", m, got.Part, want.Part)
		}
		if got.TimeMicro != want.TimeMicro {
			t.Errorf("m=%d: cache time %v, optimizer %v", m, got.TimeMicro, want.TimeMicro)
		}
		if !got.InRange {
			t.Errorf("m=%d: expected in-range resolution", m)
		}
		if m < got.SegMin || m > got.SegMax {
			t.Errorf("m=%d outside reported segment [%d,%d]", m, got.SegMin, got.SegMax)
		}
	}
}

func TestBlockAxisCollapsesToOneLine(t *testing.T) {
	// Capture the cache's optimizer so the bypass claim is checked at
	// the source: hits must not add enumerations.
	var opt *optimize.Optimizer
	c := New(Config{NewOptimizer: func(p model.Params) *optimize.Optimizer {
		opt = optimize.New(p)
		return opt
	}})
	for m := 0; m <= 512; m += 3 {
		if _, err := c.GetForCtx(bg, "ipsc860", mustCube(t, 6), m); err != nil {
			t.Fatal(err)
		}
	}
	evalsAfterBuild := opt.Stats().Evaluations
	if evalsAfterBuild != 1 {
		t.Errorf("line build ran %d enumerations, want 1 (one envelope for all 513 block sizes)", evalsAfterBuild)
	}
	for m := 0; m <= 512; m += 7 {
		if _, err := c.GetForCtx(bg, "ipsc860", mustCube(t, 6), m); err != nil {
			t.Fatal(err)
		}
	}
	if got := opt.Stats().Evaluations; got != evalsAfterBuild {
		t.Errorf("cache hits drove the optimizer: evaluations %d → %d", evalsAfterBuild, got)
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one line build serves every m)", s.Misses)
	}
	if s.Builds != 1 || s.Lines != 1 {
		t.Errorf("builds=%d lines=%d, want 1/1", s.Builds, s.Lines)
	}
	if s.Hits < 100 {
		t.Errorf("hits = %d, want the rest of the sweep", s.Hits)
	}
	if s.Segments == 0 || s.Segments > 64 {
		t.Errorf("segments = %d, want a small hull", s.Segments)
	}
}

func TestOutOfRangeClampsToNearestSegment(t *testing.T) {
	c := New(Config{SweepHi: 200})
	p, err := c.GetForCtx(bg, "ipsc860", mustCube(t, 7), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if p.InRange {
		t.Error("m=1e6 reported in-range for a 200-byte sweep")
	}
	hull, err := c.HullForCtx(bg, "ipsc860", mustCube(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	last := hull.Segments[len(hull.Segments)-1]
	if !p.Part.Equal(last.Part) {
		t.Errorf("clamp answered %v, want last segment %v", p.Part, last.Part)
	}
}

func TestUnknownMachineListsValidSet(t *testing.T) {
	c := New(Config{})
	_, err := c.GetForCtx(bg, "cray", mustCube(t, 6), 40)
	if err == nil {
		t.Fatal("expected error for unknown machine")
	}
	if got := err.Error(); !bytes.Contains([]byte(got), []byte("ipsc860")) {
		t.Errorf("error %q does not list valid machines", got)
	}
}

func TestAliasResolvesToCanonicalLine(t *testing.T) {
	c := New(Config{})
	if _, err := c.GetForCtx(bg, "ipsc", mustCube(t, 6), 40); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetForCtx(bg, "ipsc860", mustCube(t, 6), 80); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Lines != 1 {
		t.Errorf("alias created a second line: %d resident", s.Lines)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{Shards: 1, CapacityPerShard: 2})
	for _, d := range []int{4, 5, 6} {
		if _, err := c.GetForCtx(bg, "hypo", mustCube(t, d), 40); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Lines != 2 {
		t.Errorf("lines = %d, want capacity 2", s.Lines)
	}
	// d=4 was least recently used; touching it again must rebuild.
	if _, err := c.GetForCtx(bg, "hypo", mustCube(t, 4), 40); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Builds != 4 {
		t.Errorf("builds = %d, want 4 (evicted line rebuilt)", s.Builds)
	}
}

func TestSingleflightCollapsesConcurrentBuilds(t *testing.T) {
	c := New(Config{})
	var wg sync.WaitGroup
	errs := make([]error, 32)
	net := mustCube(t, 7)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.GetForCtx(bg, "ncube2", net, 40+i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Builds != 1 {
		t.Errorf("builds = %d, want 1 (singleflight)", s.Builds)
	}
	if s := c.Stats(); s.Inflight != 0 {
		t.Errorf("inflight gauge = %d after quiescence", s.Inflight)
	}
}

// strideBomb is a healthy fabric whose builds panic: the optimizer reads
// its strides, request validation never does.
type strideBomb struct{ topology.Network }

func (strideBomb) Stride(int) int { panic("strideBomb: stride read") }

// A cheap fill runs on the caller's goroutine, where a server recovers a
// panic and keeps serving, so a fill that panics must still retire its
// flight: the next caller for the line starts a fill of its own (and
// panics the same way) instead of waiting on one that never ends.
func TestPanickingFillRetiresItsFlight(t *testing.T) {
	c := New(Config{})
	net := strideBomb{mustSpec(t, "torus-4x4")}
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)
		err := func() (err error) {
			defer func() {
				if recover() == nil {
					t.Errorf("call %d: the fill did not panic (err %v)", i, err)
				}
			}()
			_, err = c.GetForCtx(ctx, "ipsc860", net, 32)
			return err
		}()
		cancel()
		if err != nil {
			t.Fatalf("call %d: %v — the first call's flight was left behind", i, err)
		}
	}
	if s := c.Stats(); s.Inflight != 0 || s.Lines != 0 || s.Builds != 0 {
		t.Fatalf("inflight=%d lines=%d builds=%d after two panicked fills, want 0/0/0", s.Inflight, s.Lines, s.Builds)
	}
}

func TestSnapshotRestoreWarm(t *testing.T) {
	c := New(Config{})
	for _, d := range []int{5, 6, 7} {
		if _, err := c.GetForCtx(bg, "ipsc860", mustCube(t, d), 40); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	warm := New(Config{})
	restored, skipped, err := warm.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 3 || skipped != 0 {
		t.Fatalf("restored %d skipped %d, want 3/0", restored, skipped)
	}
	for _, d := range []int{5, 6, 7} {
		got, err := warm.GetForCtx(bg, "ipsc860", mustCube(t, d), 40)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.GetForCtx(bg, "ipsc860", mustCube(t, d), 40)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Part.Equal(want.Part) || got.TimeMicro != want.TimeMicro {
			t.Errorf("d=%d: restored plan %v/%v, want %v/%v",
				d, got.Part, got.TimeMicro, want.Part, want.TimeMicro)
		}
	}
	if s := warm.Stats(); s.Builds != 0 || s.Misses != 0 {
		t.Errorf("restored cache ran builds=%d misses=%d, want 0/0 (warm)", s.Builds, s.Misses)
	}
}

func TestRestoreSkipsStaleParams(t *testing.T) {
	c := New(Config{})
	if _, err := c.GetForCtx(bg, "ipsc860", mustCube(t, 6), 40); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// A registry whose iPSC constants changed must reject the line.
	changed := model.IPSC860()
	changed.Lambda++
	warm := New(Config{Machines: map[string]model.Params{"ipsc860": changed}})
	restored, skipped, err := warm.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 || skipped != 1 {
		t.Errorf("restored %d skipped %d, want 0/1 for recalibrated machine", restored, skipped)
	}
}

func TestRestoreSkipsMismatchedSweep(t *testing.T) {
	coarse := New(Config{SweepHi: 128, SweepStep: 8})
	if _, err := coarse.GetForCtx(bg, "ipsc860", mustCube(t, 6), 40); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := coarse.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// A cache promising step-1 answers over [0,512] must not adopt a
	// line built at step 8 over [0,128].
	fine := New(Config{})
	restored, skipped, err := fine.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 || skipped != 1 {
		t.Errorf("restored %d skipped %d, want 0/1 for mismatched sweep", restored, skipped)
	}
}

func TestRestoreRejectsMalformedSnapshot(t *testing.T) {
	warm := New(Config{})
	if _, _, err := warm.Restore(bytes.NewReader([]byte("{"))); err == nil {
		t.Error("expected error for truncated JSON")
	}
	bad := []byte(`{"version":1,"lines":[{"machine":"ipsc860","params":` +
		mustParamsJSON(t) + `,"d":6,"sweep_lo":0,"sweep_hi":512,"sweep_step":1,` +
		`"segments":[{"partition":[9,9],"min_block":0,"max_block":10}]}]}`)
	if _, _, err := warm.Restore(bytes.NewReader(bad)); err == nil {
		t.Error("expected error for invalid stored partition")
	}
}

func mustParamsJSON(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	c := New(Config{})
	if _, err := c.GetForCtx(bg, "ipsc860", mustCube(t, 5), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Lines []struct {
			Params interface{} `json:"params"`
		} `json:"lines"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(snap.Lines[0].Params)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestWarm(t *testing.T) {
	c := New(Config{})
	built, err := c.WarmForCtx(bg, "hypo", mustCube(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Error("first Warm did not build")
	}
	built, err = c.WarmForCtx(bg, "hypo", mustCube(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if built {
		t.Error("second Warm rebuilt a resident line")
	}
	if _, err := ResolveHypercube(-1); err == nil {
		t.Error("expected error for negative dimension")
	}
}

func TestZeroDimension(t *testing.T) {
	c := New(Config{})
	p, err := c.GetForCtx(bg, "hypo", mustCube(t, 0), 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Part) != 0 || p.TimeMicro != 0 || len(p.Phases) != 0 {
		t.Errorf("d=0 plan = %+v, want empty partition and zero time", p)
	}
}

// An analytic line build keeps nothing but the line: churning hypercube-8…16
// on every registry machine through a cache too small to hold them (the
// fleet_churn shape) must leave the live heap where it was — the per-block-
// size memo a sweep used to leave behind was hundreds of MB here — and a
// rebuild of the largest line, fill machinery included, is a few dozen
// allocations.
func TestAnalyticBuildRetainsNothing(t *testing.T) {
	c := New(Config{Shards: 1, CapacityPerShard: 12})
	before := liveHeap()
	for round := 0; round < 2; round++ {
		for d := 8; d <= 16; d++ {
			for _, machine := range model.MachineNames() {
				if _, err := c.WarmForCtx(bg, machine, mustCube(t, d)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s := c.Stats()
	if want := int64(2 * 9 * len(model.MachineNames())); s.Builds != want || s.Evictions != want-12 {
		t.Fatalf("builds=%d evictions=%d, want %d builds and all but 12 evicted", s.Builds, s.Evictions, want)
	}
	if grew := int64(liveHeap()) - int64(before); grew > 4<<20 {
		t.Errorf("live heap grew by %d KB over %d line builds, want < 4 MB", grew>>10, s.Builds)
	}

	cube := mustCube(t, 16)
	isCube16 := func(_, topo string) bool { return topo == cube.Name() }
	allocs := testing.AllocsPerRun(20, func() {
		c.InvalidateWhere(isCube16)
		if built, err := c.WarmForCtx(bg, "ipsc860", cube); err != nil || !built {
			t.Fatalf("rebuild: built=%v err=%v", built, err)
		}
	})
	if allocs > 40 {
		t.Errorf("a hypercube-16 rebuild made %.0f allocations, want ≤ 40", allocs)
	}
	t.Logf("hypercube-16 rebuild: %.0f allocs", allocs)
}

// liveHeap returns the heap in use after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// What a build derives from a fabric — here a faulted overlay's per-step
// phase metrics — is kept with the fabric's handle, so a line's eviction
// lets it go with the handle. Eight lines on un-interned overlays of
// torus-256x256, each with another dead wire, churned through a one-line
// cache leave about the one resident handle behind. Kept in process-wide
// memos keyed by the fabric's name instead, each digest held ≈ 1 MB for
// good (its whole-machine phase's fallback metrics, one copy per step).
func TestEvictedOverlayLinesRetainNothing(t *testing.T) {
	c := New(Config{Shards: 1, CapacityPerShard: 1})
	before := liveHeap()
	const digests = 8
	for i := 0; i < digests; i++ {
		net, err := topology.ParseSpec(fmt.Sprintf("torus-256x256!dl=%d-%d", i, i+1))
		if err != nil {
			t.Fatal(err)
		}
		if built, err := c.WarmForCtx(bg, "ipsc860", net); err != nil || !built {
			t.Fatalf("%s: built=%v err=%v", net.Name(), built, err)
		}
	}
	if s := c.Stats(); s.Lines != 1 || s.Evictions != digests-1 {
		t.Fatalf("lines=%d evictions=%d, want one resident line", s.Lines, s.Evictions)
	}
	grew := int64(liveHeap()) - int64(before)
	t.Logf("live heap grew by %d KB over %d overlay lines", grew>>10, digests)
	if grew > 1536<<10 {
		t.Errorf("live heap grew by %d KB over %d overlay lines, want < 1.5 MB", grew>>10, digests)
	}
}
