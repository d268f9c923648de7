package plancache

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/topology"
)

// A version-1 snapshot (pre-topology keys) must be rejected as stale —
// its lines were keyed on (machine, d) with the hypercube assumed, so
// restoring them under the topology-keyed schema could mis-serve.
func TestStaleV1SnapshotRejected(t *testing.T) {
	v1 := `{
  "version": 1,
  "lines": [
    {
      "machine": "hypo",
      "params": {"Lambda": 200, "Tau": 1, "Delta": 20, "Rho": 1},
      "d": 3,
      "sweep_lo": 0,
      "sweep_hi": 512,
      "sweep_step": 1,
      "segments": [{"partition": [3], "min_block": 0, "max_block": 512}]
    }
  ]
}`
	c := New(Config{})
	restored, skipped, err := c.Restore(strings.NewReader(v1))
	if err == nil {
		t.Fatalf("v1 snapshot restored without error (%d restored, %d skipped)", restored, skipped)
	}
	if !strings.Contains(err.Error(), "stale snapshot version 1") {
		t.Errorf("error should identify the stale version: %v", err)
	}
	if s := c.Stats(); s.Lines != 0 {
		t.Errorf("stale snapshot left %d resident lines", s.Lines)
	}
}

// Torus lines must survive a snapshot/restore cycle: the restored cache
// answers identically with zero builds.
func TestTorusLineSnapshotRoundTrip(t *testing.T) {
	cfg := Config{SweepHi: 64, NewOptimizer: optimize.New}
	src := New(cfg)
	want, err := src.GetForCtx(bg, "hypo", mustSpec(t, "torus-3x3!dl=0-1"), 24)
	if err != nil {
		t.Fatal(err)
	}
	if want.Topo != "torus-3x3!dl=0-1" || want.D != 2 {
		t.Fatalf("unexpected plan: %+v", want)
	}
	if _, err := src.GetForCtx(bg, "hypo", mustSpec(t, fetchedSpec), 24); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(cfg)
	restored, skipped, err := dst.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil || restored != 2 || skipped != 0 {
		t.Fatalf("restore: %d restored, %d skipped, %v", restored, skipped, err)
	}
	got, err := dst.GetForCtx(bg, "hypo", mustSpec(t, "torus-3x3!dl=0-1"), 24)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Part.Equal(want.Part) || got.TimeMicro != want.TimeMicro || got.Topo != want.Topo {
		t.Errorf("restored answer differs: %+v vs %+v", got, want)
	}
	if s := dst.Stats(); s.Builds != 0 {
		t.Errorf("restored cache ran %d builds", s.Builds)
	}
}

// FuzzRestore: Restore and ImportLine never panic on any document; every
// line they accept has ascending, disjoint segments whose groupings split
// its topology's dimensions and answers each covered block size from the
// segment that holds it; and a restored cache's snapshot restores to a
// cache whose snapshot is byte-identical.
func FuzzRestore(f *testing.F) {
	cfg := Config{SweepHi: 64}
	all := New(cfg)
	seed := func(c *Cache) {
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, q := range []struct{ machine, spec string }{
		{"hypo", "hypercube-4!dl=0-1"}, {"ipsc860", "hypercube-3!sl=0-1:2.5"}, {"hypo", "torus-3x3!dl=0-1"}, {"hypo", "mesh-2x3!sl=0-1:2"},
	} {
		one := New(cfg)
		for _, c := range []*Cache{one, all} {
			if _, err := c.GetForCtx(bg, q.machine, mustSpec(f, q.spec), 24); err != nil {
				f.Fatal(err)
			}
		}
		seed(one)
	}
	seed(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc Snapshot
		_ = json.Unmarshal(data, &doc)
		for _, ld := range doc.Lines {
			// An overlay allocates per link slot: keep fuzzed fabrics small.
			base, _ := topology.SplitSpec(ld.Topology)
			if net, err := topology.ParseSpec(base); err == nil && net.Nodes() > 1<<10 {
				t.Skip()
			}
		}
		c := New(cfg)
		c.Restore(bytes.NewReader(data))
		checkLines(t, c)
		for _, ld := range doc.Lines {
			imp := New(cfg)
			if imp.ImportLine(ld) == nil {
				checkLines(t, imp)
			}
		}

		var first, second bytes.Buffer
		if err := c.Snapshot(&first); err != nil {
			t.Fatal(err)
		}
		again := New(cfg)
		if _, _, err := again.Restore(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("restoring a restored cache's snapshot: %v", err)
		}
		if err := again.Snapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("snapshot changed across a restore:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// checkLines asserts what a lookup needs of every resident line.
func checkLines(t *testing.T, c *Cache) {
	t.Helper()
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			ln := el.Value.(*line)
			k, prevMax := ln.net.NumDims(), -1
			for i, seg := range ln.table.Segments {
				if seg.MinBlock <= prevMax || seg.MaxBlock < seg.MinBlock {
					t.Fatalf("%s segment %d [%d,%d] follows max block %d", ln.key.topo, i, seg.MinBlock, seg.MaxBlock, prevMax)
				}
				prevMax = seg.MaxBlock
				if seg.Part.Sum() != k || k > 0 && len(seg.Part) == 0 || slices.ContainsFunc(seg.Part, func(di int) bool { return di <= 0 }) {
					t.Fatalf("%s segment %d grouping %v does not split %d dimensions", ln.key.topo, i, seg.Part, k)
				}
				for _, m := range []int{seg.MinBlock, seg.MinBlock + (seg.MaxBlock-seg.MinBlock)/2, seg.MaxBlock} {
					if got, ok := ln.table.LookupSegment(m); !ok || !reflect.DeepEqual(got, seg) {
						t.Fatalf("%s: m=%d answered by %+v (in range %v), want segment %d", ln.key.topo, m, got, ok, i)
					}
				}
			}
		}
		sh.mu.Unlock()
	}
}

// The torus answer must be the optimizer's own winner, and hits must
// bypass the optimizer entirely.
func TestTorusLineMatchesOptimizerAndHitsBypass(t *testing.T) {
	prm := model.Hypothetical()
	opt := optimize.New(prm)
	c := New(Config{SweepHi: 64})
	topoName := "torus-4x4"

	p, err := c.GetForCtx(bg, "hypo", mustSpec(t, topoName), 40)
	if err != nil {
		t.Fatal(err)
	}
	net, err := ResolveTopology(topoName)
	if err != nil {
		t.Fatal(err)
	}
	best, err := opt.BestOn(net, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Part.Equal(best.Part) {
		t.Errorf("cache served %v, optimizer wants %v", p.Part, best.Part)
	}
	if p.TimeMicro != best.TimeMicro {
		t.Errorf("cache priced %v, optimizer %v", p.TimeMicro, best.TimeMicro)
	}

	before := c.Stats()
	for m := 0; m <= 64; m++ {
		if _, err := c.GetForCtx(bg, "hypo", mustSpec(t, topoName), m); err != nil {
			t.Fatal(err)
		}
	}
	after := c.Stats()
	if after.Builds != before.Builds {
		t.Errorf("hits triggered %d extra builds", after.Builds-before.Builds)
	}
	if after.Hits-before.Hits != 65 {
		t.Errorf("expected 65 hits, got %d", after.Hits-before.Hits)
	}

	// Distinct topologies must be distinct lines even at equal node count.
	if _, err := c.GetForCtx(bg, "hypo", mustSpec(t, "hypercube-4"), 40); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Lines != 2 {
		t.Errorf("expected 2 resident lines (torus-4x4, hypercube-4), got %d", s.Lines)
	}
}

// Bad topology specs must surface as request-validation errors, not
// build failures (the service maps them to 400 vs 500).
func TestBadTopologySpecIsRequestError(t *testing.T) {
	_, err := ResolveTopology("torus-0x4")
	if err == nil {
		t.Fatal("bad spec must fail")
	}
	var be *BuildError
	if errors.As(err, &be) {
		t.Errorf("bad spec classified as a build failure: %v", err)
	}
	if _, err := ResolveTopology("klein-bottle-4"); err == nil {
		t.Error("unknown shape must fail")
	}
}

// Unequal-radix topologies with many dimensions enumerate 2^(k−1)
// compositions per Best call; the serving tier must refuse them at
// request validation rather than scheduling an exponential hull build.
func TestMixedRadixDimensionBound(t *testing.T) {
	c := New(Config{})
	// 19 unequal-radix dims, 786432 nodes — inside the node bound, but
	// 2^18 compositions per sweep point.
	spec := "torus-3x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2"
	if _, err := ResolveTopology(spec); err == nil {
		t.Fatal("oversized mixed-radix topology must be rejected at resolution")
	}
	// ...and by the cache itself, for a caller that parsed the spec on its own.
	_, err := c.GetForCtx(bg, "hypo", topology.MustParseSpec(spec), 1)
	if err == nil {
		t.Fatal("oversized mixed-radix topology must be rejected")
	}
	var be *BuildError
	if errors.As(err, &be) {
		t.Errorf("mixed-radix bound classified as a build failure: %v", err)
	}
	// A uniform shape of the same dimension count stays servable (p(k)
	// candidates, not 2^(k−1)).
	if _, err := c.GetForCtx(bg, "hypo", mustSpec(t, "hypercube-19"), 1); err != nil {
		t.Errorf("uniform 19-dim shape must serve: %v", err)
	}
}
