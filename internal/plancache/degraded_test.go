package plancache

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/optimize"
	"repro/internal/topology"
)

func overlayPC(t *testing.T, spec string, fs topology.FaultSet) *topology.Degraded {
	t.Helper()
	d, err := topology.Overlay(topology.MustParseSpec(spec), fs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A degraded overlay gets its own cache line: the health digest in its
// Name() separates it from the bare fabric's line, and both answers
// reflect their own network — the degraded one costs more.
func TestDegradedLineKeyedSeparately(t *testing.T) {
	c := New(Config{SweepHi: 64})
	bare, err := c.GetForCtx(bg, "ipsc860", mustSpec(t, "torus-4x4"), 32)
	if err != nil {
		t.Fatal(err)
	}
	slow := overlayPC(t, "torus-4x4", topology.FaultSet{
		SlowLinks: []topology.SlowLink{{Link: topology.Link{A: 0, B: 1}, Factor: 4}},
	})
	deg, err := c.GetForCtx(bg, "ipsc860", slow, 32)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Topo == bare.Topo {
		t.Fatalf("degraded plan reused the bare topology key %q", bare.Topo)
	}
	if !strings.Contains(deg.Topo, "sl=0-1:4") {
		t.Fatalf("degraded plan key %q lacks the fault digest", deg.Topo)
	}
	if deg.TimeMicro <= bare.TimeMicro {
		t.Fatalf("degraded plan %v µs not above healthy %v µs", deg.TimeMicro, bare.TimeMicro)
	}
	if st := c.Stats(); st.Lines != 2 {
		t.Fatalf("resident lines = %d, want 2 (bare + degraded)", st.Lines)
	}
}

// WarmFor builds a line for an already-constructed overlay, and
// InvalidateWhere retires exactly the matching lines.
func TestWarmForAndInvalidateWhere(t *testing.T) {
	c := New(Config{SweepHi: 64})
	dead := overlayPC(t, "torus-4x4", topology.FaultSet{
		DeadLinks: []topology.Link{{A: 0, B: 1}},
	})
	built, err := c.WarmForCtx(bg, "ipsc860", dead)
	if err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Fatal("WarmFor on a cold cache did not build")
	}
	if built, err = c.WarmForCtx(bg, "ipsc860", dead); err != nil || built {
		t.Fatalf("second WarmFor = (%v, %v), want resident hit", built, err)
	}
	if _, err := c.WarmForCtx(bg, "ipsc860", mustSpec(t, "torus-4x4")); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Lines != 2 {
		t.Fatalf("resident lines = %d, want 2", st.Lines)
	}
	// Retire only the fault-digest line; the bare line survives.
	n := c.InvalidateWhere(func(machine, topo string) bool {
		_, digest := topology.SplitSpec(topo)
		return digest != ""
	})
	if n != 1 {
		t.Fatalf("InvalidateWhere removed %d lines, want 1", n)
	}
	if st := c.Stats(); st.Lines != 1 {
		t.Fatalf("after invalidation lines = %d, want 1", st.Lines)
	}
	if _, err := c.GetForCtx(bg, "ipsc860", mustSpec(t, "torus-4x4"), 16); err != nil {
		t.Fatalf("bare line gone after degraded invalidation: %v", err)
	}
	hitsBefore := c.Stats().Builds
	if built, err = c.WarmForCtx(bg, "ipsc860", dead); err != nil || !built {
		t.Fatalf("WarmFor after invalidation = (%v, %v), want a rebuild", built, err)
	}
	if c.Stats().Builds != hitsBefore+1 {
		t.Fatal("invalidated line was not rebuilt")
	}
	if c.InvalidateWhere(func(string, string) bool { return false }) != 0 {
		t.Fatal("never-matching predicate removed lines")
	}
}

// What leaves the process is decided by cheap alone: Snapshot — the
// snapshot file and the peer fan-out document — holds a line exactly when
// it is not cheap, a simulated line or one on a faulted fabric, and such a
// line restores to a cache that answers it without a build. A healthy
// analytic line is never written.
func TestSnapshotHoldsExactlyTheLinesThatAreNotCheap(t *testing.T) {
	for _, c := range []struct {
		backend string
		spec    string
		written bool
	}{
		{"analytic", "hypercube-4", false},
		{"analytic", "torus-4x4", false},
		{"analytic", "hypercube-4!dl=0-1", true},
		{"analytic", "torus-4x4!sl=0-1:2.5", true},
		{"simulated", "hypercube-4", true},
		{"simulated", "torus-4x4", true},
		{"simulated", "hypercube-4!dl=0-1", true},
		{"simulated", "torus-4x4!sl=0-1:2.5", true},
	} {
		cfg := Config{SweepHi: 16, SweepStep: 8}
		if c.backend == "simulated" {
			cfg.NewOptimizer = optimize.NewSimulated
		}
		net := mustSpec(t, c.spec)
		src := New(cfg)
		want, err := src.GetForCtx(bg, "ipsc860", net, 12)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := src.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		var doc Snapshot
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var written, wantWritten []string
		for _, ld := range doc.Lines {
			written = append(written, ld.Topology)
		}
		if c.written {
			wantWritten = []string{net.Name()}
		}
		if !slices.Equal(written, wantWritten) {
			t.Errorf("%s %s: snapshot holds %q, want %q", c.backend, c.spec, written, wantWritten)
			continue
		}
		if !c.written {
			continue
		}
		dst := New(cfg)
		if restored, skipped, err := dst.Restore(&buf); err != nil || restored != 1 || skipped != 0 {
			t.Fatalf("%s %s: restore = (%d, %d, %v), want (1, 0, nil)", c.backend, c.spec, restored, skipped, err)
		}
		got, err := dst.GetForCtx(bg, "ipsc860", net, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Part.Equal(want.Part) || got.TimeMicro != want.TimeMicro || got.Topo != want.Topo {
			t.Errorf("%s %s: restored answer %+v, want %+v", c.backend, c.spec, got, want)
		}
		if s := dst.Stats(); s.Builds != 0 || s.Misses != 0 {
			t.Errorf("%s %s: restored line ran builds=%d misses=%d, want 0/0", c.backend, c.spec, s.Builds, s.Misses)
		}
	}
}
