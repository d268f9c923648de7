package plancache

import (
	"bytes"
	"strings"
	"testing"

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
	// A zero-fault overlay hits the bare line: same key, no third build.
	clean := overlayPC(t, "torus-4x4", topology.FaultSet{})
	same, err := c.GetForCtx(bg, "ipsc860", clean, 32)
	if err != nil {
		t.Fatal(err)
	}
	if same.Topo != bare.Topo || same.TimeMicro != bare.TimeMicro {
		t.Fatalf("zero-fault overlay answered (%q, %v), want the bare line (%q, %v)",
			same.Topo, same.TimeMicro, bare.Topo, bare.TimeMicro)
	}
	if st := c.Stats(); st.Lines != 2 {
		t.Fatalf("zero-fault overlay built a third line (lines = %d)", st.Lines)
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

// Snapshots hold only healthy-fabric lines: degraded overlays are
// runtime state, never restart-warm content.
func TestSnapshotSkipsDegradedLines(t *testing.T) {
	c := New(Config{SweepHi: 64})
	if _, err := c.WarmForCtx(bg, "ipsc860", mustSpec(t, "torus-4x4")); err != nil {
		t.Fatal(err)
	}
	slow := overlayPC(t, "torus-4x4", topology.FaultSet{
		SlowLinks: []topology.SlowLink{{Link: topology.Link{A: 0, B: 1}, Factor: 2}},
	})
	if _, err := c.WarmForCtx(bg, "ipsc860", slow); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "sl=0-1") {
		t.Fatal("snapshot serialized a degraded line")
	}
	fresh := New(Config{SweepHi: 64})
	restored, skipped, err := fresh.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 || skipped != 0 {
		t.Fatalf("restore = (%d restored, %d skipped), want (1, 0)", restored, skipped)
	}
	if st := fresh.Stats(); st.Lines != 1 {
		t.Fatalf("restored cache holds %d lines, want only the bare fabric", st.Lines)
	}
}
