package optimize

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/topology"
)

// updateAnswerDigests rewrites testdata/answer_digests.json and
// testdata/simulated_digests.json from the code under test. Regenerate
// them only in a change that is meant to alter an answer, and list every
// moved segment with both values.
var updateAnswerDigests = flag.Bool("update-answer-digests", false, "rewrite testdata/answer_digests.json and testdata/simulated_digests.json")

const (
	answerDigestFile    = "testdata/answer_digests.json"
	simulatedDigestFile = "testdata/simulated_digests.json"
)

// answerFabrics are the fabrics whose analytic tables are pinned, on every
// registered machine: every hypercube a serving tier accepts, the grids the
// benchmark workloads serve, mixed-radix tori, grids with a field of span
// above 4096, and dead-wire and slow-wire overlays: the replay workload's
// three among them, and one of more than 4096 nodes, whose diameter is the
// estimate rather than an all-pairs search.
var answerFabrics = func() []string {
	var specs []string
	for d := 1; d <= 20; d++ {
		specs = append(specs, fmt.Sprintf("hypercube-%d", d))
	}
	return append(specs,
		"torus-4x4x4", "torus-8x8", "mesh-8x8", "torus-16x16", "mesh-16x16", "torus-4x4x4x4", "torus-8x8x8",
		"torus-3x5", "torus-4x8x2", "torus-3x5x7",
		"torus-32x32x32", "mesh-64x64x4",
		"hypercube-6!dl=0-1", "hypercube-8!sl=0-1:2.5", "torus-4x4!dl=0-1", "torus-8x8!sl=0-1:2.5",
		"hypercube-10!dl=0-1", "hypercube-10!sl=0-1:2.5", "torus-8x8!dl=0-1", "torus-4100!dl=0-1",
	)
}()

// answerSegment is one pinned table segment: the block sizes it covers,
// the grouping served there, and the exact bits of the served time at
// its two ends.
type answerSegment struct {
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Part   []int  `json:"part"`
	LoBits string `json:"lo_bits"`
	HiBits string `json:"hi_bits"`
}

func bitsOf(t float64) string { return fmt.Sprintf("%#016x", math.Float64bits(t)) }

// micro decodes a segment end's bits for a mismatch report.
func micro(bits string) float64 {
	u, err := strconv.ParseUint(bits, 0, 64)
	if err != nil {
		return math.NaN()
	}
	return math.Float64frombits(u)
}

func (s answerSegment) String() string {
	return fmt.Sprintf("[%d,%d] %v %.17g..%.17g µs", s.Lo, s.Hi, partition.Partition(s.Part), micro(s.LoBits), micro(s.HiBits))
}

// answerSweepHi is the top of the plan cache's default sweep
// (plancache.DefaultSweepHi), the block sizes a served line covers.
const answerSweepHi = 512

// answerDigests builds the analytic table of every (machine, fabric) over
// the plan cache's default sweep and reads the served time at each
// segment's ends off BestOn, which must agree with the table's grouping.
func answerDigests(t *testing.T) map[string][]answerSegment {
	nets := make([]topology.Network, len(answerFabrics))
	for i, spec := range answerFabrics {
		var err error
		if nets[i], err = topology.ParseSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string][]answerSegment)
	for _, name := range model.MachineNames() {
		prm, _ := model.MachineByName(name)
		o := New(prm)
		for i, spec := range answerFabrics {
			net := nets[i]
			tbl, err := o.BuildTableOnCtx(t.Context(), net, 0, answerSweepHi, 1)
			if err != nil {
				t.Fatalf("%s %s: %v", name, spec, err)
			}
			key := name + " " + spec
			got[key] = tableDigest(t, o, net, key, tbl)
		}
	}
	return got
}

// tableDigest reads the served time at each end of tbl's segments off
// BestOn, which must agree with the table's grouping.
func tableDigest(t *testing.T, o *Optimizer, net topology.Network, key string, tbl Table) []answerSegment {
	var segs []answerSegment
	for _, seg := range tbl.Segments {
		s := answerSegment{Lo: seg.MinBlock, Hi: seg.MaxBlock, Part: seg.Part}
		for _, end := range []struct {
			m    int
			bits *string
		}{{seg.MinBlock, &s.LoBits}, {seg.MaxBlock, &s.HiBits}} {
			c, err := o.BestOn(net, end.m)
			if err != nil {
				t.Fatalf("%s m=%d: %v", key, end.m, err)
			}
			if !c.Part.Equal(seg.Part) {
				t.Errorf("%s m=%d: BestOn %v, table %v", key, end.m, c.Part, seg.Part)
			}
			*end.bits = bitsOf(c.TimeMicro)
		}
		segs = append(segs, s)
	}
	return segs
}

// simulatedFabrics are the fabrics whose simulated tables are pinned, on
// every registered machine, with the sweep step each is built at: the
// hypercube at every block size, and the grids at the cold-build
// workload's step of 16, where a step-1 sweep would cost seconds.
var simulatedFabrics = []struct {
	spec string
	step int
}{{"hypercube-8", 1}, {"torus-4x4x4", 16}, {"torus-8x8", 16}, {"mesh-8x8", 16}}

// simulatedDigests builds the simulated table of every (machine, fabric)
// above over the plan cache's default sweep. A segment end's time is the
// simulated BestOn's: the whole-plan replay of the winner at that block
// size.
func simulatedDigests(t *testing.T) map[string][]answerSegment {
	got := make(map[string][]answerSegment)
	for _, name := range model.MachineNames() {
		prm, _ := model.MachineByName(name)
		o := NewSimulated(prm)
		for _, f := range simulatedFabrics {
			net := topology.MustParseSpec(f.spec)
			tbl, err := o.BuildTableOnCtx(t.Context(), net, 0, answerSweepHi, f.step)
			if err != nil {
				t.Fatalf("%s %s: %v", name, f.spec, err)
			}
			key := fmt.Sprintf("%s %s step=%d", name, f.spec, f.step)
			got[key] = tableDigest(t, o, net, key, tbl)
		}
	}
	return got
}

// writeDigests writes digests to file, one segment per line, keys sorted,
// so a re-record's diff is one line per moved segment.
func writeDigests(file string, digests map[string][]answerSegment) error {
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		fmt.Fprintf(&buf, "  %q: [\n", k)
		for j, s := range digests[k] {
			line, err := json.Marshal(s)
			if err != nil {
				return err
			}
			buf.WriteString("    ")
			buf.Write(line)
			if j < len(digests[k])-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("  ]")
		if i < len(keys)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	return os.WriteFile(file, buf.Bytes(), 0o644)
}

// TestAnswerDigests pins every analytic answer the repository serves on
// the fabrics above: each table segment's block sizes, grouping and the
// exact bits of its cost at both ends. A mismatch lists the segments that
// moved, on both sides.
func TestAnswerDigests(t *testing.T) {
	checkDigests(t, answerDigestFile, answerDigests(t))
}

// TestSimulatedDigests pins the simulated backend's tables the same way:
// each segment's block sizes, grouping and the exact bits of the replayed
// time at both ends.
func TestSimulatedDigests(t *testing.T) {
	checkDigests(t, simulatedDigestFile, simulatedDigests(t))
}

// checkDigests compares got with the tables pinned in file, or rewrites
// the file under -update-answer-digests.
func checkDigests(t *testing.T, file string, got map[string][]answerSegment) {
	t.Helper()
	if *updateAnswerDigests {
		if err := writeDigests(file, got); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d tables to %s", len(got), file)
		return
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]answerSegment
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d tables, the test builds %d", file, len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no pinned table", key)
			continue
		}
		var moved bytes.Buffer
		for i := 0; i < max(len(g), len(w)); i++ {
			switch {
			case i >= len(w):
				fmt.Fprintf(&moved, "\n  got  %v\n  want (none)", g[i])
			case i >= len(g):
				fmt.Fprintf(&moved, "\n  got  (none)\n  want %v", w[i])
			case g[i].String() != w[i].String() || g[i].LoBits != w[i].LoBits || g[i].HiBits != w[i].HiBits:
				fmt.Fprintf(&moved, "\n  got  %v\n  want %v", g[i], w[i])
			}
		}
		if moved.Len() > 0 {
			t.Errorf("%s: answers moved:%s", key, moved.String())
		}
	}
}
