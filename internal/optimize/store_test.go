package optimize

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/topology"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	prm := model.IPSC860()
	o := New(prm)
	tbl, err := o.BuildTableOnCtx(context.Background(), topology.MustNew(6), 0, 400, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTable(&buf, tbl, prm); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTable(&buf, prm)
	if err != nil {
		t.Fatal(err)
	}
	// Field for field, Topo included: a loaded table names its topology.
	if !reflect.DeepEqual(got, tbl) {
		t.Fatalf("round trip: %+v vs %+v", got, tbl)
	}
	// Lookups must agree.
	for m := 0; m <= 400; m += 40 {
		if !got.Lookup(m).Equal(tbl.Lookup(m)) {
			t.Errorf("m=%d: %v vs %v", m, got.Lookup(m), tbl.Lookup(m))
		}
	}
}

func TestLoadRejectsWrongMachine(t *testing.T) {
	prm := model.IPSC860()
	o := New(prm)
	tbl, err := o.BuildTableOnCtx(context.Background(), topology.MustNew(5), 0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTable(&buf, tbl, prm); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(&buf, model.Hypothetical()); err == nil ||
		!strings.Contains(err.Error(), "different machine") {
		t.Errorf("mismatched machine must be rejected, got %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadTable(strings.NewReader("not json"), model.IPSC860()); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := LoadTable(strings.NewReader(`{"version":2}`), model.IPSC860()); err == nil {
		t.Error("wrong version must fail")
	}
}

func TestLoadRejectsInvalidSegments(t *testing.T) {
	prm := model.IPSC860()
	for _, c := range []struct {
		name     string
		d        int
		segments string
	}{
		// The one valid row: the envelope is right, so each other row fails
		// on its segments.
		{"valid", 3, `{"partition":[2,1],"min_block":0,"max_block":50},{"partition":[3],"min_block":51,"max_block":200}`},
		{"partition not summing to d", 5, `{"partition":[9],"min_block":0,"max_block":10}`},
		{"d no hypercube has", 31, `{"partition":[31],"min_block":0,"max_block":10}`},
		{"inverted range", 5, `{"partition":[2,3],"min_block":10,"max_block":0}`},
		{"negative block", 5, `{"partition":[2,3],"min_block":-1,"max_block":10}`},
		{"zero part", 3, `{"partition":[3,0],"min_block":0,"max_block":10}`},
		{"segments out of order", 3, `{"partition":[3],"min_block":100,"max_block":200},{"partition":[2,1],"min_block":0,"max_block":50}`},
		{"segments overlapping", 3, `{"partition":[2,1],"min_block":0,"max_block":50},{"partition":[3],"min_block":50,"max_block":200}`},
	} {
		stored := fmt.Sprintf(`{"version":1,"d":%d,"machine":{"lambda":95,"tau":0.394,"delta":10.3,"rho":0.54,`+
			`"lambda_zero":82.5,"global_sync_per_dim":150,"exchange_mode":1,"global_sync_per_phase":true},`+
			`"segments":[%s]}`, c.d, c.segments)
		tbl, err := LoadTable(strings.NewReader(stored), prm)
		if c.name == "valid" {
			if err != nil || !tbl.Lookup(10).Equal(partition.Partition{2, 1}) {
				t.Errorf("valid table: %+v, %v", tbl, err)
			}
		} else if err == nil {
			t.Errorf("%s: loaded %+v", c.name, tbl)
		}
	}
}

// FuzzLoadTable: LoadTable never panics, and a table it accepts has
// ascending, disjoint segments whose groupings split its d into positive
// parts, answers every block size a segment covers from that segment, and
// survives a SaveTable/LoadTable round trip unchanged.
func FuzzLoadTable(f *testing.F) {
	prm := model.IPSC860()
	o := New(prm)
	for _, d := range []int{3, 6, 8, 10} {
		tbl, err := o.BuildTableOnCtx(context.Background(), topology.MustNew(d), 0, 256, 1)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveTable(&buf, tbl, prm); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := LoadTable(bytes.NewReader(data), prm)
		if err != nil {
			return
		}
		checkSegments(t, tbl)
		var buf bytes.Buffer
		if err := SaveTable(&buf, tbl, prm); err != nil {
			t.Fatal(err)
		}
		again, err := LoadTable(&buf, prm)
		if err != nil || !reflect.DeepEqual(again, tbl) {
			t.Fatalf("round trip of %+v: %+v, %v", tbl, again, err)
		}
	})
}

// checkSegments asserts what every table handed to a lookup must hold:
// ascending, disjoint, non-empty block ranges from 0 up, groupings that
// split tbl.D into positive parts, and each covered block size answered
// by the segment that holds it.
func checkSegments(t *testing.T, tbl Table) {
	t.Helper()
	prevMax := -1
	for i, seg := range tbl.Segments {
		if seg.MinBlock <= prevMax || seg.MaxBlock < seg.MinBlock {
			t.Fatalf("%s segment %d [%d,%d] follows max block %d", tbl.Topo, i, seg.MinBlock, seg.MaxBlock, prevMax)
		}
		prevMax = seg.MaxBlock
		if seg.Part.Sum() != tbl.D || tbl.D > 0 && len(seg.Part) == 0 {
			t.Fatalf("%s segment %d grouping %v does not split %d dimensions", tbl.Topo, i, seg.Part, tbl.D)
		}
		for _, di := range seg.Part {
			if di <= 0 {
				t.Fatalf("%s segment %d grouping %v has a part %d", tbl.Topo, i, seg.Part, di)
			}
		}
		for _, m := range []int{seg.MinBlock, seg.MinBlock + (seg.MaxBlock-seg.MinBlock)/2, seg.MaxBlock} {
			if got, ok := tbl.LookupSegment(m); !ok || !reflect.DeepEqual(got, seg) {
				t.Fatalf("%s: m=%d answered by %+v (in range %v), want segment %d %+v", tbl.Topo, m, got, ok, i, seg)
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	prm := model.IPSC860()
	o := New(prm)
	tbl, err := o.BuildTableOnCtx(context.Background(), topology.MustNew(5), 0, 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hull-d5.json")
	if err := SaveTableFile(path, tbl, prm); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTableFile(path, prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != len(tbl.Segments) {
		t.Error("file round trip lost segments")
	}
	if _, err := LoadTableFile(filepath.Join(t.TempDir(), "missing.json"), prm); !os.IsNotExist(err) {
		t.Errorf("missing file error = %v", err)
	}
}
