package optimize

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
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
	// A partition that does not sum to d.
	bad := `{"version":1,"d":5,"machine":{"lambda":95,"tau":0.394,"delta":10.3,"rho":0.54,` +
		`"lambda_zero":82.5,"global_sync_per_dim":150,"exchange_mode":1,"global_sync_per_phase":true},` +
		`"segments":[{"partition":[9],"min_block":0,"max_block":10}]}`
	if _, err := LoadTable(strings.NewReader(bad), prm); err == nil {
		t.Error("invalid partition must be rejected")
	}
	// A stored d no hypercube has, with a partition that does sum to it.
	bad31 := strings.NewReplacer(`"d":5`, `"d":31`, `[9]`, `[31]`).Replace(bad)
	if _, err := LoadTable(strings.NewReader(bad31), prm); err == nil {
		t.Error("out-of-range dimension must be rejected")
	}
	bad2 := strings.Replace(bad, `[9]`, `[2,3]`, 1)
	bad2 = strings.Replace(bad2, `"min_block":0,"max_block":10`, `"min_block":10,"max_block":0`, 1)
	if _, err := LoadTable(strings.NewReader(bad2), prm); err == nil {
		t.Error("inverted range must be rejected")
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
