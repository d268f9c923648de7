package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/topology"
)

// startDaemon runs a daemon on a loopback listener and returns its base
// URL plus a stop function that shuts it down gracefully (writing the
// final snapshot) and waits for exit.
func startDaemon(t *testing.T, o options) (baseURL string, stop func()) {
	t.Helper()
	o.logger = slog.New(slog.DiscardHandler)
	d, err := newDaemon(o)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, ln) }()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
	t.Cleanup(stop)
	return "http://" + ln.Addr().String(), stop
}

func fetch(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// planWire mirrors the service's /v1/plan response.
type planWire struct {
	Machine     string  `json:"machine"`
	Partition   []int   `json:"partition"`
	PredictedUS float64 `json:"predicted_us"`
}

// metricsWire mirrors the parts of /metrics the test asserts on.
type metricsWire struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Builds int64 `json:"builds"`
		Lines  int   `json:"lines"`
	} `json:"cache"`
}

// TestDaemonEndToEnd drives the full acceptance path: a served plan
// equals optimize.Best, repeat queries hit the cache without touching
// the optimizer, and the shutdown snapshot restores the faulted lines to
// a warm cache that answers them without re-costing.
func TestDaemonEndToEnd(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "plans.json")
	base, stop := startDaemon(t, options{
		machine:      "ipsc860",
		snapshotPath: snap,
	})

	// A served plan equals optimize.Best for the same (machine, d, m).
	ref := optimize.New(model.IPSC860())
	queried := []struct{ d, m int }{{7, 40}, {7, 160}, {6, 8}, {5, 300}}
	for _, q := range queried {
		var got planWire
		fetch(t, fmt.Sprintf("%s/v1/plan?machine=ipsc860&d=%d&m=%d", base, q.d, q.m), &got)
		want, err := ref.BestOn(topology.MustNew(q.d), q.m)
		if err != nil {
			t.Fatal(err)
		}
		if !partition.Partition(got.Partition).Equal(want.Part) {
			t.Errorf("d=%d m=%d: served %v, optimize.Best %v", q.d, q.m, got.Partition, want.Part)
		}
		if got.PredictedUS != want.TimeMicro {
			t.Errorf("d=%d m=%d: served %v µs, optimize.Best %v µs", q.d, q.m, got.PredictedUS, want.TimeMicro)
		}
	}

	// Cache hits bypass the optimizer: the three distinct dimensions
	// cost three builds, and further queries move only the hit counter.
	var before metricsWire
	fetch(t, base+"/metrics", &before)
	if before.Cache.Builds != 3 {
		t.Errorf("builds = %d after 3 distinct (machine,d), want 3", before.Cache.Builds)
	}
	for i := 0; i < 10; i++ {
		var got planWire
		fetch(t, fmt.Sprintf("%s/v1/plan?machine=ipsc860&d=7&m=%d", base, i*37), &got)
	}
	var after metricsWire
	fetch(t, base+"/metrics", &after)
	if after.Cache.Builds != before.Cache.Builds || after.Cache.Misses != before.Cache.Misses {
		t.Errorf("hot queries ran builds %d→%d misses %d→%d, want unchanged",
			before.Cache.Builds, after.Cache.Builds, before.Cache.Misses, after.Cache.Misses)
	}
	if after.Cache.Hits < before.Cache.Hits+10 {
		t.Errorf("hits %d→%d, want +10", before.Cache.Hits, after.Cache.Hits)
	}

	// The lines a snapshot keeps are the ones that cost a rebuild: plan on
	// three faulted fabrics before shutting down.
	faulted := []struct {
		spec string
		m    int
	}{{"hypercube-7!sl=0-1:2.5", 40}, {"hypercube-6!dl=0-1", 8}, {"torus-4x4!dl=0-1", 300}}
	planURL := func(base, spec string, m int) string {
		return fmt.Sprintf("%s/v1/plan?machine=ipsc860&topology=%s&m=%d", base, url.QueryEscape(spec), m)
	}
	served := make([]planWire, len(faulted))
	for i, q := range faulted {
		fetch(t, planURL(base, q.spec, q.m), &served[i])
	}

	// Graceful shutdown writes the snapshot.
	stop()
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("shutdown did not write snapshot: %v", err)
	}

	// A restarted daemon restores the faulted lines warm: it answers them
	// identically with zero builds and zero misses.
	base2, stop2 := startDaemon(t, options{
		machine:      "ipsc860",
		snapshotPath: snap,
	})
	defer stop2()
	for i, q := range faulted {
		var got planWire
		fetch(t, planURL(base2, q.spec, q.m), &got)
		if want := served[i]; !partition.Partition(got.Partition).Equal(want.Partition) || got.PredictedUS != want.PredictedUS {
			t.Errorf("restored %s m=%d: served %v/%v, want %v/%v",
				q.spec, q.m, got.Partition, got.PredictedUS, want.Partition, want.PredictedUS)
		}
	}
	var warm metricsWire
	fetch(t, base2+"/metrics", &warm)
	if warm.Cache.Builds != 0 || warm.Cache.Misses != 0 {
		t.Errorf("restored cache ran builds=%d misses=%d, want 0/0 (warm restart)",
			warm.Cache.Builds, warm.Cache.Misses)
	}
	if warm.Cache.Lines != 3 {
		t.Errorf("restored cache holds %d lines, want 3", warm.Cache.Lines)
	}
}

func TestDaemonWarmup(t *testing.T) {
	base, _ := startDaemon(t, options{
		machine:    "hypo",
		warmupDims: "5, 6",
	})
	var m metricsWire
	fetch(t, base+"/metrics", &m)
	wantLines := 2 * len(model.Machines())
	if m.Cache.Lines != wantLines {
		t.Errorf("warmup built %d lines, want %d (2 dims × every machine)", m.Cache.Lines, wantLines)
	}
	// A warmed query is a pure hit: no new miss, no new build.
	var got planWire
	fetch(t, base+"/v1/plan?machine=ncube2&d=6&m=64", &got)
	var after metricsWire
	fetch(t, base+"/metrics", &after)
	if after.Cache.Misses != m.Cache.Misses || after.Cache.Builds != m.Cache.Builds {
		t.Errorf("warmed query moved misses %d→%d builds %d→%d, want unchanged",
			m.Cache.Misses, after.Cache.Misses, m.Cache.Builds, after.Cache.Builds)
	}
	if after.Cache.Hits <= m.Cache.Hits {
		t.Errorf("warmed query did not hit (hits %d→%d)", m.Cache.Hits, after.Cache.Hits)
	}
}

func TestDaemonPeriodicSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "plans.json")
	base, _ := startDaemon(t, options{
		machine:       "hypo",
		snapshotPath:  snap,
		snapshotEvery: 50 * time.Millisecond,
	})
	var got planWire
	fetch(t, base+"/v1/plan?d=6&m=40", &got)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(snap); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot never appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A -snapshot path that is a directory is the operator's mistake to see,
// not a corrupt snapshot to move aside: the daemon refuses to start and
// leaves the directory and its contents where they are.
func TestDaemonRefusesSnapshotDirectory(t *testing.T) {
	dir := t.TempDir()
	kept := filepath.Join(dir, "keep.txt")
	if err := os.WriteFile(kept, []byte("operator data"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := newDaemon(options{machine: "ipsc860", snapshotPath: dir, logger: slog.New(slog.DiscardHandler)})
	if err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("newDaemon with a directory as -snapshot: %v, want an error naming %s", err, dir)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("snapshot directory no longer in place: %v", err)
	}
	if raw, err := os.ReadFile(kept); err != nil || string(raw) != "operator data" {
		t.Fatalf("file inside the snapshot directory: %q, %v", raw, err)
	}
	if _, err := os.Stat(dir + ".corrupt"); !os.IsNotExist(err) {
		t.Fatalf("directory was moved aside (stat %s.corrupt: %v)", dir, err)
	}
}

func TestDaemonRejectsBadOptions(t *testing.T) {
	for _, o := range []options{
		{machine: "cray"},
		{machine: "ipsc860", backend: "quantum"},
		{machine: "ipsc860", warmupDims: "5,x"},
		{machine: "ipsc860", warmupDims: "-3"},
	} {
		o.logger = slog.New(slog.DiscardHandler)
		if _, err := newDaemon(o); err == nil {
			t.Errorf("newDaemon(%+v) succeeded, want error", o)
		}
	}
}

func TestDaemonDefaultMachineFlag(t *testing.T) {
	base, _ := startDaemon(t, options{machine: "hypo"})
	var got planWire
	fetch(t, base+"/v1/plan?d=6&m=24", &got)
	if got.Machine != "hypo" {
		t.Errorf("default machine %q, want hypo", got.Machine)
	}
	want, err := optimize.New(model.Hypothetical()).BestOn(topology.MustNew(6), 24)
	if err != nil {
		t.Fatal(err)
	}
	if !partition.Partition(got.Partition).Equal(want.Part) {
		t.Errorf("served %v, want %v", got.Partition, want.Part)
	}
}

// TestDaemonServesTorus drives the topology acceptance path end to end:
// the daemon serves /v1/plan for a torus machine, the answer equals the
// optimizer's own winner for that shape, repeat queries hit the cache
// without new builds, and a faulted torus line survives a snapshot
// restart.
func TestDaemonServesTorus(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "plans.json")
	base, stop := startDaemon(t, options{
		machine:      "ipsc860",
		snapshotPath: snap,
	})

	ref := optimize.New(model.IPSC860())
	net, err := topology.ParseSpec("torus-4x4x4")
	if err != nil {
		t.Fatal(err)
	}
	type torusWire struct {
		planWire
		Topology string `json:"topology"`
	}
	for _, m := range []int{0, 40, 160} {
		var got torusWire
		fetch(t, fmt.Sprintf("%s/v1/plan?machine=ipsc860&topology=torus-4x4x4&m=%d", base, m), &got)
		want, err := ref.BestOn(net, m)
		if err != nil {
			t.Fatal(err)
		}
		if got.Topology != "torus-4x4x4" {
			t.Errorf("m=%d: served topology %q", m, got.Topology)
		}
		if !partition.Partition(got.Partition).Equal(want.Part) || got.PredictedUS != want.TimeMicro {
			t.Errorf("m=%d: served %v/%v µs, optimizer %v/%v µs",
				m, got.Partition, got.PredictedUS, want.Part, want.TimeMicro)
		}
	}

	// One torus line was built; further torus queries are pure hits.
	var before metricsWire
	fetch(t, base+"/metrics", &before)
	if before.Cache.Builds != 1 || before.Cache.Lines != 1 {
		t.Errorf("builds=%d lines=%d after one torus line, want 1/1", before.Cache.Builds, before.Cache.Lines)
	}
	for i := 0; i < 8; i++ {
		var got torusWire
		fetch(t, fmt.Sprintf("%s/v1/plan?machine=ipsc860&topology=torus-4x4x4&m=%d", base, i*53), &got)
	}
	var after metricsWire
	fetch(t, base+"/metrics", &after)
	if after.Cache.Builds != before.Cache.Builds || after.Cache.Misses != before.Cache.Misses {
		t.Errorf("torus hits ran builds %d→%d misses %d→%d, want unchanged",
			before.Cache.Builds, after.Cache.Builds, before.Cache.Misses, after.Cache.Misses)
	}
	if after.Cache.Hits < before.Cache.Hits+8 {
		t.Errorf("hits %d→%d, want +8", before.Cache.Hits, after.Cache.Hits)
	}

	// A warm restart keeps a faulted torus line; the healthy one is cheap
	// and rebuilds on demand.
	slowURL := "/v1/plan?machine=ipsc860&topology=" + url.QueryEscape("torus-4x4x4!sl=0-1:2.5") + "&m=40"
	var want torusWire
	fetch(t, base+slowURL, &want)
	stop()
	base2, stop2 := startDaemon(t, options{machine: "ipsc860", snapshotPath: snap})
	defer stop2()
	var got torusWire
	fetch(t, base2+slowURL, &got)
	if got.Topology != "torus-4x4x4!sl=0-1:2.5" || !partition.Partition(got.Partition).Equal(want.Partition) ||
		got.PredictedUS != want.PredictedUS {
		t.Errorf("restored torus answer %s %v/%v µs, want %s %v/%v µs",
			got.Topology, got.Partition, got.PredictedUS, want.Topology, want.Partition, want.PredictedUS)
	}
	var warm metricsWire
	fetch(t, base2+"/metrics", &warm)
	if warm.Cache.Builds != 0 || warm.Cache.Misses != 0 {
		t.Errorf("restored torus cache ran builds=%d misses=%d, want 0/0",
			warm.Cache.Builds, warm.Cache.Misses)
	}
}
