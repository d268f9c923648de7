package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/partition"
)

func post(t *testing.T, url string, body interface{}, v interface{}) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s = %d: %s", url, resp.StatusCode, b)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

// degradedPlanWire mirrors the fault-aware parts of /v1/plan.
type degradedPlanWire struct {
	planWire
	Health   string `json:"health"`
	Degraded bool   `json:"degraded"`
}

// faultMetricsWire mirrors the fault slice of /metrics.
type faultMetricsWire struct {
	Faults struct {
		ActiveFaultSets int   `json:"active_fault_sets"`
		DegradedServes  int64 `json:"degraded_serves"`
	} `json:"faults"`
	Panics int64 `json:"panics_total"`
}

// Acceptance: when the fabric's faults make re-planning impossible, the
// daemon serves the last-known-good plan flagged degraded and counts the
// degraded serves on /metrics.
func TestDaemonDegradedServing(t *testing.T) {
	base, _ := startDaemon(t, options{machine: "ipsc860"})
	planURL := base + "/v1/plan?machine=ipsc860&topology=torus-4x4&m=40"

	var healthy degradedPlanWire
	fetch(t, planURL, &healthy)
	if healthy.Health != "ok" || healthy.Degraded {
		t.Fatalf("healthy serve: health=%q degraded=%v", healthy.Health, healthy.Degraded)
	}

	// Kill a node: the 4x4 torus can no longer host a complete exchange.
	post(t, base+"/v1/faults", map[string]interface{}{
		"topology": "torus-4x4", "action": "down", "nodes": []int{5},
	}, nil)

	var deg degradedPlanWire
	fetch(t, planURL, &deg)
	if !deg.Degraded || deg.Health != "dn=5" {
		t.Fatalf("degraded serve: health=%q degraded=%v, want dn=5/true", deg.Health, deg.Degraded)
	}
	if deg.PredictedUS != healthy.PredictedUS {
		t.Fatalf("degraded serve changed the last-known-good cost %v → %v",
			healthy.PredictedUS, deg.PredictedUS)
	}

	var mw faultMetricsWire
	fetch(t, base+"/metrics", &mw)
	if mw.Faults.DegradedServes != 1 || mw.Faults.ActiveFaultSets != 1 {
		t.Fatalf("fault metrics = %+v, want 1 degraded serve of 1 fault set", mw.Faults)
	}

	// Restoring the node heals serving.
	post(t, base+"/v1/faults", map[string]interface{}{
		"topology": "torus-4x4", "action": "restore", "nodes": []int{5},
	}, nil)
	var healed degradedPlanWire
	fetch(t, planURL, &healed)
	if healed.Degraded || healed.Health != "ok" {
		t.Fatalf("after restore: health=%q degraded=%v", healed.Health, healed.Degraded)
	}
}

// A corrupt snapshot must not keep the daemon down: it logs the parse
// error, moves the file to .corrupt, and starts cold.
func TestDaemonCorruptSnapshotStartsCold(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "plans.json")
	if err := os.WriteFile(snap, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, _ := startDaemon(t, options{machine: "ipsc860", snapshotPath: snap})
	if _, err := os.Stat(snap + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot was not moved aside: %v", err)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot still in place (err=%v)", err)
	}
	var got planWire
	fetch(t, base+"/v1/plan?machine=ipsc860&d=6&m=40", &got)
	if len(got.Partition) == 0 {
		t.Fatal("cold daemon served an empty plan")
	}
}

// Regression: a snapshot truncated mid-JSON (a crash while an external
// tool copied it, disk-full) is handled exactly like corruption.
func TestDaemonTruncatedSnapshotStartsCold(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "plans.json")

	// Produce a genuine snapshot, then cut it off mid-stream. A faulted
	// line is one a snapshot keeps.
	planURL := "/v1/plan?machine=ipsc860&topology=" + url.QueryEscape("hypercube-6!sl=0-1:2.5") + "&m=40"
	base, stop := startDaemon(t, options{machine: "ipsc860", snapshotPath: snap})
	var got planWire
	fetch(t, base+planURL, &got)
	stop()
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 64 || !strings.Contains(string(raw), "\"lines\"") {
		t.Fatalf("unexpected snapshot content (%d bytes)", len(raw))
	}
	if err := os.WriteFile(snap, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	base2, _ := startDaemon(t, options{machine: "ipsc860", snapshotPath: snap})
	if _, err := os.Stat(snap + ".corrupt"); err != nil {
		t.Fatalf("truncated snapshot was not moved aside: %v", err)
	}
	var cold metricsWire
	fetch(t, base2+"/metrics", &cold)
	if cold.Cache.Lines != 0 {
		t.Fatalf("daemon restored %d lines from a truncated snapshot, want cold start", cold.Cache.Lines)
	}
	var again planWire
	fetch(t, base2+planURL, &again)
	if again.PredictedUS != got.PredictedUS {
		t.Fatalf("cold rebuild answered %v µs, pre-truncation daemon said %v µs",
			again.PredictedUS, got.PredictedUS)
	}
}

// The case a snapshot of faulted lines exists for: a slow wire is
// reported and planned on, the daemon restarts, and the same report
// again is answered from the restored line — no rebuild.
func TestDaemonRestartAnswersReReportedFaultWarm(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "plans.json")
	slow := map[string]interface{}{
		"topology": "torus-4x4", "action": "slow", "links": [][2]int{{0, 1}}, "factor": 2.5,
	}
	planURL := "/v1/plan?machine=ipsc860&topology=torus-4x4&m=40"

	base, stop := startDaemon(t, options{machine: "ipsc860", snapshotPath: snap})
	post(t, base+"/v1/faults", slow, nil)
	var before degradedPlanWire
	fetch(t, base+planURL, &before)
	if before.Health != "sl=0-1:2.5" || before.Degraded {
		t.Fatalf("slow-wire plan: health=%q degraded=%v, want sl=0-1:2.5/false", before.Health, before.Degraded)
	}
	stop()

	base2, _ := startDaemon(t, options{machine: "ipsc860", snapshotPath: snap})
	post(t, base2+"/v1/faults", slow, nil)
	var after degradedPlanWire
	fetch(t, base2+planURL, &after)
	if after.Health != before.Health || !partition.Partition(after.Partition).Equal(before.Partition) ||
		after.PredictedUS != before.PredictedUS {
		t.Fatalf("after restart: %s %v/%v µs, before: %s %v/%v µs",
			after.Health, after.Partition, after.PredictedUS, before.Health, before.Partition, before.PredictedUS)
	}
	var m metricsWire
	fetch(t, base2+"/metrics", &m)
	if m.Cache.Builds != 0 || m.Cache.Misses != 0 {
		t.Fatalf("re-reported fault ran builds=%d misses=%d after restart, want 0/0", m.Cache.Builds, m.Cache.Misses)
	}
}
