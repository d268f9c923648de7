package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/plancache"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := New(Config{Cache: plancache.New(plancache.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantCode int, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("GET %s = %d (%s), want %d", url, resp.StatusCode, e.Error, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

func postJSON(t *testing.T, url string, body interface{}, wantCode int, v interface{}) {
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
	if resp.StatusCode != wantCode {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s = %d (%s), want %d", url, resp.StatusCode, e.Error, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

// postRaw posts a literal body, for the cases json.Marshal cannot spell.
func postRaw(t *testing.T, url, body string, wantCode int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Errorf("POST %s %q = %d, want %d", url, body, resp.StatusCode, wantCode)
	}
}

func TestPlanEndpointMatchesOptimizer(t *testing.T) {
	ts := newTestServer(t)
	ref := optimize.New(model.IPSC860())
	for _, m := range []int{0, 40, 160, 400} {
		var got PlanResponse
		getJSON(t, fmt.Sprintf("%s/v1/plan?machine=ipsc860&d=7&m=%d", ts.URL, m), http.StatusOK, &got)
		want, err := ref.BestOn(topology.MustNew(7), m)
		if err != nil {
			t.Fatal(err)
		}
		if !partition.Partition(got.Partition).Equal(want.Part) {
			t.Errorf("m=%d: served %v, optimizer %v", m, got.Partition, want.Part)
		}
		if got.PredictedUS != want.TimeMicro {
			t.Errorf("m=%d: served %v µs, optimizer %v µs", m, got.PredictedUS, want.TimeMicro)
		}
		var sum float64
		for _, ph := range got.Phases {
			sum += ph.TimeUS
		}
		if len(got.Phases) != len(want.Part) {
			t.Errorf("m=%d: %d phases for partition %v", m, len(got.Phases), want.Part)
		}
	}
}

func TestPlanEndpointValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		query string
		code  int
	}{
		{"machine=ipsc860&d=7&m=40", http.StatusOK},
		{"d=7&m=40", http.StatusOK},              // default machine
		{"machine=ipsc&d=7&m=40", http.StatusOK}, // alias
		{"machine=cray&d=7&m=40", http.StatusBadRequest},
		{"machine=ipsc860&m=40", http.StatusBadRequest},      // missing d
		{"machine=ipsc860&d=7", http.StatusBadRequest},       // missing m
		{"machine=ipsc860&d=x&m=40", http.StatusBadRequest},  // non-integer
		{"machine=ipsc860&d=7&m=-1", http.StatusBadRequest},  // negative m
		{"machine=ipsc860&d=-2&m=40", http.StatusBadRequest}, // negative d
		{"machine=ipsc860&d=99&m=40", http.StatusBadRequest}, // beyond optimizer range
		{"d=5&m=67108863", http.StatusOK},                    // m × nodes just inside the buffer limit
		{"d=5&m=67108864", http.StatusBadRequest},            // and just over it
		{"d=5&m=4611686018427387904", http.StatusBadRequest}, // m·2^(d−di) would wrap
	} {
		resp, err := http.Get(ts.URL + "/v1/plan?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("query %q: status %d, want %d", tc.query, resp.StatusCode, tc.code)
		}
	}
}

func TestUnknownMachineErrorListsValidSet(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/plan?machine=cray&d=7&m=40")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "ipsc860") || !strings.Contains(e.Error, "ncube2") {
		t.Errorf("error %q does not list the valid machine set", e.Error)
	}
}

func TestCostEndpointMatchesCompiledTrace(t *testing.T) {
	ts := newTestServer(t)
	var got CostResponse
	postJSON(t, ts.URL+"/v1/cost",
		CostRequest{Machine: "ipsc860", D: 7, M: 40, Partition: []int{3, 4}},
		http.StatusOK, &got)

	plan, err := exchange.NewPlan(7, 40, partition.Partition{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Cost(simnet.New(topology.MustNew(7), model.IPSC860()))
	if err != nil {
		t.Fatal(err)
	}
	if got.SimulatedUS != res.Makespan {
		t.Errorf("served simulated %v µs, direct %v µs", got.SimulatedUS, res.Makespan)
	}
	pred, _ := model.IPSC860().Multiphase(40, 7, partition.Partition{3, 4})
	if got.PredictedUS != pred {
		t.Errorf("served predicted %v µs, closed form %v µs", got.PredictedUS, pred)
	}
}

func TestCostEndpointValidation(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/cost",
		CostRequest{D: 7, M: 40, Partition: []int{9, 9}}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/cost",
		CostRequest{D: 15, M: 40, Partition: []int{15}}, http.StatusBadRequest, nil) // beyond CostMaxDim
	postJSON(t, ts.URL+"/v1/cost",
		CostRequest{Machine: "cray", D: 7, M: 40, Partition: []int{7}}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/cost", // m·2^(d−di) would wrap
		CostRequest{D: 5, M: 1 << 62, Partition: []int{1, 1, 1, 1, 1}}, http.StatusBadRequest, nil)
	postRaw(t, ts.URL+"/v1/cost", `{`, http.StatusBadRequest)
	postRaw(t, ts.URL+"/v1/cost", `{"d":3,"m":4,"partition":[3]} `, http.StatusOK)
	postRaw(t, ts.URL+"/v1/cost", `{"d":3,"m":4,"partition":[3]} trailing`, http.StatusBadRequest)
	postRaw(t, ts.URL+"/v1/cost", `{"d":3,"m":4,"partition":[3]}}`, http.StatusBadRequest)
}

func TestCostEndpointUsesCacheRegistry(t *testing.T) {
	// A server over a restricted registry must refuse /v1/cost for
	// machines it does not serve instead of silently pricing them on
	// the built-in constants.
	cache := plancache.New(plancache.Config{
		Machines: map[string]model.Params{"hypo": model.Hypothetical()},
	})
	srv, err := New(Config{Cache: cache, DefaultMachine: "hypo"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/cost",
		CostRequest{Machine: "ipsc860", D: 6, M: 40, Partition: []int{6}},
		http.StatusBadRequest, nil)
	var got CostResponse
	postJSON(t, ts.URL+"/v1/cost",
		CostRequest{Machine: "hypo", D: 6, M: 40, Partition: []int{6}},
		http.StatusOK, &got)
	pred, _ := model.Hypothetical().Multiphase(40, 6, partition.Partition{6})
	if got.PredictedUS != pred {
		t.Errorf("predicted %v, want hypothetical-machine %v", got.PredictedUS, pred)
	}
}

func TestPlanMaxDimBound(t *testing.T) {
	srv, err := New(Config{Cache: plancache.New(plancache.Config{}), PlanMaxDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	getJSON(t, ts.URL+"/v1/plan?d=8&m=40", http.StatusOK, nil)
	for _, path := range []string{"/v1/plan?d=9&m=40", "/v1/hull?d=9"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (PlanMaxDim=8)", path, resp.StatusCode)
		}
	}
	var batch BatchResponse
	postJSON(t, ts.URL+"/v1/batch",
		BatchRequest{Queries: []BatchQuery{{D: 9, M: 40}}}, http.StatusOK, &batch)
	if batch.Results[0].Error == "" {
		t.Error("batch query beyond PlanMaxDim did not produce a per-item error")
	}
}

func TestBuildFailureIs500(t *testing.T) {
	// A simulated-backend cache accepts d ≤ optimize.MaxSimulatedDim;
	// one past that passes the request-validation bound (PlanMaxDim)
	// but fails inside the line build, which must surface as a server
	// error, not a bad request.
	cache := plancache.New(plancache.Config{NewOptimizer: optimize.NewSimulated})
	srv, err := New(Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(fmt.Sprintf("%s/v1/plan?d=%d&m=40", ts.URL, optimize.MaxSimulatedDim+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("build failure: status %d, want 500", resp.StatusCode)
	}
}

func TestHullEchoesCanonicalMachine(t *testing.T) {
	ts := newTestServer(t)
	var got HullResponse
	getJSON(t, ts.URL+"/v1/hull?machine=IPSC&d=5", http.StatusOK, &got)
	if got.Machine != "ipsc860" {
		t.Errorf("hull echoed machine %q, want canonical ipsc860", got.Machine)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	ts := newTestServer(t)
	// Valid JSON so the decoder keeps reading until the size cap trips.
	var big bytes.Buffer
	big.WriteString(`{"pad":"`)
	big.Write(bytes.Repeat([]byte("x"), 2<<20))
	big.WriteString(`"}`)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", &big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("2MiB body: status %d, want 413", resp.StatusCode)
	}
}

func TestHullEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var got HullResponse
	getJSON(t, ts.URL+"/v1/hull?machine=ipsc860&d=6", http.StatusOK, &got)
	if got.D != 6 || len(got.Segments) == 0 {
		t.Fatalf("hull = %+v, want d=6 with segments", got)
	}
	// Segment ranges must tile [0, SweepHi] without gaps.
	next := 0
	for _, seg := range got.Segments {
		if seg.MinBlock != next {
			t.Errorf("segment starts at %d, want %d", seg.MinBlock, next)
		}
		next = seg.MaxBlock + 1
	}
	if next != plancache.DefaultSweepHi+1 {
		t.Errorf("hull covers up to %d, want %d", next-1, plancache.DefaultSweepHi)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	req := BatchRequest{}
	for m := 0; m < 64; m++ {
		req.Queries = append(req.Queries, BatchQuery{Machine: "ipsc860", D: 6, M: m * 8})
	}
	req.Queries = append(req.Queries,
		BatchQuery{Machine: "cray", D: 6, M: 40}, // per-item error
		BatchQuery{D: 5, M: 40},                  // default machine
		BatchQuery{D: 5, M: 1 << 62},             // per-item error: m × nodes over the buffer limit
	)
	var got BatchResponse
	postJSON(t, ts.URL+"/v1/batch", req, http.StatusOK, &got)
	if len(got.Results) != len(req.Queries) {
		t.Fatalf("%d results for %d queries", len(got.Results), len(req.Queries))
	}
	ref := optimize.New(model.IPSC860())
	for i := 0; i < 64; i++ {
		item := got.Results[i]
		if item.Error != "" || item.Plan == nil {
			t.Fatalf("query %d failed: %s", i, item.Error)
		}
		want, err := ref.BestOn(topology.MustNew(6), i*8)
		if err != nil {
			t.Fatal(err)
		}
		if !partition.Partition(item.Plan.Partition).Equal(want.Part) {
			t.Errorf("query %d: %v, want %v", i, item.Plan.Partition, want.Part)
		}
	}
	if got.Results[64].Error == "" || got.Results[64].Plan != nil {
		t.Error("unknown-machine query did not produce a per-item error")
	}
	if got.Results[65].Plan == nil || got.Results[65].Plan.Machine != "ipsc860" {
		t.Error("default-machine query did not resolve to ipsc860")
	}
	if got.Results[66].Error == "" || got.Results[66].Plan != nil {
		t.Error("oversized-block query did not produce a per-item error")
	}
}

func TestBatchTooLarge(t *testing.T) {
	srv, err := New(Config{Cache: plancache.New(plancache.Config{}), MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req := BatchRequest{Queries: make([]BatchQuery, 5)}
	postJSON(t, ts.URL+"/v1/batch", req, http.StatusRequestEntityTooLarge, nil)
	postRaw(t, ts.URL+"/v1/batch", `{"queries":[{"d":3,"m":4}]}{"queries":[]}`, http.StatusBadRequest)
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	var got HealthResponse
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &got)
	if got.Status != "ok" {
		t.Errorf("status %q, want ok", got.Status)
	}
	if len(got.Machines) != len(model.Machines()) {
		t.Errorf("healthz lists %d machines, want %d", len(got.Machines), len(model.Machines()))
	}
}

func TestMetricsCountersMove(t *testing.T) {
	ts := newTestServer(t)
	getJSON(t, ts.URL+"/v1/plan?d=6&m=40", http.StatusOK, nil)
	getJSON(t, ts.URL+"/v1/plan?d=6&m=80", http.StatusOK, nil)
	resp, _ := http.Get(ts.URL + "/v1/plan?machine=cray&d=6&m=40")
	resp.Body.Close()

	var got MetricsResponse
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &got)
	ep := got.Endpoints["/v1/plan"]
	if ep.Count != 3 {
		t.Errorf("/v1/plan count = %d, want 3", ep.Count)
	}
	if ep.Errors != 1 {
		t.Errorf("/v1/plan errors = %d, want 1", ep.Errors)
	}
	if got.Cache.Hits < 1 || got.Cache.Misses != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want ≥1 hit and exactly 1 miss",
			got.Cache.Hits, got.Cache.Misses)
	}
	// The one line build above was one analytic enumeration of p(6) = 11
	// candidates; its optimizer counters must surface on /metrics, and the
	// hit that followed must not have moved them. The phase memo belongs to
	// the simulated backend: on this daemon it stays at zero.
	if got.Optimizer.Evaluations != 1 || got.Optimizer.Evaluated != 11 {
		t.Errorf("optimizer stats = %+v, want 1 enumeration of 11 candidates", got.Optimizer)
	}
	if got.Optimizer.MemoHits != 0 || got.Optimizer.MemoMisses != 0 {
		t.Errorf("an analytic daemon moved the phase-memo counters: %+v", got.Optimizer)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/plan = %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Allow") != http.MethodGet {
		t.Errorf("Allow header %q, want GET", resp.Header.Get("Allow"))
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("expected error for missing cache")
	}
	if _, err := New(Config{Cache: plancache.New(plancache.Config{}), DefaultMachine: "cray"}); err == nil {
		t.Error("expected error for unknown default machine")
	}
}

func TestDefaultMachineAliasCanonicalized(t *testing.T) {
	srv, err := New(Config{Cache: plancache.New(plancache.Config{}), DefaultMachine: "ipsc"})
	if err != nil {
		t.Fatalf("alias default machine rejected: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var got PlanResponse
	getJSON(t, ts.URL+"/v1/plan?d=6&m=40", http.StatusOK, &got)
	if got.Machine != "ipsc860" {
		t.Errorf("default machine echoed %q, want canonical ipsc860", got.Machine)
	}
}
