package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/plancache"
	"repro/internal/topology"
)

// newFaultTestServer wires a quiet server over a fresh cache.
func newFaultTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	// The full default sweep: the replan premise below (m=256 flips
	// grouping under a slow wire) needs the hull built past m=256.
	srv, err := New(Config{
		Cache:  plancache.New(plancache.Config{}),
		Logger: slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// A fault update re-plans the fabric: the served partition and cost
// switch to the degraded overlay's optimum, the response carries the
// health digest, and restoring the wire heals everything.
func TestFaultsReplanLifecycle(t *testing.T) {
	_, ts := newFaultTestServer(t)
	const m = 256
	planURL := fmt.Sprintf("%s/v1/plan?machine=ipsc860&topology=torus-4x4&m=%d", ts.URL, m)

	var healthy PlanResponse
	getJSON(t, planURL, http.StatusOK, &healthy)
	if healthy.Health != "ok" || healthy.Degraded {
		t.Fatalf("healthy fabric served health=%q degraded=%v", healthy.Health, healthy.Degraded)
	}

	var fr FaultsResponse
	postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Topology: "torus-4x4", Action: "slow", Links: [][2]int{{0, 1}}, Factor: 5,
	}, http.StatusOK, &fr)
	if fr.Health != "sl=0-1:5" || !fr.Operational {
		t.Fatalf("faults response = %+v, want health sl=0-1:5, operational", fr)
	}

	var deg PlanResponse
	getJSON(t, planURL, http.StatusOK, &deg)
	if deg.Health != "sl=0-1:5" || deg.Degraded {
		t.Fatalf("degraded fabric served health=%q degraded=%v (want fresh degraded plan, not fallback)",
			deg.Health, deg.Degraded)
	}
	slow, err := topology.ParseSpec("torus-4x4!sl=0-1:5")
	if err != nil {
		t.Fatal(err)
	}
	want, err := optimize.New(model.IPSC860()).BestOn(slow, m)
	if err != nil {
		t.Fatal(err)
	}
	if !partition.Partition(deg.Partition).Equal(want.Part) || deg.PredictedUS != want.TimeMicro {
		t.Fatalf("degraded plan %v/%v µs, optimizer says %v/%v µs",
			deg.Partition, deg.PredictedUS, want.Part, want.TimeMicro)
	}
	if partition.Partition(deg.Partition).Equal(healthy.Partition) {
		t.Fatalf("slow wire did not change the winning grouping %v (test premise: it must)", deg.Partition)
	}

	// /healthz lists the degraded fabric; restore heals it.
	var hz HealthResponse
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &hz)
	if len(hz.DegradedFabrics) != 1 || hz.DegradedFabrics[0] != "torus-4x4" {
		t.Fatalf("degraded_fabrics = %v, want [torus-4x4]", hz.DegradedFabrics)
	}
	postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Topology: "torus-4x4", Action: "restore", Links: [][2]int{{0, 1}},
	}, http.StatusOK, &fr)
	if fr.Health != "ok" {
		t.Fatalf("restore left health %q", fr.Health)
	}
	var healed PlanResponse
	getJSON(t, planURL, http.StatusOK, &healed)
	if healed.Health != "ok" || !partition.Partition(healed.Partition).Equal(healthy.Partition) {
		t.Fatalf("healed plan health=%q partition=%v, want ok/%v", healed.Health, healed.Partition, healthy.Partition)
	}
}

// An update that leaves a fabric without faults makes it healthy without
// building an overlay: a "down" naming nothing on a healthy fabric, and a
// "restore" of its last fault, both answer "ok", leave no registry entry
// and retire no line, so the bare line keeps answering.
func TestFaultsLeavingNoFaults(t *testing.T) {
	srv, ts := newFaultTestServer(t)
	planURL := ts.URL + "/v1/plan?machine=ipsc860&topology=torus-4x4&m=40"
	var healthy PlanResponse
	getJSON(t, planURL, http.StatusOK, &healthy)

	check := func(what string, fr FaultsResponse) {
		t.Helper()
		want := FaultsResponse{Topology: "torus-4x4", Health: "ok", Operational: true}
		if !reflect.DeepEqual(fr, want) {
			t.Fatalf("%s: %+v, want %+v", what, fr, want)
		}
		if got := srv.FaultTopologies(); len(got) != 0 {
			t.Fatalf("%s: the registry holds %v", what, got)
		}
		before := srv.cache.Stats()
		var p PlanResponse
		getJSON(t, planURL, http.StatusOK, &p)
		after := srv.cache.Stats()
		if p.Health != "ok" || p.Degraded || !reflect.DeepEqual(p.Partition, healthy.Partition) ||
			after.Builds != before.Builds || after.Hits != before.Hits+1 {
			t.Fatalf("%s: plan %+v, cache %+v → %+v; want the bare line's hit", what, p, before, after)
		}
	}
	var fr FaultsResponse
	postJSON(t, ts.URL+"/v1/faults", FaultsRequest{Topology: "torus-4x4", Action: "down"}, http.StatusOK, &fr)
	check("down naming nothing", fr)

	postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Topology: "torus-4x4", Action: "down", Links: [][2]int{{0, 1}},
	}, http.StatusOK, &fr)
	if fr.Health != "dl=0-1" || len(srv.FaultTopologies()) != 1 {
		t.Fatalf("down 0-1: %+v, registry %v", fr, srv.FaultTopologies())
	}
	var restored FaultsResponse
	postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Topology: "torus-4x4", Action: "restore", Links: [][2]int{{1, 0}},
	}, http.StatusOK, &restored)
	check("restore of the last fault", restored)
}

// When the degraded fabric cannot be planned at all (a dead node severs
// the exchange), the server degrades gracefully: the last-known-good
// healthy plan is served flagged degraded and the counters tick. The
// decision is the fault registry handle's, so a degraded serve does no
// cache work for the faulted line — no miss, no build — however often it
// is asked, and restoring the node heals serving at once.
func TestDegradedFallbackServe(t *testing.T) {
	srv, ts := newFaultTestServer(t)
	planURL := ts.URL + "/v1/plan?machine=ipsc860&topology=torus-4x4&m=40"

	var healthy PlanResponse
	getJSON(t, planURL, http.StatusOK, &healthy)

	var fr FaultsResponse
	postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Topology: "torus-4x4", Action: "down", Nodes: []int{3},
	}, http.StatusOK, &fr)
	if fr.Operational {
		t.Fatal("fabric with a dead node reported operational")
	}

	var deg PlanResponse
	getJSON(t, planURL, http.StatusOK, &deg)
	if !deg.Degraded || deg.Health != "dn=3" {
		t.Fatalf("fallback serve = degraded=%v health=%q, want degraded dn=3", deg.Degraded, deg.Health)
	}
	if !partition.Partition(deg.Partition).Equal(healthy.Partition) || deg.PredictedUS != healthy.PredictedUS {
		t.Fatalf("fallback plan %v/%v µs, want last-known-good %v/%v µs",
			deg.Partition, deg.PredictedUS, healthy.Partition, healthy.PredictedUS)
	}

	// Ten more serves and a batch: all degraded, none a miss or a build.
	before := srv.cache.Stats()
	for range 10 {
		getJSON(t, planURL, http.StatusOK, &deg)
		if !deg.Degraded || deg.Health != "dn=3" {
			t.Fatalf("repeat serve = degraded=%v health=%q, want degraded dn=3", deg.Degraded, deg.Health)
		}
	}
	var br BatchResponse
	postJSON(t, ts.URL+"/v1/batch", BatchRequest{Queries: []BatchQuery{
		{Machine: "ipsc860", Topology: "torus-4x4", M: 40},
	}}, http.StatusOK, &br)
	if len(br.Results) != 1 || br.Results[0].Plan == nil || !br.Results[0].Plan.Degraded {
		t.Fatalf("batch under dead node = %+v, want one degraded plan", br.Results)
	}
	if after := srv.cache.Stats(); after.Misses != before.Misses || after.Builds != before.Builds {
		t.Fatalf("degraded serves did cache work: misses %d→%d, builds %d→%d",
			before.Misses, after.Misses, before.Builds, after.Builds)
	}

	var mr MetricsResponse
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &mr)
	if mr.Faults.DegradedServes != 12 || mr.Faults.ActiveFaultSets != 1 || mr.Faults.Updates != 1 {
		t.Fatalf("fault metrics = %+v, want 12 degraded serves of 1 fault set after 1 update", mr.Faults)
	}

	// Restoring the node heals serving immediately.
	postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Topology: "torus-4x4", Action: "restore", Nodes: []int{3},
	}, http.StatusOK, &fr)
	var healed PlanResponse
	getJSON(t, planURL, http.StatusOK, &healed)
	if healed.Degraded || healed.Health != "ok" {
		t.Fatalf("after restore: degraded=%v health=%q", healed.Degraded, healed.Health)
	}
}

// A non-operational fabric is a caller error on every path that would
// price or build on it: /v1/cost, /v1/hull under a reported dead node, and
// an explicit spec naming the faulted fabric on /v1/plan and
// /v1/peer/line all answer 400 with the unroutable message, never a 500.
func TestNonOperationalFabricIsBadRequest(t *testing.T) {
	_, ts := newFaultTestServer(t)
	postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Topology: "torus-4x4", Action: "down", Nodes: []int{3},
	}, http.StatusOK, nil)
	for _, tc := range []struct{ method, target, body string }{
		{http.MethodGet, "/v1/hull?topology=torus-4x4", ""},
		{http.MethodPost, "/v1/cost", `{"topology":"torus-4x4","m":32,"partition":[1,1]}`},
		{http.MethodGet, "/v1/plan?topology=torus-4x4!dn=3&m=40", ""},
		{http.MethodGet, "/v1/peer/line?topology=torus-4x4!dn=3", ""},
		{http.MethodPost, "/v1/cost", `{"topology":"torus-4x4!dn=3","m":32,"partition":[1,1]}`},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.target, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "unroutable") {
			t.Errorf("%s %s = %d %q, want 400 unroutable", tc.method, tc.target, resp.StatusCode, e.Error)
		}
	}
}

// /v1/cost and /v1/hull answer on the degraded overlay: a slow wire
// raises both cost views, and the responses carry the digest.
func TestCostAndHullUnderFaults(t *testing.T) {
	_, ts := newFaultTestServer(t)
	req := CostRequest{Machine: "ipsc860", Topology: "torus-4x4", M: 64, Partition: []int{1, 1}}
	var healthy CostResponse
	postJSON(t, ts.URL+"/v1/cost", req, http.StatusOK, &healthy)

	var fr FaultsResponse
	postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Topology: "torus-4x4", Action: "slow", Links: [][2]int{{0, 1}}, Factor: 4,
	}, http.StatusOK, &fr)

	var deg CostResponse
	postJSON(t, ts.URL+"/v1/cost", req, http.StatusOK, &deg)
	if deg.Health != "sl=0-1:4" {
		t.Fatalf("cost health = %q", deg.Health)
	}
	if deg.SimulatedUS <= healthy.SimulatedUS || deg.PredictedUS <= healthy.PredictedUS {
		t.Fatalf("slow wire did not raise costs: simulated %v→%v, predicted %v→%v",
			healthy.SimulatedUS, deg.SimulatedUS, healthy.PredictedUS, deg.PredictedUS)
	}

	var hull HullResponse
	getJSON(t, ts.URL+"/v1/hull?machine=ipsc860&topology=torus-4x4", http.StatusOK, &hull)
	if hull.Health != "sl=0-1:4" || hull.Topology != "torus-4x4!sl=0-1:4" {
		t.Fatalf("hull = health %q topology %q", hull.Health, hull.Topology)
	}
}

// Malformed fault operations are request errors, never fault state.
func TestFaultsValidation(t *testing.T) {
	_, ts := newFaultTestServer(t)
	for name, req := range map[string]FaultsRequest{
		"missing topology":  {Action: "down", Links: [][2]int{{0, 1}}},
		"unknown action":    {Topology: "torus-4x4", Action: "wobble"},
		"non-adjacent link": {Topology: "torus-4x4", Action: "down", Links: [][2]int{{0, 5}}},
		"out-of-range node": {Topology: "torus-4x4", Action: "down", Nodes: []int{99}},
		"slow sans factor":  {Topology: "torus-4x4", Action: "slow", Links: [][2]int{{0, 1}}},
		"slow on nodes":     {Topology: "torus-4x4", Action: "slow", Nodes: []int{1}, Factor: 2},
		"digest in spec":    {Topology: "torus-4x4!dl=0-1", Action: "clear"},
	} {
		postJSON(t, ts.URL+"/v1/faults", req, http.StatusBadRequest, nil)
		var mr MetricsResponse
		getJSON(t, ts.URL+"/metrics", http.StatusOK, &mr)
		if mr.Faults.Updates != 0 || mr.Faults.ActiveFaultSets != 0 {
			t.Fatalf("%s: rejected request mutated fault state: %+v", name, mr.Faults)
		}
	}
	postRaw(t, ts.URL+"/v1/faults", `{"topology":"torus-4x4","action":"clear"} x`, http.StatusBadRequest)
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/faults")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/faults = %d, want 405", resp.StatusCode)
	}
}

// A panicking handler costs one 500 and a panics_total tick, not the
// daemon.
func TestPanicRecoveryMiddleware(t *testing.T) {
	srv, err := New(Config{
		Cache:  plancache.New(plancache.Config{}),
		Logger: slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := srv.instrument("/boom", http.MethodGet, func(http.ResponseWriter, *http.Request) int {
		panic("handler bug")
	})
	rec := httptest.NewRecorder()
	boom(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", rec.Code)
	}
	if got := srv.panics.Load(); got != 1 {
		t.Fatalf("panics_total = %d, want 1", got)
	}
	// The endpoint's error counter saw it too.
	if e := srv.endpoint("/boom").errors.Load(); e != 1 {
		t.Fatalf("endpoint errors = %d, want 1", e)
	}
}

// Once a fault is reported, the fabric is served on the handle the report
// resolved: the requests that follow parse no spec — the resolver's miss
// path is the serving tier's only other way to an Overlay — and derive
// nothing. The report itself derives the faulted fabric at most once: on
// its first run in the process; a later run finds the handle resident and
// already derived.
func TestFaultedRequestsBuildNoOverlay(t *testing.T) {
	_, ts := newFaultTestServer(t)
	getJSON(t, ts.URL+"/v1/plan?machine=ipsc860&topology=torus-8x8&m=40", http.StatusOK, nil)

	before := topology.ResolveStats()
	var fr FaultsResponse
	postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Topology: "torus-8x8", Action: "down", Links: [][2]int{{0, 1}},
	}, http.StatusOK, &fr)
	if fr.Health != "dl=0-1" || !fr.Operational {
		t.Fatalf("faults response = %+v", fr)
	}
	reported := topology.ResolveStats()
	if got := reported.Derivations - before.Derivations; got > 1 {
		t.Errorf("the report derived the fabric %d times, want at most once", got)
	}
	const n = 8
	for i := 0; i < n; i++ {
		var plan PlanResponse
		getJSON(t, fmt.Sprintf("%s/v1/plan?machine=ipsc860&topology=torus-8x8&m=%d", ts.URL, 16*i), http.StatusOK, &plan)
		var cost CostResponse
		postJSON(t, ts.URL+"/v1/cost", CostRequest{Topology: "torus-8x8", M: 8 * i, Partition: []int{1, 1}}, http.StatusOK, &cost)
		if plan.Health != "dl=0-1" || plan.Degraded || cost.Health != "dl=0-1" || cost.Topology != "torus-8x8!dl=0-1" {
			t.Fatalf("request %d: plan health %q degraded %v, cost health %q on %q",
				i, plan.Health, plan.Degraded, cost.Health, cost.Topology)
		}
	}
	after := topology.ResolveStats()
	if after.Misses != reported.Misses {
		t.Errorf("%d specs parsed while serving a reported fault, want 0", after.Misses-reported.Misses)
	}
	if got := after.Hits - reported.Hits; got != 2*n {
		t.Errorf("%d handle hits for %d requests", got, 2*n)
	}
	if got := after.Derivations - reported.Derivations; got != 0 {
		t.Errorf("%d overlay derivations after the report, want 0", got)
	}
}

// handleTestRun numbers TestReportedFaultIsOneHandle's runs: the handle
// table is process-wide, so each run reports a fault no earlier run did,
// on a fabric no other test names.
var handleTestRun int

// A fabric faulted by report and the same fabric named by its digest are
// one handle: a /v1/cost on the base, a /v1/cost on the digest spec and a
// peer line fetch for it are all served on the handle the report
// resolved, so the faulted fabric is derived once and both costs agree.
func TestReportedFaultIsOneHandle(t *testing.T) {
	srv, ts := newFaultTestServer(t)
	handleTestRun++
	factor := 1.5 + float64(handleTestRun)

	before := topology.ResolveStats()
	var fr FaultsResponse
	postJSON(t, ts.URL+"/v1/faults", FaultsRequest{
		Topology: "torus-6x6", Action: "slow", Links: [][2]int{{0, 1}}, Factor: factor,
	}, http.StatusOK, &fr)
	spec := "torus-6x6!" + fr.Health
	if fr.Health != fmt.Sprintf("sl=0-1:%g", factor) {
		t.Fatalf("faults response = %+v", fr)
	}
	req := CostRequest{Topology: "torus-6x6", M: 48, Partition: []int{1, 1}}
	var onBase, onDigest CostResponse
	postJSON(t, ts.URL+"/v1/cost", req, http.StatusOK, &onBase)
	req.Topology = spec
	postJSON(t, ts.URL+"/v1/cost", req, http.StatusOK, &onDigest)
	getJSON(t, ts.URL+"/v1/peer/line?machine=ipsc860&topology="+url.QueryEscape(spec), http.StatusOK, nil)
	after := topology.ResolveStats()

	if got := after.Derivations - before.Derivations; got != 1 {
		t.Errorf("the faulted fabric was derived %d times, want once", got)
	}
	if !reflect.DeepEqual(onBase, onDigest) {
		t.Errorf("cost on the base %+v, on %s %+v", onBase, spec, onDigest)
	}
	base, err := topology.Resolve("torus-6x6")
	if err != nil {
		t.Fatal(err)
	}
	named, err := topology.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if served, _ := srv.applyFaults(base); served != named {
		t.Errorf("the report is served on %p, the digest spec resolves to %p", served, named)
	}
}

// faultOps decodes a /v1/faults request sequence from fuzz input, three
// bytes and then the operands per request, on torus-4x4. The first byte
// picks the action (its low three bits: down, slow, restore, clear or an
// unknown one) and the topology field (bits 3–4: the fabric, twice, none,
// or a spec carrying a digest); the second the link and node counts (0–3
// each); the third the slow factor in sixteenths. Links are two bytes,
// nodes one, each taken mod 20 so some fall outside the 16 nodes.
func faultOps(data []byte) []FaultsRequest {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var ops []FaultsRequest
	for len(data) > 0 && len(ops) < 16 {
		head, counts := next(), next()
		req := FaultsRequest{
			Action:   []string{"down", "slow", "restore", "clear", "wobble"}[head&7%5],
			Topology: []string{"torus-4x4", "torus-4x4", "", "torus-4x4!dl=0-1"}[head>>3&3],
			Factor:   float64(next()) / 16,
		}
		for range counts & 3 {
			req.Links = append(req.Links, [2]int{next() % 20, next() % 20})
		}
		for range counts >> 2 & 3 {
			req.Nodes = append(req.Nodes, next()%20)
		}
		ops = append(ops, req)
	}
	return ops
}

// FuzzFaults drives /v1/faults with decoded request sequences. No request
// may answer 5xx (a panic answers 500). After every accepted update the
// fabric is served on exactly the handle topology.Resolve gives for its
// reported name and digest; the registry holds an overlay exactly when
// that digest is not "ok", and the overlay's digest is the reported one,
// never empty; and a clear answers "ok".
func FuzzFaults(f *testing.F) {
	// TestFaultsValidation's rows, then accepted sequences: down, slow,
	// restore and clear on links and a node.
	for _, seed := range [][]byte{
		{0 | 2<<3, 1, 0, 0, 1}, // missing topology
		{4, 0, 0},              // unknown action
		{0, 1, 0, 0, 5},        // non-adjacent link
		{0, 1 << 2, 0, 19},     // out-of-range node
		{1, 1, 0, 0, 1},        // slow sans factor
		{1, 1 << 2, 32, 1},     // slow on nodes
		{3 | 3<<3, 0, 0},       // digest in spec
		{0, 1, 0, 0, 1, 1, 1, 40, 1, 2, 2, 1, 0, 0, 1, 3, 0, 0},
		{0, 1 << 2, 0, 3, 2, 1 << 2, 0, 3, 1, 2, 40, 4, 5, 5, 6},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, err := New(Config{
			Cache:  plancache.New(plancache.Config{}),
			Logger: slog.New(slog.DiscardHandler),
		})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		base, err := topology.Resolve("torus-4x4")
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range faultOps(data) {
			body, err := json.Marshal(op)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/faults", bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("op %d %s: %d %s", i, body, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusOK {
				continue
			}
			var fr FaultsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
				t.Fatalf("op %d %s: %v", i, body, err)
			}
			spec := fr.Topology
			if fr.Health != "ok" {
				spec += "!" + fr.Health
			}
			named, err := topology.Resolve(spec)
			if err != nil {
				t.Fatalf("op %d %s: the reported fabric %s does not resolve: %v", i, body, spec, err)
			}
			if served, health := srv.applyFaults(base); served != named || health != fr.Health {
				t.Fatalf("op %d %s: served %s (%s) on %p, %s resolves to %p",
					i, body, served.Name(), health, served, spec, named)
			}
			srv.faultMu.Lock()
			held, kept := srv.faults[fr.Topology]
			srv.faultMu.Unlock()
			if fr.Health == "" || kept != (fr.Health != "ok") || kept && held.HealthDigest() != fr.Health {
				t.Fatalf("op %d %s: health %q, registry entry kept: %v", i, body, fr.Health, kept)
			}
			if op.Action == "clear" && fr.Health != "ok" {
				t.Fatalf("op %d: clear answered health %q", i, fr.Health)
			}
		}
	})
}
