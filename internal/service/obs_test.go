package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/plancache"
	"repro/internal/topology"
)

// findTrace polls /debug/traces?id= until the trace commits (the root
// span ends in a defer that can race the client seeing the response).
func findTrace(t *testing.T, base, id string) obs.TraceData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var tr TracesResponse
		getJSON(t, base+"/debug/traces?id="+id, http.StatusOK, &tr)
		if len(tr.Traces) > 0 {
			return tr.Traces[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never committed", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func spanNames(td obs.TraceData) map[string]int {
	names := make(map[string]int)
	for _, sp := range td.Spans {
		names[sp.Name]++
	}
	return names
}

// TestPlanMissTraceStages is the tracing acceptance path: a cache-miss
// /v1/plan on a simulated-backend cache commits a trace whose stages
// cover the whole request — handler root, cache lookup, line build,
// optimizer enumeration, and compiled-trace replay — and a client-
// supplied request ID is echoed and addresses the trace.
func TestPlanMissTraceStages(t *testing.T) {
	cache := plancache.New(plancache.Config{NewOptimizer: optimize.NewSimulated})
	srv, err := New(Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const id = "obs-test-0001"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/plan?machine=ipsc860&d=4&m=40", nil)
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/plan: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != id {
		t.Fatalf("request ID echoed as %q, want %q", got, id)
	}

	td := findTrace(t, ts.URL, id)
	names := spanNames(td)
	for _, stage := range []string{"/v1/plan", "cache", "build", "optimizer", "replay"} {
		if names[stage] == 0 {
			t.Errorf("trace missing stage %q (got %v)", stage, names)
		}
	}
	if td.DurationUS <= 0 {
		t.Errorf("trace duration %v, want > 0", td.DurationUS)
	}

	// A second identical request is a hit: its cache span says so.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/plan?machine=ipsc860&d=4&m=40", nil)
	req2.Header.Set(obs.RequestIDHeader, "obs-test-0002")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	hit := findTrace(t, ts.URL, "obs-test-0002")
	outcome := ""
	for _, sp := range hit.Spans {
		if sp.Name != "cache" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "outcome" {
				outcome = a.Value
			}
		}
	}
	if outcome != "hit" {
		t.Errorf("resident-line cache span outcome %q, want hit", outcome)
	}

	// The stage histograms feed /metrics: build/optimizer/replay must
	// appear with non-zero counts and sane quantiles.
	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	for _, stage := range []string{"build", "optimizer", "replay", "cache"} {
		snap, ok := m.Stages[stage]
		if !ok || snap.Count == 0 {
			t.Errorf("stage %q missing from /metrics stages (%v)", stage, m.Stages)
			continue
		}
		if snap.P99US < snap.P50US {
			t.Errorf("stage %q p99 %v < p50 %v", stage, snap.P99US, snap.P50US)
		}
	}
	ep := m.Endpoints["/v1/plan"]
	if ep.P99US <= 0 || ep.P50US <= 0 {
		t.Errorf("/v1/plan endpoint quantiles p50=%v p99=%v, want > 0", ep.P50US, ep.P99US)
	}
	if ep.Inflight != 0 {
		t.Errorf("idle server reports inflight %d", ep.Inflight)
	}
}

// TestCostReplayIsTracedAndCounted: a /v1/cost replay runs under the same
// "replay" span the optimizer's replays do, so the replay stage's busy
// time covers it, and /metrics says how its phases were priced — the XOR
// phases of a healthy cube by certificate, a torus phase on the engine.
func TestCostReplayIsTracedAndCounted(t *testing.T) {
	ts := newTestServer(t)
	for _, req := range []CostRequest{
		{D: 5, M: 40, Partition: []int{3, 2}},
		{Topology: "torus-4x4", M: 32, Partition: []int{1, 1}},
	} {
		postJSON(t, ts.URL+"/v1/cost", req, http.StatusOK, nil)
	}

	deadline := time.Now().Add(5 * time.Second)
	var tr TracesResponse
	for getJSON(t, ts.URL+"/debug/traces", http.StatusOK, &tr); len(tr.Traces) < 2; getJSON(t, ts.URL+"/debug/traces", http.StatusOK, &tr) {
		if time.Now().After(deadline) {
			t.Fatalf("%d traces committed, want 2", len(tr.Traces))
		}
		time.Sleep(10 * time.Millisecond)
	}
	closedForm := map[string]string{}
	for _, td := range tr.Traces {
		for _, sp := range td.Spans {
			if sp.Name != "replay" {
				continue
			}
			attrs := map[string]string{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
			if attrs["kind"] != "cost" || attrs["m"] == "" || attrs["phases"] != "2" {
				t.Errorf("cost replay span attrs %v", attrs)
			}
			closedForm[attrs["partition"]] = attrs["closed_form_phases"]
		}
	}
	if closedForm["{3,2}"] != "2" || closedForm["{1,1}"] != "0" {
		t.Errorf("closed_form_phases by partition: %v, want {3,2}:2 {1,1}:0", closedForm)
	}

	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	if got := m.Stages["replay"].Count; got != 2 {
		t.Errorf("replay stage observed %d spans for 2 cost replays", got)
	}
	if m.Replay.PhasesClosedForm != 2 || m.Replay.PhasesEngine != 2 || m.Replay.Declines["row-not-exchange"] != 1 {
		t.Errorf("/metrics replay section: %+v", m.Replay)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`pland_replay_phases_total{mode=closed_form}`:          2,
		`pland_replay_phases_total{mode=engine}`:               2,
		`pland_replay_declines_total{reason=row-not-exchange}`: 1,
	}
	for _, smp := range parseProm(t, string(raw)) {
		for k, v := range smp.labels {
			if key := smp.name + "{" + k + "=" + v + "}"; want[key] == smp.value {
				delete(want, key)
			}
		}
	}
	if len(want) != 0 {
		t.Errorf("Prometheus exposition lacks %v", want)
	}
}

// TestAbortedReplaysAreCounted: a simulated hull build abandons losing
// candidates' replays at their cutoff, and /metrics says how many, in
// both forms, next to the optimizer's own count.
func TestAbortedReplaysAreCounted(t *testing.T) {
	cache := plancache.New(plancache.Config{NewOptimizer: optimize.NewSimulated, SweepHi: 128, SweepStep: 16})
	srv, err := New(Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	getJSON(t, ts.URL+"/v1/plan?machine=ipsc860&topology=torus-4x4x4&m=40", http.StatusOK, nil)

	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	if m.Replay.Aborted == 0 || m.Replay.Aborted != m.Optimizer.ReplaysAborted {
		t.Errorf("replay.aborted %d, optimizer.replays_aborted %d, want equal and non-zero",
			m.Replay.Aborted, m.Optimizer.ReplaysAborted)
	}
	if m.Optimizer.PrunedByCutoff == 0 || m.Optimizer.PrunedByCutoff > m.Optimizer.Pruned {
		t.Errorf("optimizer pruned %d, by cutoff %d", m.Optimizer.Pruned, m.Optimizer.PrunedByCutoff)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, smp := range parseProm(t, string(raw)) {
		if smp.name == "pland_replay_aborted_total" {
			found = smp.value == float64(m.Replay.Aborted)
		}
	}
	if !found {
		t.Errorf("Prometheus exposition lacks pland_replay_aborted_total %d", m.Replay.Aborted)
	}
}

// TestTracesChromeExport: ?format=chrome renders a well-formed Chrome
// trace_event document covering the committed traces.
func TestTracesChromeExport(t *testing.T) {
	ts := newTestServer(t)
	getJSON(t, ts.URL+"/v1/plan?d=4&m=40", http.StatusOK, nil)

	deadline := time.Now().Add(5 * time.Second)
	for {
		var tr TracesResponse
		getJSON(t, ts.URL+"/debug/traces", http.StatusOK, &tr)
		if tr.Committed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no trace committed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/debug/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" || ev.Name == "" || ev.Dur < 0 {
			t.Fatalf("malformed chrome event %+v", ev)
		}
	}
}

// promSample is one parsed Prometheus text-format sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the Prometheus 0.0.4 text format strictly enough to
// pin the exposition: every non-comment line must be name{labels} value.
func parseProm(t *testing.T, body string) []promSample {
	t.Helper()
	var out []promSample
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d: value %q: %v", ln+1, line[sp+1:], err)
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: val}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			raw := s.name
			if !strings.HasSuffix(raw, "}") {
				t.Fatalf("line %d: unterminated label set %q", ln+1, raw)
			}
			s.name = raw[:i]
			for _, pair := range strings.Split(raw[i+1:len(raw)-1], ",") {
				if pair == "" {
					continue
				}
				eq := strings.IndexByte(pair, '=')
				if eq < 0 || !strings.HasPrefix(pair[eq+1:], `"`) || !strings.HasSuffix(pair, `"`) {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
				s.labels[pair[:eq]] = pair[eq+2 : len(pair)-1]
			}
		}
		out = append(out, s)
	}
	return out
}

// TestPrometheusExposition pins /metrics?format=prometheus: every line
// parses, histogram buckets are cumulative and end at +Inf == _count,
// and the request counters reflect served traffic with non-zero
// latency mass.
func TestPrometheusExposition(t *testing.T) {
	ts := newTestServer(t)
	getJSON(t, ts.URL+"/v1/plan?d=5&m=40", http.StatusOK, nil)
	getJSON(t, ts.URL+"/v1/plan?d=5&m=80", http.StatusOK, nil)
	resp, _ := http.Get(ts.URL + "/v1/plan?machine=cray&d=5&m=40")
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, string(raw))
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}

	find := func(name string, labels map[string]string) (float64, bool) {
		for _, s := range samples {
			if s.name != name {
				continue
			}
			ok := true
			for k, v := range labels {
				if s.labels[k] != v {
					ok = false
				}
			}
			if ok {
				return s.value, true
			}
		}
		return 0, false
	}

	if v, ok := find("pland_http_requests_total", map[string]string{"endpoint": "/v1/plan"}); !ok || v != 3 {
		t.Errorf("pland_http_requests_total{endpoint=/v1/plan} = %v (found %v), want 3", v, ok)
	}
	if v, ok := find("pland_http_request_errors_total", map[string]string{"endpoint": "/v1/plan"}); !ok || v != 1 {
		t.Errorf("pland_http_request_errors_total{endpoint=/v1/plan} = %v, want 1", v)
	}
	if v, ok := find("pland_cache_builds_total", nil); !ok || v < 1 {
		t.Errorf("pland_cache_builds_total = %v, want >= 1", v)
	}

	// Every histogram: le buckets cumulative, +Inf present and equal to
	// _count, _sum consistent with observations.
	type histKey struct{ name, labels string }
	buckets := make(map[histKey][]promSample)
	for _, s := range samples {
		if !strings.HasSuffix(s.name, "_bucket") {
			continue
		}
		rest := make([]string, 0, len(s.labels))
		for k, v := range s.labels {
			if k != "le" {
				rest = append(rest, k+"="+v)
			}
		}
		sort.Strings(rest)
		k := histKey{strings.TrimSuffix(s.name, "_bucket"), strings.Join(rest, ",")}
		buckets[k] = append(buckets[k], s)
	}
	if len(buckets) == 0 {
		t.Fatal("no histograms in the exposition")
	}
	for k, bs := range buckets {
		var infCount float64
		prev := -1.0
		prevLE := ""
		for _, b := range bs {
			if b.value < prev {
				t.Errorf("%s{%s}: bucket le=%q count %v below previous le=%q %v — not cumulative",
					k.name, k.labels, b.labels["le"], b.value, prevLE, prev)
			}
			prev, prevLE = b.value, b.labels["le"]
			if b.labels["le"] == "+Inf" {
				infCount = b.value
			}
		}
		if bs[len(bs)-1].labels["le"] != "+Inf" {
			t.Errorf("%s{%s}: last bucket le=%q, want +Inf", k.name, k.labels, bs[len(bs)-1].labels["le"])
		}
		count, ok := find(k.name+"_count", nil)
		if k.labels != "" {
			lbl := map[string]string{}
			for _, pair := range strings.Split(k.labels, ",") {
				eq := strings.IndexByte(pair, '=')
				lbl[pair[:eq]] = pair[eq+1:]
			}
			count, ok = find(k.name+"_count", lbl)
		}
		if !ok || count != infCount {
			t.Errorf("%s{%s}: _count %v != +Inf bucket %v", k.name, k.labels, count, infCount)
		}
	}

	// The acceptance gate: request latency histogram carries mass with a
	// non-zero upper quantile equivalent (sum > 0 over count > 0).
	cnt, _ := find("pland_http_request_duration_us_count", map[string]string{"endpoint": "/v1/plan"})
	sum, _ := find("pland_http_request_duration_us_sum", map[string]string{"endpoint": "/v1/plan"})
	if cnt != 3 || sum <= 0 {
		t.Errorf("/v1/plan duration histogram count=%v sum=%v, want 3 with positive sum", cnt, sum)
	}
}

// TestMetricsJSONLegacyShape: the JSON /metrics consumers from earlier
// PRs must keep working — every pre-observability key survives, and the
// new fields are strictly additive.
func TestMetricsJSONLegacyShape(t *testing.T) {
	ts := newTestServer(t)
	getJSON(t, ts.URL+"/v1/plan?d=4&m=40", http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var top map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cache", "optimizer", "faults", "panics_total", "shed_total", "early_aborts_total", "endpoints"} {
		if _, ok := top[key]; !ok {
			t.Errorf("/metrics lost legacy key %q", key)
		}
	}
	var eps map[string]map[string]json.Number
	if err := json.Unmarshal(top["endpoints"], &eps); err != nil {
		t.Fatal(err)
	}
	ep, ok := eps["/v1/plan"]
	if !ok {
		t.Fatal("endpoints missing /v1/plan")
	}
	for _, key := range []string{"count", "errors", "total_us", "mean_us", "max_us"} {
		if _, ok := ep[key]; !ok {
			t.Errorf("endpoint metrics lost legacy key %q", key)
		}
	}
}

// resolveTestRun numbers TestResolveIsTracedAndCounted's runs: the handle
// table is process-wide, so each run names a fabric no earlier one resolved.
var resolveTestRun int

// TestResolveIsTracedAndCounted: a /v1/cost naming a degraded fabric for
// the first time books the parse and the live graph's derivation to a
// "resolve" span, not to the replay, and the handle table's counters say
// so on both /metrics forms, name by name.
func TestResolveIsTracedAndCounted(t *testing.T) {
	ts := newTestServer(t)
	resolveTestRun++
	spec := fmt.Sprintf("hypercube-6!dl=0-1!sl=2-3:%d.5", resolveTestRun+1)
	before := topology.ResolveStats()
	for i, id := range []string{"resolve-test-cold", "resolve-test-warm"} {
		body, _ := json.Marshal(CostRequest{Topology: spec, M: 40, Partition: []int{3, 3}})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/cost", bytes.NewReader(body))
		req.Header.Set(obs.RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/cost %s: %d", spec, resp.StatusCode)
		}
		names := spanNames(findTrace(t, ts.URL, id))
		if names["resolve"] != 1 || names["replay"] != 1 {
			t.Errorf("request %d spans %v, want one resolve and one replay", i, names)
		}
	}
	getJSON(t, ts.URL+"/v1/plan?d=5&m=40", http.StatusOK, nil) // the d-cube resolves nothing

	want := topology.ResolveStats()
	if want.Misses-before.Misses != 1 || want.Hits-before.Hits != 1 || want.Derivations-before.Derivations != 1 {
		t.Errorf("two requests for %s moved the table from %+v to %+v, want one miss, one hit, one derivation", spec, before, want)
	}

	var top map[string]json.RawMessage
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &top)
	var got map[string]int64
	if err := json.Unmarshal(top["topology"], &got); err != nil {
		t.Fatalf("/metrics topology section %s: %v", top["topology"], err)
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	if m.Stages["resolve"].Count != 2 {
		t.Errorf("resolve stage observed %d spans, want 2", m.Stages["resolve"].Count)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	prom := map[string]float64{}
	for _, smp := range parseProm(t, string(raw)) {
		if len(smp.labels) == 0 {
			prom[smp.name] = smp.value
		}
	}
	for _, c := range []struct {
		json, prom string
		want       int64
	}{
		{"handles", "pland_topology_handles", int64(want.Handles)},
		{"resolve_hits_total", "pland_topology_resolve_hits_total", want.Hits},
		{"resolve_misses_total", "pland_topology_resolve_misses_total", want.Misses},
		{"resolve_evictions_total", "pland_topology_resolve_evictions_total", want.Evictions},
		{"derivations_total", "pland_topology_derivations_total", want.Derivations},
		{"derive_us_total", "pland_topology_derive_us_total", want.DeriveMicros},
	} {
		if v, ok := got[c.json]; !ok || v != c.want {
			t.Errorf("/metrics topology.%s = %d (present %v), want %d", c.json, v, ok, c.want)
		}
		if v, ok := prom[c.prom]; !ok || int64(v) != c.want {
			t.Errorf("%s = %v (present %v), want %d", c.prom, v, ok, c.want)
		}
	}
	if want.Handles < 1 || want.Misses < 1 {
		t.Errorf("table counters never moved: %+v", want)
	}
}

// TestPanicStillAccounted: a panicking handler's request lands in the
// latency counters and histogram, and the in-flight gauge drains — the
// accounting defer runs no matter how the handler dies.
func TestPanicStillAccounted(t *testing.T) {
	srv, err := New(Config{Cache: plancache.New(plancache.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.instrument("/boom", http.MethodGet, func(http.ResponseWriter, *http.Request) int {
		panic("kaboom")
	})
	w := httptest.NewRecorder()
	h(w, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler wrote %d, want 500", w.Code)
	}

	st := srv.endpoint("/boom")
	if snap := st.hist.Snapshot(); snap.Count != 1 || st.errors.Load() != 1 {
		t.Fatalf("panicked request not counted: count=%d errors=%d", snap.Count, st.errors.Load())
	}
	if st.inflight.Load() != 0 {
		t.Fatalf("inflight gauge leaked: %d", st.inflight.Load())
	}
	if srv.panics.Load() != 1 {
		t.Fatalf("panics_total = %d, want 1", srv.panics.Load())
	}
	if w.Result().Header.Get(obs.RequestIDHeader) == "" {
		t.Error("panicked response lost its request ID header")
	}
}

// A client's request ID is adopted only when short and plain: a 16 KiB
// one is replaced by a fresh ID, which is what the trace is filed under,
// while an ordinary one still round-trips.
func TestRequestIDBounded(t *testing.T) {
	ts := newTestServer(t)
	get := func(id string) string {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/plan?machine=ipsc860&d=4&m=40", nil)
		req.Header.Set(obs.RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan with request ID of %d bytes: %d", len(id), resp.StatusCode)
		}
		return resp.Header.Get(obs.RequestIDHeader)
	}

	long := strings.Repeat("a", 16<<10)
	got := get(long)
	if len(got) != 16 || strings.Trim(got, "0123456789abcdef") != "" {
		t.Fatalf("a 16 KiB request ID came back as %d bytes, want a fresh 16-hex ID", len(got))
	}
	findTrace(t, ts.URL, got)
	var tr TracesResponse
	getJSON(t, ts.URL+"/debug/traces?id="+long, http.StatusOK, &tr)
	if len(tr.Traces) != 0 {
		t.Fatalf("the long ID addresses %d traces, want none", len(tr.Traces))
	}
	for _, bad := range []string{strings.Repeat("b", obs.MaxRequestIDLen+1), "a b", "id/x", "é"} {
		if got := get(bad); got == bad || len(got) != 16 {
			t.Errorf("request ID %q echoed as %q, want a fresh one", bad, got)
		}
	}
	for _, ok := range []string{"ci-smoke-0001", strings.Repeat("c", obs.MaxRequestIDLen), "A.b_c:d-9"} {
		if got := get(ok); got != ok {
			t.Errorf("request ID %q echoed as %q", ok, got)
		}
	}
	findTrace(t, ts.URL, "ci-smoke-0001")
}
