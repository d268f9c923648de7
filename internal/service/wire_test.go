package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/plancache"
)

// planResponse is the reference mapping of a plan onto its wire struct:
// what appendPlan must write, byte for byte, once json.Encoder encodes it.
func planResponse(p plancache.Plan, health string, degraded bool) PlanResponse {
	part := append([]int{}, p.Part...)
	return PlanResponse{
		Machine:     p.Machine,
		Topology:    p.Topo,
		D:           p.D,
		M:           p.Block,
		Partition:   part,
		PredictedUS: p.TimeMicro,
		Phases:      phasesJSON(p.Phases),
		Segment:     segmentJSON{Partition: part, MinBlock: p.SegMin, MaxBlock: p.SegMax},
		InRange:     p.InRange,
		Health:      health,
		Degraded:    degraded,
	}
}

// encoded is json.Encoder's output for v; ok is false when it refuses.
func encoded(v any) (body []byte, ok bool) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// refItem is the /v1/batch item a query must produce, built the way the
// handler builds it but encoded by reflection.
func refItem(s *Server, q BatchQuery) BatchItem {
	machine := q.Machine
	if machine == "" {
		machine = s.cfg.DefaultMachine
	}
	net, err := s.resolveTopo(q.Topology, q.D, s.cfg.PlanMaxDim)
	if err != nil {
		return BatchItem{Error: err.Error()}
	}
	p, health, degraded, err := s.planFor(context.Background(), machine, net, q.M)
	if err != nil {
		return BatchItem{Error: err.Error()}
	}
	resp := planResponse(p, health, degraded)
	return BatchItem{Plan: &resp}
}

func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, target, rd))
	return w
}

// Every /v1/plan and /v1/batch body equals json.Encoder's encoding of its
// wire struct: over every cube up to hypercube-10, a torus, a mesh, two
// mixed-radix grids and two faulted overlays (one re-planned under a slow
// wire, one served last-known-good and flagged degraded), every 7th block
// size through the swept range and then geometrically to the fabric's
// limit and one past it, on three machines, plus per-item errors.
func TestPlanAndBatchBytesIdentical(t *testing.T) {
	srv, err := New(Config{
		Cache:  plancache.New(plancache.Config{}),
		Logger: slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, f := range []FaultsRequest{
		{Topology: "mesh-4x4", Action: "slow", Links: [][2]int{{0, 1}}, Factor: 3.5},
		{Topology: "torus-4x4", Action: "down", Nodes: []int{3}},
	} {
		raw, _ := json.Marshal(f)
		if w := serve(h, http.MethodPost, "/v1/faults", string(raw)); w.Code != http.StatusOK {
			t.Fatalf("fault %+v: %d %s", f, w.Code, w.Body)
		}
	}
	var machines []string
	for name := range srv.cache.Machines() {
		machines = append(machines, name)
	}
	sort.Strings(machines)
	machines = machines[:3]

	type fabric struct {
		spec string // "" selects the d-cube
		d    int
	}
	var fabrics []fabric
	for d := 0; d <= 10; d++ {
		fabrics = append(fabrics, fabric{d: d})
	}
	for _, spec := range []string{"torus-4x4x4", "mesh-8x8", "torus-3x5", "mesh-2x3x4", "mesh-4x4", "torus-4x4"} {
		fabrics = append(fabrics, fabric{spec: spec})
	}
	answers, degraded := 0, 0
	for _, fab := range fabrics {
		net, err := srv.resolveTopo(fab.spec, fab.d, srv.cfg.PlanMaxDim)
		if err != nil {
			t.Fatal(err)
		}
		limit := exchange.MaxBufferBytes / net.Nodes()
		var ms []int
		for m := 0; m <= 1200; m += 7 {
			ms = append(ms, m)
		}
		for m := 1201; m < limit; m = m*7 + 3 {
			ms = append(ms, m)
		}
		ms = append(ms, limit, limit+1)
		for _, machine := range machines {
			var batch BatchRequest
			for _, m := range ms {
				q := BatchQuery{Machine: machine, Topology: fab.spec, D: fab.d, M: m}
				batch.Queries = append(batch.Queries, q)
				target := fmt.Sprintf("/v1/plan?machine=%s&m=%d", machine, m)
				if fab.spec != "" {
					target += "&topology=" + fab.spec
				} else {
					target += fmt.Sprintf("&d=%d", fab.d)
				}
				w := serve(h, http.MethodGet, target, "")
				item := refItem(srv, q)
				var want []byte
				if item.Plan != nil {
					want, _ = encoded(item.Plan)
					answers++
					if item.Plan.Degraded {
						degraded++
					}
				} else {
					want, _ = encoded(errorResponse{Error: item.Error})
				}
				if !bytes.Equal(w.Body.Bytes(), want) {
					t.Fatalf("GET %s:\n got %s\nwant %s", target, w.Body, want)
				}
				if item.Plan != nil && w.Header().Get("Content-Length") != fmt.Sprint(len(want)) {
					t.Fatalf("GET %s: Content-Length %q, want %d", target, w.Header().Get("Content-Length"), len(want))
				}
			}
			batch.Queries = append(batch.Queries,
				BatchQuery{Machine: "cray", Topology: fab.spec, D: fab.d, M: 40},
				BatchQuery{Topology: "blob-3", M: 40},
				BatchQuery{D: -1, M: 40},
				BatchQuery{Topology: fab.spec, D: fab.d, M: -1},
			)
			resp := BatchResponse{Results: make([]BatchItem, len(batch.Queries))}
			for i, q := range batch.Queries {
				resp.Results[i] = refItem(srv, q)
			}
			want, _ := encoded(resp)
			raw, _ := json.Marshal(batch)
			// The canonical spelling takes the direct decoder, the
			// capitalized one the fallback: one answer.
			for _, body := range []string{string(raw), strings.Replace(string(raw), `"queries"`, `"Queries"`, 1)} {
				w := serve(h, http.MethodPost, "/v1/batch", body)
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
					t.Fatalf("POST /v1/batch on %+v %s: %d\n got %s\nwant %s", fab, machine, w.Code, w.Body, want)
				}
			}
		}
	}
	if answers < 8000 || degraded == 0 {
		t.Fatalf("%d plan answers, %d degraded: the sweep lost its coverage", answers, degraded)
	}
}

// Plans the encoder must agree with json.Encoder on: the float cut-offs
// of 'e' notation, negative and signed-zero values, and strings needing
// every kind of escape.
func FuzzPlanEncoding(f *testing.F) {
	f.Add("ipsc860", "hypercube-7", "ok", 7, 40, 0, 512, 16097.32, 1e-7, []byte{3, 4}, true, false, uint8(0))
	f.Add("<a&b>", "torus-4x4!dl=0-1", "dl=0-1", -3, -1, 5, 4, 1e21, -2.5e-9, []byte{}, false, true, uint8(1))
	f.Add("\x00\x1f\"\\\b\f\n\r\t", "\xff\xfe", "\u2028\u2029", 0, 0, 0, 0, math.Copysign(0, -1), 9.99e20, []byte{1}, true, true, uint8(2))
	f.Add("é", "mesh-8x8", "sl=0-1:2.5", 1<<40, -1<<40, 1, 2, 1e-6, 123456789.123456789, []byte{255, 0}, false, false, uint8(7))
	f.Add("x", "y", "z", 1, 1, 1, 1, 9.99e20, 1e21, []byte{1, 2}, false, false, uint8(0))
	f.Add("x", "y", "z", 1, 1, 1, 1, 9.99e-7, 1e-6, []byte{1, 2}, false, false, uint8(0))
	f.Add("x", "y", "z", 1, 1, 1, 1, math.Inf(1), 1.0, []byte{1}, false, false, uint8(0))
	f.Add("x", "y", "z", 1, 1, 1, 1, 1.0, math.NaN(), []byte{1}, false, false, uint8(0))
	f.Fuzz(func(t *testing.T, machine, topo, health string, d, m, segMin, segMax int,
		predicted, phaseTime float64, part []byte, inRange, degraded bool, alg uint8) {
		p := plancache.Plan{
			Machine: machine, Topo: topo, D: d, Block: m,
			TimeMicro: predicted, SegMin: segMin, SegMax: segMax, InRange: inRange,
		}
		for i, g := range part {
			p.Part = append(p.Part, int(g)-int(alg))
			p.Phases = append(p.Phases, model.PhaseBreakdown{
				SubcubeDim: int(g), EffBlock: m * i, Alg: model.PhaseAlg(int(alg) % 3), Time: phaseTime * float64(i+1),
			})
		}
		want, wantOK := encoded(planResponse(p, health, degraded))
		got, ok := appendPlan(nil, &p, health, degraded)
		if ok != wantOK {
			t.Fatalf("appendPlan ok=%v, json.Encoder ok=%v", ok, wantOK)
		}
		if ok && !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("appendPlan:\n got %s\nwant %s", got, want)
		}

		results := []batchResult{
			{plan: p, health: health, degraded: degraded, planned: true},
			{err: machine},
			{err: ""},
		}
		resp := BatchResponse{Results: []BatchItem{{Plan: new(PlanResponse)}, {Error: machine}, {}}}
		*resp.Results[0].Plan = planResponse(p, health, degraded)
		want, wantOK = encoded(resp)
		got, ok = appendBatch(nil, results)
		if ok != wantOK || (ok && !bytes.Equal(append(got, '\n'), want)) {
			t.Fatalf("appendBatch ok=%v (json.Encoder %v):\n got %s\nwant %s", ok, wantOK, got, want)
		}
	})
}

// Whenever the direct decoder accepts a body, encoding/json reads the same
// queries from it with nothing trailing.
func FuzzBatchBody(f *testing.F) {
	for _, seed := range []string{
		`{"queries":[{"machine":"ipsc860","d":7,"m":40}]}`,
		`{"queries":[{"machine":"hypo","topology":"torus-4x4x4","m":0},{"machine":"ncube2","d":5,"m":-12}]}`,
		" {\"queries\" : [ {} , {\"m\":1,\"m\":2} ] }\n",
		`{"queries":[]}`,
		`{"queries":[{"d":01}]}`,
		`{"queries":[{"d":1.5}]}`,
		`{"queries":[{"d":1e3}]}`,
		`{"queries":[{"d":1234567890123456}]}`,
		`{"queries":[{"machine":"a\"b"}]}`,
		`{"Queries":[{"Machine":"hypo"}]}`,
		`{"queries":[{"d":3,"m":4}]}{"queries":[]}`,
		`{"queries":[{"d":-0,"m":-}]}`,
		`{"queries":null}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		queries, ok := parseBatch(body)
		if !ok {
			return
		}
		var want BatchRequest
		dec := json.NewDecoder(strings.NewReader(body))
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("direct decoder accepted %q, encoding/json: %v", body, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			t.Fatalf("direct decoder accepted %q with trailing data (%v)", body, err)
		}
		if !slices.Equal(queries, want.Queries) {
			t.Fatalf("%q: direct %+v, encoding/json %+v", body, queries, want.Queries)
		}
	})
}

// The direct decoder changes no error: every body it declines — invalid,
// trailing, oversized, non-canonical — gets decodeBody's status and
// message and, when valid, its queries.
func TestBatchDecodeFallbackUnchanged(t *testing.T) {
	pad := strings.Repeat("x", 2<<20)
	for _, body := range []string{
		`{"queries":[{"machine":"ipsc860","d":7,"m":40}]}`,
		`{"Queries":[{"Machine":"ipsc860","D":7,"M":40}]}`,
		`{"queries":[{"machine":"ips\u0063860","d":7,"m":40}]}`,
		`{"queries":[{"d":3,"m":4}]}{"queries":[]}`,
		`{"queries":[{"d":3,"m":4}]} x`,
		`{"queries":[{"d":1.5}]}`,
		`{"queries":[{"d":12345678901234567890}]}`,
		`{"queries":[{"d":01}]}`,
		`{"queries":[{"pad":"x"}]}`,
		`{"queries":null}`,
		`{"queries":[null]}`,
		`{"queries":[{"d":"7"}]}`,
		`{"queries"`,
		``,
		`[]`,
		`{"pad":"` + pad + `"}`,
		`{"queries":[]}` + strings.Repeat(" ", 2<<20),
		`{"queries":[{"machine":"` + pad[:maxBodyBytes-40] + `"}]}`,
		`nonsense` + pad,
	} {
		newReq := func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
		}
		direct, old := httptest.NewRecorder(), httptest.NewRecorder()
		var got, want BatchRequest
		gotCode, wantCode := decodeBatch(direct, newReq(), &got), decodeBody(old, newReq(), &want)
		short := body
		if len(short) > 60 {
			short = short[:60] + "…"
		}
		if gotCode != wantCode || !bytes.Equal(direct.Body.Bytes(), old.Body.Bytes()) {
			t.Errorf("%q: decodeBatch %d %s, decodeBody %d %s", short, gotCode, direct.Body, wantCode, old.Body)
		}
		if !slices.Equal(got.Queries, want.Queries) {
			t.Errorf("%q: decodeBatch %+v, decodeBody %+v", short, got.Queries, want.Queries)
		}
	}
}

// A body a reader fails part-way keeps decodeBody's answer too: the
// decoder sees the bytes read so far, then the same error.
func TestBatchDecodeReplaysReadError(t *testing.T) {
	boom := errors.New("connection reset")
	for _, prefix := range []string{`{"queries":[{"d":3`, `{"queries":[]}`, `{"queries":[]} x`} {
		newReq := func() *http.Request {
			r := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
			r.Body = io.NopCloser(io.MultiReader(strings.NewReader(prefix), errReader{boom}))
			return r
		}
		direct, old := httptest.NewRecorder(), httptest.NewRecorder()
		var got, want BatchRequest
		gotCode, wantCode := decodeBatch(direct, newReq(), &got), decodeBody(old, newReq(), &want)
		if gotCode != wantCode || !bytes.Equal(direct.Body.Bytes(), old.Body.Bytes()) {
			t.Errorf("%q: decodeBatch %d %s, decodeBody %d %s", prefix, gotCode, direct.Body, wantCode, old.Body)
		}
	}
}

// A plan whose time is not finite gets what json.Encoder's refusal left:
// the status, and an empty body.
func TestNonFinitePlanBodyEmpty(t *testing.T) {
	p := plancache.Plan{Part: partition.Partition{1}, TimeMicro: math.Inf(1)}
	w := httptest.NewRecorder()
	buf, ok := appendPlan(nil, &p, "ok", false)
	if writeBody(w, http.StatusOK, buf, ok); w.Code != http.StatusOK || w.Body.Len() != 0 {
		t.Fatalf("non-finite plan: %d %q, want 200 and no body", w.Code, w.Body)
	}
	if _, ok := encoded(planResponse(p, "ok", false)); ok {
		t.Fatal("json.Encoder accepted +Inf: the premise of this test is gone")
	}
}

// fuzzBody posts arbitrary bytes to one JSON-body route of a server that
// simulates at most 2^4 nodes. No body may panic a handler (panics_total
// stays 0), and every body encoding/json rejects — malformed, trailing
// data, wrong field types — or that exceeds maxBodyBytes answers 400 or
// 413: never a 5xx, never a 2xx.
func fuzzBody[T any](f *testing.F, route string, seeds ...string) {
	pad := strings.Repeat("x", maxBodyBytes)
	seeds = append(seeds,
		`{"topology":"torus-4x4"`,           // truncated
		`{"topology":"torus-4x4"} {}`,       // trailing data
		`{"topology":4,"m":"32"}`,           // wrong field types
		`{"partition":{"a":1},"nodes":"3"}`, // wrong field types
		`{"pad":"`+pad+`"}`,                 // over 1 MiB
		``, `null`, `[]`)
	for _, seed := range seeds {
		f.Add([]byte(seed))
	}
	srv, err := New(Config{
		Cache:      plancache.New(plancache.Config{}),
		CostMaxDim: 4,
		Logger:     slog.New(slog.DiscardHandler),
	})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if n := srv.panics.Load(); n != 0 {
			t.Fatalf("%d panics; last body %q answered %d %s", n, body, rec.Code, rec.Body)
		}
		var v T
		dec := json.NewDecoder(bytes.NewReader(body))
		rejected := dec.Decode(&v) != nil
		if !rejected {
			_, err := dec.Token()
			rejected = err != io.EOF
		}
		if (rejected || len(body) > maxBodyBytes) && rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("rejected body %.80q answered %d %s, want 400 or 413", body, rec.Code, rec.Body)
		}
	})
}

// FuzzCostBody: /v1/cost's body decoder under arbitrary bytes.
func FuzzCostBody(f *testing.F) {
	fuzzBody[CostRequest](f, "/v1/cost",
		`{"machine":"ipsc860","d":4,"m":40,"partition":[2,2]}`,
		`{"topology":"torus-4x4","m":32,"partition":[1,1]}`)
}

// FuzzFaultsBody: /v1/faults's body decoder under arbitrary bytes.
func FuzzFaultsBody(f *testing.F) {
	fuzzBody[FaultsRequest](f, "/v1/faults",
		`{"topology":"torus-4x4","action":"down","nodes":[3]}`,
		`{"topology":"torus-4x4","action":"slow","links":[[0,1]],"factor":2.5}`)
}
