package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestIDRoundTrip(t *testing.T) {
	id := NewRequestID()
	if len(id) != 16 {
		t.Fatalf("NewRequestID() = %q, want 16 hex chars", id)
	}
	if id2 := NewRequestID(); id2 == id {
		t.Fatalf("two fresh IDs collided: %q", id)
	}
	ctx := WithRequestID(context.Background(), id)
	if got := RequestID(ctx); got != id {
		t.Fatalf("RequestID = %q, want %q", got, id)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Fatalf("RequestID on bare ctx = %q, want empty", got)
	}
}

// Minted IDs are 16 lowercase hex characters, distinct across many
// concurrent mints, and every one passes ValidRequestID.
func TestNewRequestIDsDistinct(t *testing.T) {
	const workers, per = 4, 5000
	ids := make([][]string, workers)
	var wg sync.WaitGroup
	for w := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids[w] = append(ids[w], NewRequestID())
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]bool, workers*per)
	for _, batch := range ids {
		for _, id := range batch {
			if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" || !ValidRequestID(id) {
				t.Fatalf("minted ID %q is not 16 lowercase hex characters", id)
			}
			if seen[id] {
				t.Fatalf("minted ID %q twice", id)
			}
			seen[id] = true
		}
	}
}

func TestValidRequestID(t *testing.T) {
	for id, want := range map[string]bool{
		"":                          false,
		"ci-smoke-0001":             true,
		"A.b_c:d-9":                 true,
		strings.Repeat("x", 64):     true,
		strings.Repeat("x", 65):     false,
		"a b":                       false,
		"a/b":                       false,
		"a\nb":                      false,
		"\u00e9":                    false,
		"trace\x00":                 false,
		"0123456789abcdef":          true,
		strings.Repeat("7", 16<<10): false,
	} {
		if got := ValidRequestID(id); got != want {
			t.Errorf("ValidRequestID(%.20q) = %v, want %v", id, got, want)
		}
	}
}

// A span's first four attributes are stored inline: setting them grows
// no slice.
func TestSpanAttrsInline(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.StartRequest(context.Background(), "inline", "/v1/plan")
	defer root.End()
	sp := StartSpan(ctx, "cache")
	if allocs := testing.AllocsPerRun(1, func() {
		sp.attrs = nil
		sp.SetAttr("machine", "ipsc860")
		sp.SetAttr("topology", "hypercube-7")
		sp.SetAttr("error", "true")
		sp.SetAttr("outcome", "hit")
	}); allocs != 0 {
		t.Fatalf("four SetAttr calls allocate %v times, want 0", allocs)
	}
	sp.SetAttr("fifth", "spills")
	sp.End()
	if n := len(sp.attrs); n != 5 {
		t.Fatalf("span holds %d attributes, want 5", n)
	}
}

func TestDetachKeepsValuesDropsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(WithRequestID(context.Background(), "abc"))
	d := Detach(ctx)
	cancel()
	if err := d.Err(); err != nil {
		t.Fatalf("detached ctx cancelled: %v", err)
	}
	if got := RequestID(d); got != "abc" {
		t.Fatalf("detached ctx lost the request ID: %q", got)
	}
}

func TestTracerRecordsSpansAndCommits(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.StartRequest(context.Background(), "req-1", "/v1/plan")
	sp := StartSpan(ctx, "build")
	sp.SetAttr("topology", "hypercube-4")
	sp.SetInt("segments", 7)
	sp.End()
	if got := tr.Committed(); got != 0 {
		t.Fatalf("trace committed before root end: %d", got)
	}
	root.SetInt("status", 200)
	root.End()
	if got := tr.Committed(); got != 1 {
		t.Fatalf("committed = %d, want 1", got)
	}

	got := tr.Find("req-1")
	if len(got) != 1 {
		t.Fatalf("Find returned %d traces, want 1", len(got))
	}
	td := got[0]
	if td.Name != "/v1/plan" || len(td.Spans) != 2 {
		t.Fatalf("trace %+v: want root + build spans", td)
	}
	var build *SpanData
	for i := range td.Spans {
		if td.Spans[i].Name == "build" {
			build = &td.Spans[i]
		}
	}
	if build == nil {
		t.Fatal("build span missing")
	}
	var topo string
	for _, a := range build.Attrs {
		if a.Key == "topology" {
			topo = a.Value
		}
	}
	if topo != "hypercube-4" {
		t.Fatalf("build span attrs %+v missing topology", build.Attrs)
	}
	if td.DurationUS < build.DurUS {
		t.Fatalf("root duration %.1f < child %.1f", td.DurationUS, build.DurUS)
	}

	// Stage histograms aggregate child spans by name; roots are counted
	// by the serving tier's own endpoint histograms, not here.
	stages := tr.StageStats()
	if stages["build"].Count != 1 {
		t.Fatalf("stage build count = %d, want 1", stages["build"].Count)
	}
	if _, ok := stages["/v1/plan"]; ok {
		t.Fatal("root span leaked into stage histograms")
	}
}

func TestNilTracerAndNilSpansAreNoOps(t *testing.T) {
	var tr *Tracer
	ctx, root := tr.StartRequest(context.Background(), "id", "x")
	if root != nil {
		t.Fatal("nil tracer returned a span")
	}
	if got := RequestID(ctx); got != "id" {
		t.Fatal("nil tracer dropped the request ID")
	}
	sp := StartSpan(context.Background(), "anything")
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.End() // must not panic
	root.End()
}

func TestSpanBudgetDropsAndCounts(t *testing.T) {
	tr := NewTracer(4)
	ctx, root := tr.StartRequest(context.Background(), "big", "sweep")
	for i := 0; i < MaxSpansPerTrace+10; i++ {
		StartSpan(ctx, "point").End()
	}
	root.End()
	td := tr.Find("big")[0]
	if len(td.Spans) != MaxSpansPerTrace {
		t.Fatalf("%d spans retained, want %d", len(td.Spans), MaxSpansPerTrace)
	}
	if td.DroppedSpans != 11 { // root occupies one slot
		t.Fatalf("dropped = %d, want 11", td.DroppedSpans)
	}
	// The budget bounds the trace, not the stage accounting: a dropped
	// span's duration still reaches its stage's histogram.
	if got := tr.StageStats()["point"].Count; got != MaxSpansPerTrace+10 {
		t.Fatalf("stage histogram observed %d spans, want %d", got, MaxSpansPerTrace+10)
	}
	sp := StartSpan(ctx, "late")
	sp.SetAttr("k", "v") // must not grow a span nobody will read
	if sp == nil || len(sp.attrs) != 0 {
		t.Fatalf("dropped span: %+v", sp)
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tr := NewTracer(8) // 1 per shard
	for i := 0; i < 100; i++ {
		_, root := tr.StartRequest(context.Background(), "id", "x")
		root.End()
	}
	if n := len(tr.Snapshot(0)); n > 8 {
		t.Fatalf("ring retained %d traces, capacity 8", n)
	}
	if tr.Committed() != 100 {
		t.Fatalf("committed = %d, want 100", tr.Committed())
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartRequest(context.Background(), NewRequestID(), "/v1/plan")
				sp := StartSpan(ctx, "cache")
				sp.SetAttr("outcome", "hit")
				sp.End()
				root.End()
				tr.Snapshot(4)
			}
		}()
	}
	wg.Wait()
	if tr.Committed() != 400 {
		t.Fatalf("committed = %d, want 400", tr.Committed())
	}
}

func TestHistogramQuantilesAndBuckets(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.MaxUS != 1000 {
		t.Fatalf("count %d max %d", s.Count, s.MaxUS)
	}
	if s.SumUS != 500500 {
		t.Fatalf("sum = %d", s.SumUS)
	}
	// Log buckets bound the quantile estimate to its bucket: p50 of
	// 1..1000 is 500, inside (256, 512].
	if s.P50US <= 256 || s.P50US > 512 {
		t.Fatalf("p50 = %.1f, want in (256, 512]", s.P50US)
	}
	if s.P99US <= 512 || s.P99US > 1000 {
		t.Fatalf("p99 = %.1f, want in (512, 1000]", s.P99US)
	}
	// Buckets are cumulative and end with +Inf at the total.
	last := int64(-1)
	for _, b := range s.Buckets {
		if b.Count < last {
			t.Fatalf("bucket counts not cumulative: %+v", s.Buckets)
		}
		last = b.Count
	}
	inf := s.Buckets[len(s.Buckets)-1]
	if inf.LEUS != -1 || inf.Count != 1000 {
		t.Fatalf("+Inf bucket %+v, want count 1000", inf)
	}
}

func TestHistogramOverflowAndZero(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	h.Observe(1 << 30) // past the last finite bound
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0].LEUS != 1 || s.Buckets[0].Count != 2 {
		t.Fatalf("first bucket %+v, want le=1 count=2", s.Buckets[0])
	}
	if s.P99US != float64(int64(1<<30)) {
		t.Fatalf("overflow p99 = %.0f, want observed max", s.P99US)
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.P50US != 0 || s.P99US != 0 {
		t.Fatalf("empty snapshot %+v", s)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].LEUS != -1 {
		t.Fatalf("empty snapshot buckets %+v, want just +Inf", s.Buckets)
	}
}

func TestPromWriterFormats(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Observe(300)
	type endpoint struct {
		Inflight int64        `prom:"pland_http_inflight,gauge" help:"In-flight requests."`
		Latency  HistSnapshot `prom:"pland_http_request_duration_us,histogram" help:"Request latency."`
	}
	v := struct {
		Panics    int64               `prom:"pland_panics_total,counter" help:"Recovered handler panics."`
		Endpoints map[string]endpoint `prom:"endpoint"`
	}{3, map[string]endpoint{"/v1/plan": {2, h.Snapshot()}}}
	var buf bytes.Buffer
	if err := WriteProm(&buf, v); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pland_panics_total counter",
		"pland_panics_total 3",
		`pland_http_inflight{endpoint="/v1/plan"} 2`,
		`pland_http_request_duration_us_bucket{endpoint="/v1/plan",le="4"} 1`,
		`pland_http_request_duration_us_bucket{endpoint="/v1/plan",le="+Inf"} 2`,
		`pland_http_request_duration_us_sum{endpoint="/v1/plan"} 303`,
		`pland_http_request_duration_us_count{endpoint="/v1/plan"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	v := struct {
		M map[string]int `prom:"m,gauge,k" help:"a\\b"`
	}{map[string]int{"a\"b\\c\nd": 1}}
	if err := WriteProm(&buf, v); err != nil {
		t.Fatal(err)
	}
	want := "# HELP m a\\\\b\n# TYPE m gauge\n" + `m{k="a\"b\\c\nd"} 1` + "\n"
	if buf.String() != want {
		t.Fatalf("escaped sample %q, want %q", buf.String(), want)
	}
}

// TestWritePromLabelsAndSkips: constant labels and an element field label
// a family's samples in walk order; nil pointers, empty maps, strings and
// prom:"-" fields write nothing; a family declared twice with different
// help is refused.
func TestWritePromLabelsAndSkips(t *testing.T) {
	type peer struct {
		URL   string
		Up    bool   `prom:"up,gauge" help:"Peer up."`
		State string `prom:"-"`
	}
	type section struct {
		Closed int64 `prom:"phases_total,counter,mode=closed" help:"Phases."`
		Engine int64 `prom:"phases_total,counter,mode=engine" help:"Phases."`
	}
	v := struct {
		Section  section
		Peers    []peer `prom:"peer=URL"`
		Missing  *section
		Declines map[string]int64 `prom:"declines_total,counter,reason" help:"Declines."`
		Hidden   int64            `prom:"-"`
	}{section{1, 2}, []peer{{"http://b", true, "open"}, {"http://a", false, "closed"}}, nil, nil, 9}
	var buf bytes.Buffer
	if err := WriteProm(&buf, &v); err != nil {
		t.Fatal(err)
	}
	want := "# HELP phases_total Phases.\n# TYPE phases_total counter\n" +
		"phases_total{mode=\"closed\"} 1\nphases_total{mode=\"engine\"} 2\n" +
		"# HELP up Peer up.\n# TYPE up gauge\nup{peer=\"http://b\"} 1\nup{peer=\"http://a\"} 0\n"
	if buf.String() != want {
		t.Fatalf("exposition\n%s\nwant\n%s", buf.String(), want)
	}

	bad := struct {
		A int `prom:"x_total,counter" help:"One."`
		B int `prom:"x_total,counter" help:"Two."`
	}{}
	if err := WriteProm(io.Discard, bad); err == nil {
		t.Fatal("a family declared with two helps was accepted")
	}
}

func TestChromeExport(t *testing.T) {
	tr := NewTracer(4)
	ctx, root := tr.StartRequest(context.Background(), "c1", "/v1/plan")
	sp := StartSpan(ctx, "build")
	time.Sleep(time.Millisecond)
	sp.End()
	root.End()

	events := ChromeEvents(tr.Snapshot(0))
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "build" {
			found = true
			if ev.Ph != "X" || ev.Dur <= 0 {
				t.Fatalf("build event %+v", ev)
			}
			if ev.Args["request_id"] != "c1" {
				t.Fatalf("build event lost the request ID: %+v", ev.Args)
			}
		}
	}
	if !found {
		t.Fatal("build event missing from export")
	}
}
