package obs

import (
	"context"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSpansPerTrace bounds one trace's span list: a hull build sweeping
// hundreds of block sizes must not turn one request's trace into an
// unbounded allocation. Spans past the bound are dropped from the trace
// and counted; their durations still reach the per-stage histograms.
const MaxSpansPerTrace = 128

// DefaultTraceCapacity is the trace-ring size NewTracer uses when given
// a non-positive capacity.
const DefaultTraceCapacity = 256

// Attr is one span attribute. Values are strings; SetInt formats
// integers for callers recording counters.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one named stage of a trace. A nil *Span is a valid no-op
// (StartSpan returns nil when ctx carries no trace), so instrumented
// code never branches on whether tracing is active.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
	end   time.Time
	// attrs starts on inline, so a span's first four attributes — the
	// most any stage sets — are stored without growing a slice.
	attrs  []Attr
	inline [4]Attr
	root   bool
	// dropped marks a span past the trace's budget: it is not on the
	// trace's list and records no attributes, but End still times it.
	dropped bool
}

// SetAttr records a string attribute (no-op on a nil or dropped span).
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.dropped {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = s.inline[:0]
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// End closes the span, feeding its duration into the tracer's per-stage
// histogram. Ending a root span also commits the whole trace to the
// ring. Safe to call on nil; must be called at most once.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.tr.mu.Lock()
	s.end = now
	s.tr.mu.Unlock()
	if !s.root {
		s.tr.tracer.stageHist(s.name).Observe(now.Sub(s.start).Microseconds())
	} else {
		s.tr.tracer.commit(s.tr)
	}
}

// Trace is one request's span collection. It is created by
// Tracer.StartRequest, carried by context, and committed to the ring
// when its root span ends; spans recorded after the commit (a build
// that outlives the request that initiated it) still attach to it.
type Trace struct {
	tracer *Tracer
	id     string
	name   string
	start  time.Time

	mu      sync.Mutex
	spans   []*Span
	dropped int

	// rootSpan and inline back the root span and the head of spans, so
	// the trace of a short request is one allocation for the trace and
	// one per further span.
	rootSpan Span
	inline   [4]*Span
}

// SpanData is one span on the /debug/traces wire: offsets are µs from
// the trace start.
type SpanData struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Attrs   []Attr  `json:"attrs,omitempty"`
}

// TraceData is one trace on the /debug/traces wire.
type TraceData struct {
	ID           string     `json:"id"`
	Name         string     `json:"name"`
	Start        time.Time  `json:"start"`
	DurationUS   float64    `json:"duration_us"`
	Spans        []SpanData `json:"spans"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
}

// snapshot renders the trace for serving. Open spans report the
// duration so far.
func (t *Trace) snapshot() TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	td := TraceData{ID: t.id, Name: t.name, Start: t.start, DroppedSpans: t.dropped}
	for _, s := range t.spans {
		end := s.end
		if end.IsZero() {
			end = now
		}
		sd := SpanData{
			Name:    s.name,
			StartUS: float64(s.start.Sub(t.start)) / float64(time.Microsecond),
			DurUS:   float64(end.Sub(s.start)) / float64(time.Microsecond),
		}
		if len(s.attrs) > 0 {
			sd.Attrs = append([]Attr(nil), s.attrs...)
		}
		td.Spans = append(td.Spans, sd)
		if s.root {
			td.DurationUS = sd.DurUS
		}
	}
	return td
}

// traceShard is one lock domain of the ring.
type traceShard struct {
	mu   sync.Mutex
	ring []*Trace
	next int
}

// Tracer records request traces into a bounded lock-sharded ring buffer
// and aggregates per-stage duration histograms keyed by span name.
type Tracer struct {
	shards   []traceShard
	perShard int

	histMu sync.Mutex
	hists  map[string]*Histogram

	committed atomic.Int64
}

// NewTracer returns a tracer retaining roughly the given number of most
// recent traces (default DefaultTraceCapacity), spread over 8 shards.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	const nShards = 8
	per := (capacity + nShards - 1) / nShards
	t := &Tracer{
		shards:   make([]traceShard, nShards),
		perShard: per,
		hists:    make(map[string]*Histogram),
	}
	for i := range t.shards {
		t.shards[i].ring = make([]*Trace, 0, per)
	}
	return t
}

// StartRequest opens a trace for one request: the returned context
// carries the request ID and the trace (so StartSpan works anywhere
// downstream), and the returned root span commits the trace to the ring
// when ended. A nil tracer returns ctx carrying only the ID, and a nil
// span.
func (t *Tracer) StartRequest(ctx context.Context, id, name string) (context.Context, *Span) {
	if t == nil {
		return WithRequestID(ctx, id), nil
	}
	tr := &Trace{tracer: t, id: id, name: name, start: time.Now()}
	root := &tr.rootSpan
	*root = Span{tr: tr, name: name, start: tr.start, root: true}
	tr.spans = append(tr.inline[:0], root)
	// The trace carries the request ID for RequestID.
	return context.WithValue(ctx, traceKey, tr), root
}

// StartSpan opens a named span on the trace carried by ctx; it returns
// nil (a valid no-op span) when ctx carries none. Once the trace's span
// budget is spent the span is left off the trace, but ending it still
// feeds the stage histogram: a stage's busy time must not depend on how
// many other spans the request happened to record first.
func StartSpan(ctx context.Context, name string) *Span {
	tr, _ := ctx.Value(traceKey).(*Trace)
	if tr == nil {
		return nil
	}
	s := &Span{tr: tr, name: name, start: time.Now()}
	tr.mu.Lock()
	if len(tr.spans) >= MaxSpansPerTrace {
		tr.dropped++
		tr.mu.Unlock()
		s.dropped = true
		return s
	}
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s
}

// commit stores a finished trace in its ring shard, evicting the oldest
// entry past capacity.
func (t *Tracer) commit(tr *Trace) {
	h := fnv.New32a()
	h.Write([]byte(tr.id))
	sh := &t.shards[h.Sum32()%uint32(len(t.shards))]
	sh.mu.Lock()
	if len(sh.ring) < t.perShard {
		sh.ring = append(sh.ring, tr)
	} else {
		sh.ring[sh.next] = tr
		sh.next = (sh.next + 1) % t.perShard
	}
	sh.mu.Unlock()
	t.committed.Add(1)
}

// Committed returns how many traces have been committed since start
// (the ring retains only the most recent ones).
func (t *Tracer) Committed() int64 { return t.committed.Load() }

// Snapshot returns up to limit committed traces, most recent first
// (limit <= 0 means all retained).
func (t *Tracer) Snapshot(limit int) []TraceData {
	var all []TraceData
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, tr := range sh.ring {
			all = append(all, tr.snapshot())
		}
		sh.mu.Unlock()
	}
	sortTracesByStartDesc(all)
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}

// Find returns the committed traces carrying the given request ID,
// most recent first.
func (t *Tracer) Find(id string) []TraceData {
	var out []TraceData
	for _, td := range t.Snapshot(0) {
		if td.ID == id {
			out = append(out, td)
		}
	}
	return out
}

// stageHist returns (creating once) the histogram for a span name.
func (t *Tracer) stageHist(name string) *Histogram {
	t.histMu.Lock()
	defer t.histMu.Unlock()
	h, ok := t.hists[name]
	if !ok {
		h = &Histogram{}
		t.hists[name] = h
	}
	return h
}

// StageStats snapshots the per-stage duration histograms, keyed by span
// name (e.g. "build", "optimizer", "replay", "peer_fetch").
func (t *Tracer) StageStats() map[string]HistSnapshot {
	if t == nil {
		return nil
	}
	t.histMu.Lock()
	names := make([]string, 0, len(t.hists))
	hists := make([]*Histogram, 0, len(t.hists))
	for name, h := range t.hists {
		names = append(names, name)
		hists = append(hists, h)
	}
	t.histMu.Unlock()
	out := make(map[string]HistSnapshot, len(names))
	for i, name := range names {
		out[name] = hists[i].Snapshot()
	}
	return out
}

func sortTracesByStartDesc(ts []TraceData) {
	// Insertion sort: the ring is small (hundreds) and mostly ordered.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Start.After(ts[j-1].Start); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
