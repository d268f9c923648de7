package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own code around a call into the program.
type span struct {
	Name    string
	Track   string // timeline row: a client connection or a layer
	Start   time.Duration
	End     time.Duration
	Parent  int    // index of the causing span, -1 for a root
	Request string // identifier shared by the spans of one request
}

// recorder keeps a traced run's spans in memory until the run ends. A
// nil *recorder records nothing, so untraced runs share the code path
// and pay one nil check.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its index, for use as a
// parent; -1 from a nil recorder.
func (r *recorder) add(name, track string, parent int, request string, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Track: track, Parent: parent, Request: request,
		Start: start.Sub(r.origin), End: end.Sub(r.origin),
	})
	return len(r.spans) - 1
}

// open reserves a span whose end is set later by close, so children
// recorded in between can name it as their parent.
func (r *recorder) open(name, track string, parent int, request string) int {
	now := time.Now()
	return r.add(name, track, parent, request, now, now)
}

func (r *recorder) close(id int) {
	if r == nil || id < 0 {
		return
	}
	end := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// chromeEvent is one event of the Chrome trace_event format, which
// chrome://tracing and ui.perfetto.dev load directly: a complete ("X")
// event per span, and a metadata ("M") event naming each track's row.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace_event document.
func (r *recorder) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(r.spans))
	tids := map[string]int{}
	for id, s := range r.spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids) + 1
			tids[s.Track] = tid
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": s.Track}})
		}
		args := map[string]any{"id": id}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
		}
		if s.Request != "" {
			args["request"] = s.Request
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X", PID: 1, TID: tid, Args: args,
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ns", "traceEvents": events})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
