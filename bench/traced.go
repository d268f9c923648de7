package main

import (
	"context"
	"path/filepath"
)

// runTraced is the traced run. Its daemon phase has two halves: a
// plain phase run exactly as the untraced run does, then the traced
// phase, which records a client-side span per request and is bracketed
// by scrapes of the daemons' own counters (source D). The difference in
// wall time per operation between the two is the tracing overhead.
// Closed-loop workloads run both phases against one warm fleet, half the
// window each; list workloads need a cold daemon per phase, so each
// phase gets a fresh fleet and the whole list. After the daemons have
// stopped, the layers are walked in-process (source T).
//
// The returned window is the traced phase's; its end-to-end numbers are
// not reported.
func runTraced(ctx context.Context, cfg config, w *workload, st *runState,
	start func(bool) (*fleet, error), doc *document) (*window, error) {

	rec := newRecorder()
	closedLoop := w.newGen != nil
	seconds := cfg.seconds
	if closedLoop {
		seconds /= 2
	}

	f, err := start(closedLoop)
	if err != nil {
		return nil, err
	}
	// f is reassigned for list workloads; stop whichever fleet is current.
	defer func() { f.stop() }()
	if err := runProbes(ctx, w, f, st); err != nil {
		return nil, err
	}
	plain, err := measure(ctx, w, f, st, cfg.seed, cfg.warmup, seconds, nil)
	if err != nil {
		return nil, err
	}
	if !closedLoop {
		f.stop()
		if f, err = start(true); err != nil {
			return nil, err
		}
	}
	before, err := scrapeFleet(ctx, f)
	if err != nil {
		return nil, err
	}
	// A different seed for the second closed-loop phase, so it does not
	// replay the first one's request sequence; a list is the same list.
	seed := cfg.seed
	if closedLoop {
		seed = ^cfg.seed
	}
	win, err := measure(ctx, w, f, st, seed, 0, seconds, rec)
	if err != nil {
		return nil, err
	}
	after, err := scrapeFleet(ctx, f)
	if err != nil {
		return nil, err
	}
	f.stop()

	ms := doc.Result.Metrics
	plainSum, winSum := summarize(plain), summarize(win)
	daemonMetrics(ms, after.minus(before), winSum.succeeded())
	// Wall time per operation is the inverse of the rate.
	doc.UntracedReqPerS, doc.TracedReqPerS = plainSum.ReqPerS, winSum.ReqPerS
	ms.set("bench.trace_overhead_share", ratio(plainSum.ReqPerS-winSum.ReqPerS, winSum.ReqPerS), "ratio")
	ms.set("bench.client_cpu_s", win.clientCPUS, "s")

	if err := walkLayers(ctx, ms, rec, st.modelErrMax, cfg.smoke); err != nil {
		return nil, err
	}
	doc.TraceFile = filepath.Join(buildDir, "out", w.name+".trace.json")
	return win, rec.writeChrome(doc.TraceFile)
}
