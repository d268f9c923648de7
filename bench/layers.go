package main

// This file holds every call the benchmark makes into internal/...: the
// in-process walk that times each layer's public functions (source T).
// It uses only the context-first, topology.Network-taking entry points
// ROADMAP item 2(b) keeps — GetForCtx, HullForCtx, BuildTableOnCtx,
// BestOn, NewPlanOn, ParseSpec, RunSource — so the PRs that collapse the
// X/XOn ladders and delete comm/circuit/schedule leave it compiling.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/plancache"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// shapes are the inputs the walk times each layer on. The full set is
// the one BENCHMARK.json's per-layer metrics are defined over; the smoke
// set exercises the same code in milliseconds for the self-test.
type shapes struct {
	cube, cubeBig, cubeFrag, cubeSim, cubeTable string // hypercube specs
	cubePart, cubeBigPart, cubeFragPart         partition.Partition
	grid, gridDegraded, cubeDegraded            string
	gridPart, cubeDegradedPart                  partition.Partition
	events                                      int   // events per event-engine run
	tableHi                                     int   // analytic sweep upper bound
	simTableHi, simTableStep                    int   // simulated sweep
	snapshotDims                                []int // cube dimensions of the snapshot's lines
	costDim                                     int   // /v1/cost request dimension
	costPart                                    partition.Partition
}

var fullShapes = shapes{
	cube: "hypercube-12", cubePart: partition.Partition{6, 6},
	cubeBig: "hypercube-16", cubeBigPart: partition.Partition{8, 8},
	cubeFrag: "hypercube-13", cubeFragPart: partition.Partition{7, 6},
	cubeSim: "hypercube-12", cubeTable: "hypercube-10",
	grid: "torus-8x8x8", gridPart: partition.Partition{2, 1},
	gridDegraded: "torus-8x8!dl=0-1",
	cubeDegraded: "hypercube-10!dl=0-1", cubeDegradedPart: partition.Partition{5, 5},
	events: 1_000_000, tableHi: 512, simTableHi: 256, simTableStep: 16,
	snapshotDims: []int{5, 6, 7, 8, 9, 10, 11, 12},
	costDim:      10, costPart: partition.Partition{5, 5},
}

var smokeShapes = shapes{
	cube: "hypercube-6", cubePart: partition.Partition{3, 3},
	cubeBig: "hypercube-8", cubeBigPart: partition.Partition{4, 4},
	cubeFrag: "hypercube-7", cubeFragPart: partition.Partition{4, 3},
	cubeSim: "hypercube-6", cubeTable: "hypercube-5",
	grid: "torus-4x4x4", gridPart: partition.Partition{2, 1},
	gridDegraded: "torus-4x4!dl=0-1",
	cubeDegraded: "hypercube-5!dl=0-1", cubeDegradedPart: partition.Partition{3, 2},
	events: 10_000, tableHi: 64, simTableHi: 32, simTableStep: 16,
	snapshotDims: []int{5, 6},
	costDim:      6, costPart: partition.Partition{3, 3},
}

// walker times calls and records them as spans and metrics.
type walker struct {
	ctx context.Context
	ms  metricSet
	rec *recorder
	// A call is repeated until it has run minCalls times or minDur has
	// passed, whichever comes first, and at least once.
	minCalls int
	minDur   time.Duration
}

// maxChildSpans bounds the per-call spans recorded under one metric's
// span, so a microsecond call repeated a thousand times does not swamp
// the trace.
const maxChildSpans = 32

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// timeCalls returns the median duration of fn. The measurement is one
// span named for the metric, with each call a child span.
func (w *walker) timeCalls(name string, fn func()) time.Duration {
	track := layerOf(name)
	parent := w.rec.open(name, track, -1, "")
	defer w.rec.close(parent)
	var durs []float64
	begin := time.Now()
	for len(durs) == 0 || (len(durs) < w.minCalls && time.Since(begin) < w.minDur) {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		if len(durs) < maxChildSpans {
			w.rec.add(name+" call", track, parent, "", t0, t1)
		}
		durs = append(durs, float64(t1.Sub(t0)))
	}
	return time.Duration(median(durs))
}

// timeNested times an outer call and, separately on the same input, the
// inner call it is built around, alternating the two so both see the
// same machine conditions. It returns the medians of the outer time, of
// the inner time, and of their per-round difference, which is the outer
// layer's self time. Each inner span names its round's outer span as its
// parent.
func (w *walker) timeNested(outerName string, outer func(), innerName string, inner func()) (outerD, innerD, self time.Duration) {
	outerTrack, innerTrack := layerOf(outerName), layerOf(innerName)
	if innerTrack == outerTrack {
		innerTrack += " (inner calls)"
	}
	outerParent := w.rec.open(outerName, outerTrack, -1, "")
	defer w.rec.close(outerParent)
	innerParent := w.rec.open(innerName, innerTrack, -1, "")
	defer w.rec.close(innerParent)
	var outers, inners, selfs []float64
	begin := time.Now()
	for len(outers) == 0 || (len(outers) < w.minCalls && time.Since(begin) < w.minDur) {
		t0 := time.Now()
		outer()
		t1 := time.Now()
		inner()
		t2 := time.Now()
		if len(outers) < maxChildSpans {
			id := w.rec.add(outerName+" call", outerTrack, outerParent, "", t0, t1)
			w.rec.add(innerName+" call", innerTrack, id, "", t1, t2)
		}
		o, i := float64(t1.Sub(t0)), float64(t2.Sub(t1))
		outers, inners, selfs = append(outers, o), append(inners, i), append(selfs, o-i)
	}
	return time.Duration(median(outers)), time.Duration(median(inners)), time.Duration(median(selfs))
}

// timeBatched is timeCalls for calls too short for the clock: fn is run
// in batches long enough to time (≈200 µs), and the result is the median
// over batches of nanoseconds per call.
func (w *walker) timeBatched(name string, fn func()) float64 {
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if time.Since(t0) >= 200*time.Microsecond || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	per := w.timeCalls(name, func() {
		for i := 0; i < batch; i++ {
			fn()
		}
	})
	return float64(per) / float64(batch)
}

// allocsPer returns the heap allocations and bytes one call of fn makes,
// averaged over n calls.
func allocsPer(n int, fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// Unit conversions from a time.Duration.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// must turns a set-up error inside the walk into a panic that walkLayers
// reports as the run's error: every input here is a constant, so a
// failure means the program under test rejected a valid call.
func must[T any](v T, err error) T {
	if err != nil {
		panic(walkError{err})
	}
	return v
}

type walkError struct{ error }

func check(err error) {
	if err != nil {
		panic(walkError{err})
	}
}

// walkLayers times every layer's public calls in-process and reports the
// source-T per-layer metrics. wireModelErr is the model error the daemon
// phase saw on /v1/cost answers, which simnet.model_err_max folds in.
func walkLayers(ctx context.Context, out metricSet, rec *recorder, wireModelErr float64, smoke bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			we, ok := r.(walkError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer walk: %w", we.error)
		}
	}()
	w := &walker{ctx: ctx, ms: out, rec: rec, minCalls: 20, minDur: time.Second}
	sh := fullShapes
	if smoke {
		w.minCalls, w.minDur, sh = 2, 0, smokeShapes
	}
	prm := must(model.MachineByName("ipsc860"))
	w.topology(sh)
	w.model(sh, prm)
	w.exchange(sh)
	w.event(sh)
	w.simnet(sh, prm, wireModelErr)
	w.optimize(sh, prm)
	hitNS := w.plancache(sh, prm)
	w.service(sh, prm, hitNS)
	w.obs()
	w.cluster()
	return ctx.Err()
}

// routePairs times AppendRoute over a fixed spread of node pairs.
func (w *walker) routePairs(name string, net topology.Network) {
	n, i := net.Nodes(), 0
	var buf []int
	w.ms.set(name, w.timeBatched(name, func() {
		buf = net.AppendRoute(buf, i%n, (i*7919+13)%n)
		i++
	}), "ns")
}

func (w *walker) topology(sh shapes) {
	const spec = "torus-4x4x4"
	w.ms.set("topology.parse_spec_ns", w.timeBatched("topology.parse_spec_ns", func() {
		must(topology.ParseSpec(spec))
	}), "ns")
	allocs, _ := allocsPer(100, func() { must(topology.ParseSpec(spec)) })
	w.ms.set("topology.parse_spec_allocs", allocs, "count")
	w.routePairs("topology.route_xor_ns", must(topology.ParseSpec(sh.cube)))
	w.routePairs("topology.route_grid_ns", must(topology.ParseSpec(sh.grid)))
	w.routePairs("topology.route_degraded_ns", must(topology.ParseSpec(sh.gridDegraded)))
}

func (w *walker) model(sh shapes, prm model.Params) {
	net := must(topology.ParseSpec(sh.cubeBig))
	w.ms.set("model.multiphase_on_ns", w.timeBatched("model.multiphase_on_ns", func() {
		_, _, err := prm.MultiphaseOn(net, 40, sh.cubeBigPart)
		check(err)
	}), "ns")
	half := net.NumDims() / 2
	w.ms.set("model.lower_bound_ns", w.timeBatched("model.lower_bound_ns", func() {
		must(prm.PhaseLowerBoundOn(net, 40, half, half))
	}), "ns")
}

func (w *walker) exchange(sh shapes) {
	net := must(topology.ParseSpec(sh.cube))
	var plan *exchange.Plan
	w.ms.set("exchange.new_plan_us", micros(w.timeCalls("exchange.new_plan_us", func() {
		plan = must(exchange.NewPlanOn(net, 40, sh.cubePart))
	})), "us")
	var compiled *exchange.CompiledPlan
	w.ms.set("exchange.compile_us", micros(w.timeCalls("exchange.compile_us", func() {
		compiled = plan.Compile()
	})), "us")
	w.ms.set("exchange.compile_phase_us", micros(w.timeCalls("exchange.compile_phase_us", func() {
		plan.CompilePhase(0)
	})), "us")
	w.ms.set("exchange.compiled_ops", float64(compiled.Ops()), "count")
}

func (w *walker) event(sh shapes) {
	sink := 0
	var handler event.ArgHandler = func(_ event.Time, arg int) { sink += arg }
	run := w.timeCalls("event.ns_per_event", func() {
		eng := event.New()
		for i := 0; i < sh.events; i++ {
			eng.PostArg(event.Time((i*7919)%4096), handler, i)
		}
		eng.Run()
	})
	w.ms.set("event.ns_per_event", float64(run)/float64(sh.events), "ns")
}

// replay times the serial replay of one compiled source on a fresh
// simulated network and returns the median host time and the (identical
// every time) result.
func (w *walker) replay(name string, net topology.Network, prm model.Params, src simnet.Source, shards int) (time.Duration, simnet.Result) {
	var res simnet.Result
	d := w.timeCalls(name, func() {
		sim := simnet.New(net, prm)
		sim.SetReplayShards(shards)
		res = must(sim.RunSource(src))
	})
	return d, res
}

func (w *walker) simnet(sh shapes, prm model.Params, wireModelErr float64) {
	compile := func(spec string, part partition.Partition) (topology.Network, *exchange.CompiledPlan) {
		net := must(topology.ParseSpec(spec))
		return net, must(exchange.NewPlanOn(net, 40, part)).Compile()
	}
	perMsg := func(d time.Duration, res simnet.Result) float64 { return float64(d) / float64(res.Messages) }

	cube, cubeSrc := compile(sh.cube, sh.cubePart)
	d, res := w.replay("simnet.xor_ns_per_msg", cube, prm, cubeSrc, 1)
	w.ms.set("simnet.xor_ns_per_msg", perMsg(d, res), "ns")
	allocs, bytes := allocsPer(1, func() { must(simnet.New(cube, prm).RunSource(cubeSrc)) })
	w.ms.set("simnet.xor_allocs_per_run", allocs, "count")
	w.ms.set("simnet.xor_mb_per_run", bytes/(1<<20), "MB")
	// Simulated time against the closed-form model, on the healthy
	// hypercube where the paper's schedules are contention-free.
	predicted, _, err := prm.MultiphaseOn(cube, 40, sh.cubePart)
	check(err)
	w.ms.set("simnet.model_err_max", max(wireModelErr, relDiff(res.Makespan, predicted)), "ratio")

	grid, gridSrc := compile(sh.grid, sh.gridPart)
	d, res = w.replay("simnet.cyclic_ns_per_msg", grid, prm, gridSrc, 1)
	w.ms.set("simnet.cyclic_ns_per_msg", perMsg(d, res), "ns")
	// Simulated statistics: a change to the simulator's speed must leave
	// these identical.
	w.ms.set("simnet.cyclic_stall_us", res.ContentionStall, "sim_us") // simulated, not host, microseconds
	w.ms.set("simnet.cyclic_max_edge_queue", float64(res.MaxEdgeQueue), "count")

	degraded, degradedSrc := compile(sh.cubeDegraded, sh.cubeDegradedPart)
	d, res = w.replay("simnet.degraded_ns_per_msg", degraded, prm, degradedSrc, 1)
	w.ms.set("simnet.degraded_ns_per_msg", perMsg(d, res), "ns")

	fragNet := must(topology.ParseSpec(sh.cubeFrag))
	frag := must(exchange.NewPlanOn(fragNet, 40, sh.cubeFragPart)).CompilePhase(0)
	serial, _ := w.replay("simnet.shard_speedup serial", fragNet, prm, frag, 1)
	sharded, res := w.replay("simnet.shard_speedup sharded", fragNet, prm, frag, runtime.NumCPU())
	w.ms.set("simnet.shard_speedup", ratio(float64(serial), float64(sharded)), "ratio")
	w.ms.set("simnet.shards_used", float64(res.ReplayShards), "count")
}

// freshOptimizer builds a new optimizer, so nothing is answered from its
// cache, with one worker, so its enumeration counts are exact.
func freshOptimizer(build func(model.Params) *optimize.Optimizer, prm model.Params) *optimize.Optimizer {
	o := build(prm)
	o.SetWorkers(1)
	return o
}

func (w *walker) optimize(sh shapes, prm model.Params) {
	big := must(topology.ParseSpec(sh.cubeBig))
	w.ms.set("optimize.best_analytic_us", micros(w.timeCalls("optimize.best_analytic_us", func() {
		must(freshOptimizer(optimize.New, prm).BestOn(big, 40))
	})), "us")

	sim := must(topology.ParseSpec(sh.cubeSim))
	w.ms.set("optimize.best_simulated_ms", millis(w.timeCalls("optimize.best_simulated_ms", func() {
		must(freshOptimizer(optimize.NewSimulated, prm).BestOn(sim, 4))
	})), "ms")
	table := must(topology.ParseSpec(sh.cubeTable))
	var stats optimize.Stats
	w.ms.set("optimize.table_simulated_ms", millis(w.timeCalls("optimize.table_simulated_ms", func() {
		o := freshOptimizer(optimize.NewSimulated, prm)
		must(o.BuildTableOnCtx(w.ctx, table, 0, sh.simTableHi, sh.simTableStep))
		stats = o.Stats()
	})), "ms")
	w.ms.set("optimize.evaluated", float64(stats.Evaluated), "count")
	w.ms.set("optimize.pruned", float64(stats.Pruned), "count")
	w.ms.set("optimize.pruned_share", ratio(float64(stats.Pruned), float64(stats.Evaluated+stats.Pruned)), "ratio")
	w.ms.set("optimize.memo_hits", float64(stats.MemoHits), "count")
	w.ms.set("optimize.memo_misses", float64(stats.MemoMisses), "count")
	w.ms.set("optimize.replays", float64(stats.ReplaysSerial+stats.ReplaysSharded), "count")
}

// plancache returns the cube hit's median nanoseconds, which the service
// walk subtracts from its handler time.
func (w *walker) plancache(sh shapes, prm model.Params) (hitNS float64) {
	const machine = "ipsc860"
	cache := plancache.New(plancache.Config{})
	hit := func(prefix string, net topology.Network) float64 {
		must(cache.GetForCtx(w.ctx, machine, net, 40)) // make the line resident
		i := 0
		get := func() {
			must(cache.GetForCtx(w.ctx, machine, net, (i*37)%500))
			i++
		}
		ns := w.timeBatched(prefix+"_ns", get)
		w.ms.set(prefix+"_ns", ns, "ns")
		allocs, _ := allocsPer(1000, get)
		w.ms.set(prefix+"_allocs", allocs, "count")
		return ns
	}
	cube7 := must(topology.ParseSpec("hypercube-7"))
	hitNS = hit("plancache.hit", cube7)
	hit("plancache.hit_grid", must(topology.ParseSpec("torus-4x4x4")))

	// A cold line's miss, and the optimizer's table build it waits for.
	big := must(topology.ParseSpec(sh.cubeBig))
	miss, table, self := w.timeNested("plancache.miss_analytic_ms", func() {
		cold := plancache.New(plancache.Config{SweepHi: sh.tableHi})
		must(cold.GetForCtx(w.ctx, machine, big, 40))
	}, "optimize.table_analytic_ms", func() {
		must(freshOptimizer(optimize.New, prm).BuildTableOnCtx(w.ctx, big, 0, sh.tableHi, 1))
	})
	w.ms.set("plancache.miss_analytic_ms", millis(miss), "ms")
	w.ms.set("optimize.table_analytic_ms", millis(table), "ms")
	w.ms.set("plancache.self_miss_ms", millis(self), "ms")

	other := plancache.New(plancache.Config{})
	w.ms.set("plancache.export_import_us", micros(w.timeCalls("plancache.export_import_us", func() {
		ld, ok := cache.ExportLine(machine, cube7.Name())
		if !ok {
			check(fmt.Errorf("line %s/%s is not resident", machine, cube7.Name()))
		}
		check(other.ImportLine(ld))
	})), "us")

	// A snapshot the size of serve_hit's warm-up: every machine's line
	// for each dimension.
	full := plancache.New(plancache.Config{})
	for name := range full.Machines() {
		for _, d := range sh.snapshotDims {
			must(full.HullForCtx(w.ctx, name, must(topology.ParseSpec(fmt.Sprintf("hypercube-%d", d)))))
		}
	}
	var snap bytes.Buffer
	w.ms.set("plancache.snapshot_ms", millis(w.timeCalls("plancache.snapshot_ms", func() {
		snap.Reset()
		check(full.Snapshot(&snap))
	})), "ms")
	w.ms.set("plancache.restore_ms", millis(w.timeCalls("plancache.restore_ms", func() {
		_, _, err := plancache.New(plancache.Config{}).Restore(bytes.NewReader(snap.Bytes()))
		check(err)
	})), "ms")
	return hitNS
}

// discardWriter is the cheapest http.ResponseWriter: it keeps the status
// and drops the body, so a handler timed through it is charged nothing
// for a recorder's buffer.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

func (w *walker) service(sh shapes, prm model.Params, hitNS float64) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := must(service.New(service.Config{Cache: plancache.New(plancache.Config{}), Logger: quiet}))
	srv.SetReady(true)
	h := srv.Handler()
	dw := &discardWriter{header: http.Header{}}
	serve := func(r *http.Request) {
		clear(dw.header)
		dw.status = 0
		h.ServeHTTP(dw, r)
		if dw.status != http.StatusOK {
			check(fmt.Errorf("%s %s: status %d", r.Method, r.URL, dw.status))
		}
	}
	// Pre-built GET requests over a spread of block sizes; ServeHTTP
	// does not consume them.
	gets := func(format string) func() {
		reqs := make([]*http.Request, 64)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf(format, (i*37)%500), nil)
		}
		serve(reqs[0]) // make the line resident
		i := 0
		return func() {
			serve(reqs[i%len(reqs)])
			i++
		}
	}
	post := func(path string, body []byte) func() {
		return func() { serve(httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))) }
	}

	planHit := gets("/v1/plan?machine=ipsc860&d=7&m=%d")
	planNS := w.timeBatched("service.plan_hit_ns", planHit)
	w.ms.set("service.plan_hit_ns", planNS, "ns")
	allocs, _ := allocsPer(1000, planHit)
	w.ms.set("service.plan_hit_allocs", allocs, "count")
	w.ms.set("service.self_plan_ns", planNS-hitNS, "ns")
	w.ms.set("service.plan_hit_grid_ns", w.timeBatched("service.plan_hit_grid_ns",
		gets("/v1/plan?machine=ipsc860&topology=torus-4x4x4&m=%d")), "ns")

	var batch bytes.Buffer
	batch.WriteString(`{"queries":[`)
	for i := 0; i < batchSize; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, `{"machine":"ipsc860","d":7,"m":%d}`, (i*37)%500)
	}
	batch.WriteString(`]}`)
	w.ms.set("service.batch16_us", micros(w.timeCalls("service.batch16_us", post("/v1/batch", batch.Bytes()))), "us")

	// One loopback connection against the same handler: what net/http
	// and the socket add to the handler's own time.
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()
	i := 0
	loopback := w.timeCalls("service.loopback_us", func() {
		resp := must(client.Get(fmt.Sprintf("%s/v1/plan?machine=ipsc860&d=7&m=%d", ts.URL, (i*37)%500)))
		i++
		_, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		check(err)
	})
	w.ms.set("service.loopback_us", micros(loopback)-planNS/1e3, "us")

	// /v1/cost, and the same request's inner calls timed separately on
	// the same input; the remainder is the handler's own share.
	costBody := []byte(fmt.Sprintf(`{"machine":"ipsc860","d":%d,"m":40,"partition":%s}`,
		sh.costDim, strings.ReplaceAll(fmt.Sprint([]int(sh.costPart)), " ", ",")))
	net := must(topology.ParseSpec(fmt.Sprintf("hypercube-%d", sh.costDim)))
	cost, _, self := w.timeNested("service.cost_d10_ms", post("/v1/cost", costBody),
		"service.cost_d10_ms plan+compile+replay", func() {
			compiled := must(exchange.NewPlanOn(net, 40, sh.costPart)).Compile()
			must(simnet.New(net, prm).RunSource(compiled))
		})
	w.ms.set("service.cost_d10_ms", millis(cost), "ms")
	w.ms.set("service.self_cost_ms", millis(self), "ms")

	metrics := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w.ms.set("service.metrics_json_us", micros(w.timeCalls("service.metrics_json_us", func() { serve(metrics) })), "us")
	prom := httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil)
	w.ms.set("service.metrics_prom_us", micros(w.timeCalls("service.metrics_prom_us", func() { serve(prom) })), "us")
}

func (w *walker) obs() {
	tracer := obs.NewTracer(0)
	// The spans of one cache-hit request: root, cache, and one more.
	trace3 := func() {
		ctx, root := tracer.StartRequest(w.ctx, "0123456789abcdef", "/v1/plan")
		obs.StartSpan(ctx, "cache").End()
		obs.StartSpan(ctx, "answer").End()
		root.End()
	}
	w.ms.set("obs.trace3_ns", w.timeBatched("obs.trace3_ns", trace3), "ns")
	allocs, _ := allocsPer(1000, trace3)
	w.ms.set("obs.trace3_allocs", allocs, "count")
	w.ms.set("obs.request_id_ns", w.timeBatched("obs.request_id_ns", func() { obs.NewRequestID() }), "ns")
	var hist obs.Histogram
	i := int64(0)
	w.ms.set("obs.hist_observe_ns", w.timeBatched("obs.hist_observe_ns", func() {
		hist.Observe(i % 5000)
		i++
	}), "ns")
}

func (w *walker) cluster() {
	const machine = "ipsc860"
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	// An in-process peer that holds every line the fetch may ask for.
	peerCache := plancache.New(plancache.Config{})
	peerSrv := must(service.New(service.Config{Cache: peerCache, Logger: quiet}))
	peer := httptest.NewServer(peerSrv.Handler())
	defer peer.Close()
	const self = "http://127.0.0.1:1" // never dialled: only the peer is fetched from
	cl := must(cluster.New(cluster.Config{Self: self, Peers: []string{peer.URL}, Logger: quiet}))

	ring := must(cluster.NewRing([]string{self, peer.URL, "http://127.0.0.1:2"}, 0))
	key := cluster.LineKey(machine, "hypercube-7")
	w.ms.set("cluster.ring_owner_ns", w.timeBatched("cluster.ring_owner_ns", func() { ring.Owner(key) }), "ns")

	// The first small cube whose line the peer, not self, owns.
	var topo string
	for d := 5; d <= 20 && topo == ""; d++ {
		if name := fmt.Sprintf("hypercube-%d", d); cl.Owner(machine, name) != self {
			topo = name
			must(peerCache.HullForCtx(w.ctx, machine, must(topology.ParseSpec(name))))
		}
	}
	if topo == "" {
		check(fmt.Errorf("the peer owns no line among hypercube-5..20"))
	}
	w.ms.set("cluster.fetch_line_us", micros(w.timeCalls("cluster.fetch_line_us", func() {
		if ld := must(cl.FetchLine(w.ctx, machine, topo)); ld == nil {
			check(fmt.Errorf("FetchLine declined %s/%s", machine, topo))
		}
	})), "us")
}
