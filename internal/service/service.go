// Package service exposes the plan cache as an HTTP JSON API — the
// serving tier that turns the paper's "compute once, store for repeated
// future use" artifact (§6) into a queryable product:
//
//	GET  /v1/plan?machine=ipsc860&d=7&m=40   best partition + cost breakdown
//	POST /v1/cost                            cost an explicit partition
//	                                         (analytic + compiled-trace simulation)
//	GET  /v1/hull?machine=ipsc860&d=7        the hull-of-optimality table
//	POST /v1/batch                           many plan queries, one round trip
//	GET  /healthz                            liveness
//	GET  /metrics                            cache + per-endpoint latency counters
//
// Request validation maps to proper status codes (400 for bad input with
// the valid machine set listed, 405 for wrong methods, 413 for oversized
// batches); all responses are JSON. The handler is stateless beyond the
// shared plancache.Cache and its counters, so it is safe behind any
// number of listeners.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/plancache"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Config parameterizes a Server. Only Cache is required.
type Config struct {
	// Cache is the shared plan cache (required).
	Cache *plancache.Cache
	// DefaultMachine answers requests that omit ?machine= (default
	// "ipsc860").
	DefaultMachine string
	// CostMaxDim bounds the dimension /v1/cost will simulate (default
	// 12). The compiled-trace replay is fast, but its event count grows
	// like 4^d; a serving tier must refuse work that large per request.
	CostMaxDim int
	// PlanMaxDim bounds the dimension /v1/plan, /v1/hull and /v1/batch
	// accept (default 20, the optimizer's own limit). A daemon whose
	// cache costs hull sweeps by simulation must set this near
	// CostMaxDim: one cache miss runs a full sweep of BestOn calls, each
	// hundreds of times the work of a single /v1/cost.
	PlanMaxDim int
	// Logger receives fault-state transitions and recovered handler
	// panics (default slog.Default()).
	Logger *slog.Logger
	// Tracer records per-request span trees served at /debug/traces and
	// the per-stage latency histograms on /metrics. Nil gets a default
	// ring of obs.DefaultTraceCapacity traces — tracing is cheap enough
	// to always be on.
	Tracer *obs.Tracer
	// Cluster, when non-nil, is the peer layer this replica belongs to:
	// /metrics and /readyz surface each peer's breaker state, and
	// accepted /v1/faults updates are forwarded to every peer whose
	// breaker admits them. Nil means a standalone daemon — every
	// clustered behaviour is off and the server is exactly the
	// pre-cluster pland.
	Cluster *cluster.Cluster
}

func (c Config) withDefaults() Config {
	if c.DefaultMachine == "" {
		c.DefaultMachine = "ipsc860"
	}
	if c.CostMaxDim <= 0 {
		c.CostMaxDim = 12
	}
	if c.CostMaxDim > optimize.MaxSimulatedDim {
		c.CostMaxDim = optimize.MaxSimulatedDim
	}
	if c.PlanMaxDim <= 0 || c.PlanMaxDim > 20 {
		c.PlanMaxDim = 20 // optimize.BestOn's enumeration bound, 2^20 nodes
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(0)
	}
	return c
}

// endpointStats aggregates one route's counters; the histogram keeps its
// request count, total and maximum latency.
type endpointStats struct {
	errors   atomic.Int64
	inflight atomic.Int64
	hist     obs.Histogram
}

// Server is the HTTP facade over a plan cache.
type Server struct {
	cfg   Config
	cache *plancache.Cache
	start time.Time

	mu    sync.Mutex
	stats map[string]*endpointStats

	// Fault state: per-fabric overlay handles (topology.Resolve's, one per
	// faulted fabric) keyed by base topology name (see faults.go).
	faultMu sync.Mutex
	faults  map[string]*topology.Degraded

	faultUpdates, degradedServes atomic.Int64
	panics                       atomic.Int64
	shed, earlyAborts            atomic.Int64

	// costReplays counts the /v1/cost replays, which no optimizer sees.
	costReplays optimize.ReplayCounter

	// ready gates /readyz: set by the daemon once snapshot restore,
	// warmup, and cluster join (the warm fan-out) are done, so
	// a load balancer never routes to a cold replica.
	ready atomic.Bool
}

// New returns a server over the given configuration.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Cache == nil {
		return nil, fmt.Errorf("service: Config.Cache is required")
	}
	// Resolve through the cache so aliases work and the stored default
	// is the canonical name every response echoes.
	name, _, err := cfg.Cache.Resolve(cfg.DefaultMachine)
	if err != nil {
		return nil, fmt.Errorf("service: default machine: %w", err)
	}
	cfg.DefaultMachine = name
	return &Server{
		cfg:    cfg,
		cache:  cfg.Cache,
		start:  time.Now(),
		stats:  make(map[string]*endpointStats),
		faults: make(map[string]*topology.Degraded),
	}, nil
}

// Handler returns the routed, instrumented handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", s.instrument("/v1/plan", http.MethodGet, s.handlePlan))
	mux.HandleFunc("/v1/cost", s.instrument("/v1/cost", http.MethodPost, s.handleCost))
	mux.HandleFunc("/v1/hull", s.instrument("/v1/hull", http.MethodGet, s.handleHull))
	mux.HandleFunc("/v1/batch", s.instrument("/v1/batch", http.MethodPost, s.handleBatch))
	mux.HandleFunc("/v1/faults", s.instrument("/v1/faults", http.MethodPost, s.handleFaults))
	mux.HandleFunc(cluster.PeerLinePath, s.instrument(cluster.PeerLinePath, http.MethodGet, s.handlePeerLine))
	mux.HandleFunc(cluster.PeerSnapshotPath, s.instrument(cluster.PeerSnapshotPath, http.MethodGet, s.handlePeerSnapshot))
	mux.HandleFunc("/healthz", s.instrument("/healthz", http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/readyz", s.instrument("/readyz", http.MethodGet, s.handleReadyz))
	mux.HandleFunc("/metrics", s.instrument("/metrics", http.MethodGet, s.handleMetrics))
	mux.HandleFunc("/debug/traces", s.instrument("/debug/traces", http.MethodGet, s.handleTraces))
	return mux
}

// SetReady flips the /readyz verdict. The daemon calls it with true
// once restore + warmup + ring join have completed (and with false
// never — a live server stays ready; liveness is /healthz's job).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// instrument wraps a handler with request-ID assignment, tracing,
// method enforcement, panic recovery, and latency accounting.
func (s *Server) instrument(name, method string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	st := s.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		// A client's ID is adopted only if it is short and plain: it is
		// kept in every committed trace and forwarded on every peer hop.
		id := r.Header.Get(obs.RequestIDHeader)
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		// Echo the ID so clients — and the fetching replica on a peer
		// hop — can join their logs to this replica's trace of the same
		// request.
		w.Header().Set(obs.RequestIDHeader, id)
		ctx, root := s.cfg.Tracer.StartRequest(r.Context(), id, name)
		r = r.WithContext(ctx)

		st.inflight.Add(1)
		// A panic that unwinds past recovered (a second panic inside its
		// recovery) still reaches this defer, so the request is counted,
		// its duration recorded, and the in-flight gauge released no
		// matter how the handler dies.
		code := http.StatusInternalServerError
		defer func() {
			st.inflight.Add(-1)
			st.hist.Observe(time.Since(begin).Microseconds())
			if code >= 400 {
				st.errors.Add(1)
			}
			if root != nil {
				root.SetInt("status", int64(code))
				root.End()
			}
		}()
		if r.Method != method {
			w.Header().Set("Allow", method)
			code = http.StatusMethodNotAllowed
			writeError(w, code, fmt.Sprintf("method %s not allowed, use %s", r.Method, method))
			return
		}
		code = s.recovered(h, w, r)
	}
}

// recovered runs one handler with panic recovery: a panicking handler
// costs its request a 500, a panics_total tick, and a stack trace in
// the log — never the whole daemon. If the handler had already written
// its response when it panicked, the late 500 header is a no-op (the
// http package drops it with a log line); the counter still ticks.
func (s *Server) recovered(h func(http.ResponseWriter, *http.Request) int, w http.ResponseWriter, r *http.Request) (code int) {
	defer func() {
		if rec := recover(); rec != nil {
			s.panics.Add(1)
			s.cfg.Logger.Error("panic serving request",
				"method", r.Method, "path", r.URL.Path,
				"request_id", obs.RequestID(r.Context()),
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			code = writeError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	return h(w, r)
}

func (s *Server) endpoint(name string) *endpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stats[name]
	if !ok {
		st = &endpointStats{}
		s.stats[name] = st
	}
	return st
}

// --- wire types ---

type errorResponse struct {
	Error string `json:"error"`
}

type phaseJSON struct {
	SubcubeDim int     `json:"subcube_dim"`
	EffBlock   int     `json:"eff_block"`
	Alg        string  `json:"alg"`
	TimeUS     float64 `json:"time_us"`
}

type segmentJSON struct {
	Partition []int `json:"partition"`
	MinBlock  int   `json:"min_block"`
	MaxBlock  int   `json:"max_block"`
}

// PlanResponse is the /v1/plan wire format. The handler writes it with
// appendPlan (wire.go), which the tests pin to json.Encoder's bytes of
// this struct.
type PlanResponse struct {
	Machine     string      `json:"machine"`
	Topology    string      `json:"topology"`
	D           int         `json:"d"`
	M           int         `json:"m"`
	Partition   []int       `json:"partition"`
	PredictedUS float64     `json:"predicted_us"`
	Phases      []phaseJSON `json:"phases"`
	Segment     segmentJSON `json:"segment"`
	InRange     bool        `json:"in_range"`
	// Health is the fabric's fault digest at answer time ("ok" when
	// healthy). Degraded marks a last-known-good fallback: the fabric's
	// reported faults leave it non-operational (a dead node or a severed
	// live graph), so this is the healthy base's plan, which ignores them,
	// until the faults are restored.
	Health   string `json:"health"`
	Degraded bool   `json:"degraded,omitempty"`
}

func phasesJSON(phases []model.PhaseBreakdown) []phaseJSON {
	out := make([]phaseJSON, len(phases))
	for i, ph := range phases {
		out[i] = phaseJSON{
			SubcubeDim: ph.SubcubeDim,
			EffBlock:   ph.EffBlock,
			Alg:        ph.Alg.String(),
			TimeUS:     ph.Time,
		}
	}
	return out
}

// --- handlers; each returns the HTTP status it wrote ---

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) int {
	machine, topo, m, errCode := s.planQuery(w, r)
	if errCode != 0 {
		return errCode
	}
	p, health, degraded, err := s.planFor(r.Context(), machine, topo, m)
	if err != nil {
		return s.writeCacheError(w, r, err)
	}
	buf := getBuf()
	defer putBuf(buf)
	body, ok := appendPlan(*buf, &p, health, degraded)
	*buf = append(body, '\n')
	return writeBody(w, http.StatusOK, *buf, ok)
}

// resolveTopo turns a request's topology/d pair into the fabric's shared
// handle (topology.Resolve's table: a spec seen before is a map read)
// within a serving bound: an explicit spec wins, otherwise d selects the
// hypercube. maxDim caps the node count at 2^maxDim — a hull build's or a
// replay's cost scales with it — and, for the hypercube path, d itself.
// Handlers pass the returned Network straight to the cache's GetForCtx,
// HullForCtx and WarmForCtx.
func (s *Server) resolveTopo(spec string, d, maxDim int) (topology.Network, error) {
	if spec == "" {
		if d < 0 || d > maxDim {
			return nil, fmt.Errorf("d=%d out of this server's range [0,%d]", d, maxDim)
		}
		return plancache.ResolveHypercube(d)
	}
	net, err := plancache.ResolveTopology(spec)
	if err != nil {
		return nil, err
	}
	if net.Nodes() > 1<<maxDim {
		return nil, fmt.Errorf("topology %s has %d nodes, over this server's bound of %d",
			net.Name(), net.Nodes(), 1<<maxDim)
	}
	return net, nil
}

// resolveTraced is resolveTopo for the single-fabric endpoints: a named
// spec resolves under a "resolve" span that also covers a degraded
// fabric's first derivation (once per process, and tens of milliseconds
// at 1024 nodes; the operational check in plancache.ResolveTopology runs
// it), so the trace of a slow first request books that time here and not
// to whichever replay or build first asks for the diameter. The d-cube
// is an array read and gets no span.
func (s *Server) resolveTraced(ctx context.Context, spec string, d, maxDim int) (topology.Network, error) {
	if spec == "" {
		return s.resolveTopo(spec, d, maxDim)
	}
	sp := obs.StartSpan(ctx, "resolve")
	defer sp.End()
	return s.resolveTopo(spec, d, maxDim)
}

// statusClientClosedRequest is the (nginx-conventional) status recorded
// when a client disconnects before its answer is built: the write never
// reaches anyone, but the counter and access pattern should say "client
// gave up", not "we failed".
const statusClientClosedRequest = 499

// writeCacheError maps a plancache error to a status: an overloaded
// shed is 503 with Retry-After (come back when a build slot frees), a
// request whose own context ended is 499, build failures are
// server-side (500), everything else is request validation (400).
func (s *Server) writeCacheError(w http.ResponseWriter, r *http.Request, err error) int {
	switch {
	case errors.Is(err, plancache.ErrOverloaded):
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		return writeError(w, http.StatusServiceUnavailable, err.Error())
	case r.Context().Err() != nil && errors.Is(err, r.Context().Err()):
		s.earlyAborts.Add(1)
		return writeError(w, statusClientClosedRequest, "client closed request: "+err.Error())
	}
	var be *plancache.BuildError
	if errors.As(err, &be) {
		return writeError(w, http.StatusInternalServerError, err.Error())
	}
	return writeError(w, http.StatusBadRequest, err.Error())
}

// planQuery parses machine/topology/d/m from the URL query; on failure
// it writes the error response and returns its code (0 on success).
func (s *Server) planQuery(w http.ResponseWriter, r *http.Request) (machine string, topo topology.Network, m, errCode int) {
	q := r.URL.Query()
	machine = q.Get("machine")
	if machine == "" {
		machine = s.cfg.DefaultMachine
	}
	topo, err := s.queryTopo(r.Context(), q)
	if err != nil {
		return "", nil, 0, writeError(w, http.StatusBadRequest, err.Error())
	}
	m, err = queryInt(q.Get("m"), "m")
	if err != nil {
		return "", nil, 0, writeError(w, http.StatusBadRequest, err.Error())
	}
	return machine, topo, m, 0
}

// queryTopo resolves the topology/d pair of a URL query within the
// plan-serving bound.
func (s *Server) queryTopo(ctx context.Context, q url.Values) (topology.Network, error) {
	spec, d := q.Get("topology"), 0
	if spec == "" {
		if q.Get("d") == "" {
			return nil, fmt.Errorf("missing required parameter %q (or %q)", "d", "topology")
		}
		var err error
		if d, err = queryInt(q.Get("d"), "d"); err != nil {
			return nil, err
		}
	}
	return s.resolveTraced(ctx, spec, d, s.cfg.PlanMaxDim)
}

func queryInt(raw, name string) (int, error) {
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %q is not an integer", name, raw)
	}
	return v, nil
}

// CostRequest is the /v1/cost wire format. Topology names a registry
// spec ("torus-4x4x4"); when empty, D selects the hypercube.
type CostRequest struct {
	Machine   string `json:"machine"`
	Topology  string `json:"topology"`
	D         int    `json:"d"`
	M         int    `json:"m"`
	Partition []int  `json:"partition"`
}

// CostResponse reports both cost views of one explicit partition: the
// closed-form prediction and the compiled-trace discrete-event replay.
type CostResponse struct {
	Machine         string      `json:"machine"`
	Topology        string      `json:"topology"`
	D               int         `json:"d"`
	M               int         `json:"m"`
	Partition       []int       `json:"partition"`
	PredictedUS     float64     `json:"predicted_us"`
	SimulatedUS     float64     `json:"simulated_us"`
	ContentionStall float64     `json:"contention_stall_us"`
	Phases          []phaseJSON `json:"phases"`
	// Health is the fabric's fault digest at answer time ("ok" when
	// healthy); both cost views account for the faults.
	Health string `json:"health"`
}

func (s *Server) handleCost(w http.ResponseWriter, r *http.Request) int {
	var req CostRequest
	if code := decodeBody(w, r, &req); code != 0 {
		return code
	}
	if req.Machine == "" {
		req.Machine = s.cfg.DefaultMachine
	}
	machine, prm, err := s.cache.Resolve(req.Machine)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	req.Machine = machine
	topo, err := s.resolveTraced(r.Context(), req.Topology, req.D, s.cfg.CostMaxDim)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	net, health := s.applyFaults(topo)
	D := partition.Partition(req.Partition)
	plan, err := exchange.NewPlanOn(net, req.M, D)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	costNet := simnet.New(net, prm)
	costNet.SetEdgeQueue(false) // CostResponse carries no MaxEdgeQueue
	res, err := s.costReplays.Traced(r.Context(), "cost", plan, math.Inf(1), func() (simnet.Result, error) { return plan.Cost(costNet) })
	if err != nil {
		return writeError(w, http.StatusInternalServerError, err.Error())
	}
	pred, phases, err := prm.MultiphaseOn(net, req.M, D)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	return writeJSON(w, http.StatusOK, CostResponse{
		Machine:         req.Machine,
		Topology:        net.Name(),
		D:               net.NumDims(),
		M:               req.M,
		Partition:       append([]int{}, D...),
		PredictedUS:     pred,
		SimulatedUS:     res.Makespan,
		ContentionStall: res.ContentionStall,
		Phases:          phasesJSON(phases),
		Health:          health,
	})
}

// HullResponse is the /v1/hull wire format.
type HullResponse struct {
	Machine  string        `json:"machine"`
	Topology string        `json:"topology"`
	D        int           `json:"d"`
	Segments []segmentJSON `json:"segments"`
	// Health is the fabric's fault digest at answer time ("ok" when
	// healthy); the hull was enumerated on the degraded fabric when set.
	Health string `json:"health"`
}

func (s *Server) handleHull(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	machine := q.Get("machine")
	if machine == "" {
		machine = s.cfg.DefaultMachine
	}
	name, _, err := s.cache.Resolve(machine)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	topo, err := s.queryTopo(r.Context(), q)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	net, health := s.applyFaults(topo)
	tbl, err := s.cache.HullForCtx(r.Context(), name, net)
	if err != nil {
		return s.writeCacheError(w, r, err)
	}
	resp := HullResponse{Machine: name, Topology: tbl.Topo, D: tbl.D, Health: health}
	for _, seg := range tbl.Segments {
		resp.Segments = append(resp.Segments, segmentJSON{
			Partition: append([]int{}, seg.Part...),
			MinBlock:  seg.MinBlock,
			MaxBlock:  seg.MaxBlock,
		})
	}
	return writeJSON(w, http.StatusOK, resp)
}

// BatchRequest is the /v1/batch wire format: a slice of plan queries.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchQuery is one (machine, topology, m) plan query; an empty
// Topology selects the D-cube.
type BatchQuery struct {
	Machine  string `json:"machine"`
	Topology string `json:"topology"`
	D        int    `json:"d"`
	M        int    `json:"m"`
}

// BatchItem is one batch result: a plan or a per-query error, never
// both. A bad query does not fail its siblings.
type BatchItem struct {
	Plan  *PlanResponse `json:"plan,omitempty"`
	Error string        `json:"error,omitempty"`
}

// BatchResponse carries the results in query order. Like PlanResponse
// it is written by an append encoder (appendBatch) pinned to it.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// maxBatch bounds the query count of one /v1/batch call; a larger batch
// gets 413.
const maxBatch = 4096

// handleBatch fans the queries across GOMAXPROCS workers; results
// come back in request order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var req BatchRequest
	if code := decodeBatch(w, r, &req); code != 0 {
		return code
	}
	if len(req.Queries) > maxBatch {
		return writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d queries exceeds the limit of %d", len(req.Queries), maxBatch))
	}
	results := make([]batchResult, len(req.Queries))
	workers := min(runtime.GOMAXPROCS(0), len(req.Queries))
	ctx := r.Context()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(results) {
					return
				}
				// A disconnected client stops the fan-out: remaining
				// queries are marked cancelled, not computed.
				if err := ctx.Err(); err != nil {
					results[i].err = "request cancelled: " + err.Error()
					continue
				}
				qy := req.Queries[i]
				machine := qy.Machine
				if machine == "" {
					machine = s.cfg.DefaultMachine
				}
				topo, err := s.resolveTopo(qy.Topology, qy.D, s.cfg.PlanMaxDim)
				if err != nil {
					results[i].err = err.Error()
					continue
				}
				p, health, degraded, err := s.planFor(ctx, machine, topo, qy.M)
				if err != nil {
					if errors.Is(err, plancache.ErrOverloaded) {
						s.shed.Add(1)
					}
					results[i].err = err.Error()
					continue
				}
				results[i] = batchResult{plan: p, health: health, degraded: degraded, planned: true}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		s.earlyAborts.Add(1)
		return writeError(w, statusClientClosedRequest, "client closed request: "+err.Error())
	}
	buf := getBuf()
	defer putBuf(buf)
	body, ok := appendBatch(*buf, results)
	*buf = append(body, '\n')
	return writeBody(w, http.StatusOK, *buf, ok)
}

// HealthResponse is the /healthz wire format.
type HealthResponse struct {
	Status   string   `json:"status"`
	UptimeS  float64  `json:"uptime_s"`
	Machines []string `json:"machines"`
	// DegradedFabrics lists topologies currently carrying fault state.
	DegradedFabrics []string `json:"degraded_fabrics,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	machines := s.cache.Machines()
	names := make([]string, 0, len(machines))
	for name := range machines {
		names = append(names, name)
	}
	sort.Strings(names)
	return writeJSON(w, http.StatusOK, HealthResponse{
		Status:          "ok",
		UptimeS:         time.Since(s.start).Seconds(),
		Machines:        names,
		DegradedFabrics: s.FaultTopologies(),
	})
}

// EndpointMetrics is one route's request accounting, all but Errors and
// Inflight read from the route's latency histogram. The quantiles are
// estimates bounded by their log bucket (and exact at the observed max).
type EndpointMetrics struct {
	Count    int64            `json:"count" prom:"pland_http_requests_total,counter" help:"Requests served per endpoint."`
	Errors   int64            `json:"errors" prom:"pland_http_request_errors_total,counter" help:"Requests answered with status >= 400 per endpoint."`
	TotalUS  int64            `json:"total_us" prom:"-"`
	MeanUS   float64          `json:"mean_us" prom:"-"`
	MaxUS    int64            `json:"max_us" prom:"-"`
	P50US    float64          `json:"p50_us" prom:"-"`
	P90US    float64          `json:"p90_us" prom:"-"`
	P99US    float64          `json:"p99_us" prom:"-"`
	Inflight int64            `json:"inflight" prom:"pland_http_inflight,gauge" help:"Requests being served right now per endpoint."`
	Latency  obs.HistSnapshot `json:"-" prom:"pland_http_request_duration_us,histogram" help:"Request latency per endpoint in microseconds."`
}

// MetricsResponse is the /metrics snapshot, taken once per scrape with
// each source read once. Its json tags shape the JSON document and its
// prom tags the Prometheus exposition (obs.WriteProm), so adding a metric
// is adding one tagged field.
type MetricsResponse struct {
	Cache plancache.Stats `json:"cache"`
	// Optimizer's replay counters reach the Prometheus form through
	// Replay, which adds the /v1/cost replays to them.
	Optimizer optimize.Stats `json:"optimizer"`
	// Replay says how simnet priced the phases of every replay this
	// daemon ran, the optimizers' and /v1/cost's together.
	Replay ReplayMetrics `json:"replay"`
	// Topology is the process-wide fabric handle table.
	Topology    topology.TableStats `json:"topology"`
	Faults      FaultMetrics        `json:"faults"`
	Panics      int64               `json:"panics_total" prom:"pland_panics_total,counter" help:"Recovered handler panics."`
	Shed        int64               `json:"shed_total" prom:"pland_shed_total,counter" help:"Requests refused with 503 for build overload."`
	EarlyAborts int64               `json:"early_aborts_total" prom:"pland_early_aborts_total,counter" help:"Requests whose client disconnected first."`
	// TracesCommitted is /debug/traces' committed_total; the JSON form
	// predates it and leaves it there.
	TracesCommitted int64 `json:"-" prom:"pland_traces_committed_total,counter" help:"Request traces committed to the debug ring."`
	// Cluster is absent on a standalone daemon, so the standalone wire
	// format is unchanged.
	Cluster   *cluster.Metrics           `json:"cluster,omitempty"`
	Endpoints map[string]EndpointMetrics `json:"endpoints" prom:"endpoint"`
	// Stages are the trace spans' per-stage latency histograms, absent
	// until a traced request exercises a stage. The JSON form drops their
	// buckets to keep the document compact.
	Stages map[string]obs.HistSnapshot `json:"stages,omitempty" prom:"pland_stage_duration_us,histogram,stage" help:"Traced stage latency in microseconds."`
}

// ReplayMetrics counts replayed phases by how they were priced — in
// closed form under a lockstep certificate, or on the event engine — the
// certificate passes run, per replay with an engine-run phase, why its
// first such phase was declined, and the replays an optimizer abandoned
// at their cutoff.
type ReplayMetrics struct {
	PhasesClosedForm int64            `json:"phases_closed_form" prom:"pland_replay_phases_total,counter,mode=closed_form" help:"Replayed phases by pricing mode: closed form under a lockstep certificate, or the event engine."`
	PhasesEngine     int64            `json:"phases_engine" prom:"pland_replay_phases_total,counter,mode=engine" help:"Replayed phases by pricing mode: closed form under a lockstep certificate, or the event engine."`
	Certificates     int64            `json:"certificates" prom:"pland_replay_certificates_total,counter" help:"Phase certificate passes run (at most one per topology and phase field)."`
	Aborted          int64            `json:"aborted" prom:"pland_replay_aborted_total,counter" help:"Replays abandoned at their cutoff: the candidate was proven to lose before its replay finished."`
	Declines         map[string]int64 `json:"declines,omitempty" prom:"pland_replay_declines_total,counter,reason" help:"Replays with an engine-run phase, by why the first such phase was not priced in closed form."`
}

// metrics takes the snapshot both /metrics forms render.
func (s *Server) metrics() MetricsResponse {
	opt := s.cache.OptimizerStats()
	var all optimize.Stats
	all.Add(opt)
	s.costReplays.AddTo(&all)
	m := MetricsResponse{
		Cache:     s.cache.Stats(),
		Optimizer: opt,
		Replay: ReplayMetrics{
			PhasesClosedForm: all.PhasesClosedForm,
			PhasesEngine:     all.PhasesEngine,
			Certificates:     all.Certificates,
			Aborted:          all.ReplaysAborted,
			Declines:         all.Declines,
		},
		Topology:        topology.ResolveStats(),
		Faults:          s.faultMetrics(),
		Panics:          s.panics.Load(),
		Shed:            s.shed.Load(),
		EarlyAborts:     s.earlyAborts.Load(),
		TracesCommitted: s.cfg.Tracer.Committed(),
		Endpoints:       make(map[string]EndpointMetrics),
		Stages:          s.cfg.Tracer.StageStats(),
	}
	if s.cfg.Cluster != nil {
		cm := s.cfg.Cluster.Metrics()
		m.Cluster = &cm
	}
	s.mu.Lock()
	for name, st := range s.stats {
		m.Endpoints[name] = st.metrics()
	}
	s.mu.Unlock()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	m := s.metrics()
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		// The status is sent: a write error means the scraper left, and a
		// declaration error is a bug TestEveryMetricDeclared catches.
		_ = obs.WriteProm(w, &m)
		return http.StatusOK
	}
	for name, snap := range m.Stages {
		snap.Buckets = nil
		m.Stages[name] = snap
	}
	return writeJSON(w, http.StatusOK, m)
}

func (st *endpointStats) metrics() EndpointMetrics {
	snap := st.hist.Snapshot()
	m := EndpointMetrics{
		Count:    snap.Count,
		Errors:   st.errors.Load(),
		TotalUS:  snap.SumUS,
		MaxUS:    snap.MaxUS,
		P50US:    snap.P50US,
		P90US:    snap.P90US,
		P99US:    snap.P99US,
		Inflight: st.inflight.Load(),
		Latency:  snap,
	}
	if m.Count > 0 {
		m.MeanUS = float64(m.TotalUS) / float64(m.Count)
	}
	return m
}

// TracesResponse is the /debug/traces wire format.
type TracesResponse struct {
	// Committed counts traces committed since boot; the ring retains only
	// the most recent ones.
	Committed int64           `json:"committed_total"`
	Traces    []obs.TraceData `json:"traces"`
}

// handleTraces serves recent request traces: ?id= filters by request ID,
// ?limit= bounds the count, and ?format=chrome renders the Chrome
// trace_event JSON that chrome://tracing and Perfetto open directly.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		v, err := queryInt(raw, "limit")
		if err != nil {
			return writeError(w, http.StatusBadRequest, err.Error())
		}
		limit = v
	}
	var traces []obs.TraceData
	if id := q.Get("id"); id != "" {
		traces = s.cfg.Tracer.Find(id)
	} else {
		traces = s.cfg.Tracer.Snapshot(limit)
	}
	if q.Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = obs.WriteChromeTrace(w, obs.ChromeEvents(traces))
		return http.StatusOK
	}
	if traces == nil {
		traces = []obs.TraceData{}
	}
	return writeJSON(w, http.StatusOK, TracesResponse{
		Committed: s.cfg.Tracer.Committed(),
		Traces:    traces,
	})
}

// maxBodyBytes bounds a POST body: the size cap is enforced while
// reading, before any per-query work, so an oversized /v1/batch cannot
// allocate its way past maxBatch.
const maxBodyBytes = 1 << 20

// decodeBody JSON-decodes a size-limited request body; on failure it
// writes the error response and returns its status code (0 on success).
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) int {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	return decodeReader(w, r.Body, v)
}

// decodeReader is decodeBody's decoding of an already size-limited body.
func decodeReader(w http.ResponseWriter, body io.Reader, v interface{}) int {
	dec := json.NewDecoder(body)
	err := dec.Decode(v)
	if err == nil {
		// The body is one JSON value; only EOF may follow it.
		if _, err = dec.Token(); err == io.EOF {
			return 0
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	}
	return writeError(w, http.StatusBadRequest, "decoding request body: "+err.Error())
}

// --- response plumbing ---

func writeJSON(w http.ResponseWriter, code int, v interface{}) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
	return code
}

func writeError(w http.ResponseWriter, code int, msg string) int {
	return writeJSON(w, code, errorResponse{Error: msg})
}
