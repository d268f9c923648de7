// Package plancache is a sharded, concurrency-safe cache of optimal
// exchange plans keyed by (machine, topology, block size) — the serving
// tier the paper's §6 observation calls for: the partition enumeration
// "needs to be done only once and the optimal combination stored for
// repeated future use".
//
// The cache does not store one entry per block size. A cache line holds
// the hull-of-optimality table for one (machine, topology) pair — built
// once via optimize.BuildTableOnCtx: on the analytic backend the lower
// envelope of the candidates' cost lines, microseconds of work that leave
// nothing behind in the optimizer; on the simulated backend a replayed
// sweep of the block sizes — and every block size resolves through
// Table.LookupSegment to one of its O(hull) segments, so millions of
// distinct m values collapse onto a handful of cached partitions. The
// per-request cost for a resident line is a binary search plus the
// closed-form time for the exact m asked.
//
// Concurrency: lines live in fixed shards (mutex + LRU list each); a
// missing line is built exactly once per cache — concurrent requests for
// the same (machine, topology) wait on a single in-flight fill. A cheap
// fill, an analytic build on a healthy fabric, runs on the goroutine of
// the request that missed; any other fill (a replayed or faulted line,
// which may first be fetched from a peer) runs detached in a goroutine of
// its own.
// Capacity is bounded per shard with least-recently-used eviction, and
// hit/miss/evict/inflight counters expose the cache's behaviour to the
// service layer's /metrics.
//
// Snapshot/Restore serialize resident lines as JSON, tagged with the
// machine parameters they were computed for, so a restarted daemon
// answers from a warm cache without re-running a single enumeration.
package plancache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/topology"
)

// DefaultSweepHi is the upper block-size bound of the hull a line is
// built over. Queries above it clamp to the last hull segment, which
// for every machine in the registry has converged to the asymptotically
// optimal partition well before this bound.
const DefaultSweepHi = 512

// Config parameterizes a Cache. The zero value is usable: all machines
// from model.Machines, 8 shards of 64 lines, analytic costing, a
// [0, DefaultSweepHi] step-1 sweep.
type Config struct {
	// Machines is the name → parameters registry requests resolve
	// against. Nil means model.Machines().
	Machines map[string]model.Params
	// Shards is the number of independent lock domains (default 8).
	Shards int
	// CapacityPerShard bounds resident lines per shard; the least
	// recently used line is evicted beyond it (default 64).
	CapacityPerShard int
	// SweepHi and SweepStep control the hull sweep a line is built over:
	// block sizes [0, SweepHi] in steps of SweepStep (defaults
	// DefaultSweepHi and 1). Step 1 makes a resident line's answer exact
	// for every in-range m, not just the swept grid.
	SweepHi   int
	SweepStep int
	// NewOptimizer builds the per-machine optimizer (default
	// optimize.New, the analytic backend).
	NewOptimizer func(model.Params) *optimize.Optimizer
	// Fetch, when non-nil, is consulted inside the per-key singleflight
	// before a missing line is built locally — the cluster peer-fetch
	// hook — for the lines whose build costs more than the hop: those of
	// a simulated-backend optimizer and those of a faulted fabric
	// (topology.HealthDigestOf ≠ "ok"). A healthy analytic line is always
	// built locally, in microseconds, on the goroutine of the request that
	// missed, so the hook is only ever called from a detached fill's
	// goroutine. The hook may return (nil, nil) to
	// decline (this replica owns the key, or no peers are configured), a
	// validated-importable LineData on success, or an error after its own
	// deadline/retry budget; any error or invalid payload falls back to
	// the local build, so a dead or slow peer can never fail a request,
	// only make it cost a build.
	Fetch func(ctx context.Context, machine, topo string) (*LineData, error)
	// MaxConcurrentBuilds bounds how many local hull builds may run at
	// once. Beyond the bound a miss is shed with ErrOverloaded instead
	// of queueing unboundedly (the service layer maps it to 503 +
	// Retry-After). Zero means unbounded — the pre-cluster behaviour.
	MaxConcurrentBuilds int
}

func (c Config) withDefaults() Config {
	if c.Machines == nil {
		c.Machines = model.Machines()
	} else {
		// Snapshot the caller's map: the cache reads it unlocked from
		// every shard, so later caller mutation must not be visible.
		reg := make(map[string]model.Params, len(c.Machines))
		for name, p := range c.Machines {
			reg[name] = p
		}
		c.Machines = reg
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.CapacityPerShard <= 0 {
		c.CapacityPerShard = 64
	}
	if c.SweepHi <= 0 {
		c.SweepHi = DefaultSweepHi
	}
	if c.SweepStep <= 0 {
		c.SweepStep = 1
	}
	if c.NewOptimizer == nil {
		c.NewOptimizer = optimize.New
	}
	return c
}

// Plan is one served answer: the optimal partition for (Machine,
// Topology, Block) together with its modeled time and per-phase
// breakdown, plus the hull segment the block size resolved through.
type Plan struct {
	Machine string
	// Topo is the topology registry name the plan answers for; D is its
	// dimension count (the cube dimension on a hypercube).
	Topo      string
	D         int
	Block     int
	Part      partition.Partition
	TimeMicro float64
	Phases    []model.PhaseBreakdown
	// SegMin and SegMax bound the hull segment that answered: every
	// block size in [SegMin, SegMax] shares this partition.
	SegMin, SegMax int
	// InRange reports whether Block lay inside the answering segment;
	// false means the nearest segment answered — for blocks outside the
	// line's sweep (the clamping extrapolation, exact beyond the hull's
	// convergence) or, on a coarse-step sweep (SweepStep > 1), for
	// blocks falling in a gap between swept grid points.
	InRange bool
}

// Stats is a point-in-time counter snapshot. The JSON names and prom
// families are part of the service's /metrics wire formats.
type Stats struct {
	Hits      int64 `json:"hits" prom:"pland_cache_hits_total,counter" help:"Requests answered from a resident plan line."`
	Misses    int64 `json:"misses" prom:"pland_cache_misses_total,counter" help:"Requests that built or waited for a plan line."`
	Evictions int64 `json:"evictions" prom:"pland_cache_evictions_total,counter" help:"Plan lines dropped by the per-shard LRU bound."`
	Inflight  int64 `json:"inflight" prom:"pland_cache_inflight_builds,gauge" help:"Line builds running right now."`
	// Builds leaves restores out.
	Builds int64 `json:"builds" prom:"pland_cache_builds_total,counter" help:"Completed local line builds."`
	// PeerImports counts lines the Fetch hook supplied.
	PeerImports int64 `json:"peer_imports" prom:"pland_cache_peer_imports_total,counter" help:"Misses filled by importing a peer's line."`
	// Shed counts misses refused with ErrOverloaded.
	Shed     int64 `json:"shed" prom:"pland_cache_shed_total,counter" help:"Misses refused because the build bound was reached."`
	Lines    int   `json:"lines" prom:"pland_cache_lines,gauge" help:"Resident plan lines."`
	Segments int   `json:"segments" prom:"pland_cache_segments,gauge" help:"Resident hull segments."`
}

// lineKey identifies one cache line: the machine's parameter set and the
// network shape the hull was enumerated for.
type lineKey struct {
	machine string
	topo    string
}

// line is one resident hull table, swept over the cache's configured
// block sizes.
type line struct {
	key   lineKey
	net   topology.Network
	table optimize.Table
}

// flight is one in-progress line fill (peer fetch, then local build);
// latecomers join it and wait on done. The fill runs under its own
// context, detached from every request's cancellation. A cheap fill runs
// on its initiator's goroutine, which waits the build out: an analytic
// build has no checkpoint once started, and a goroutine of its own would
// run it to completion all the same. Any other fill runs in its own
// goroutine: a waiter whose request context ends departs immediately
// without disturbing the others, and only when the LAST waiter departs is
// the fill's context cancelled — so one disconnected client aborts
// nothing for anyone else, a fully abandoned fill stops at its next
// checkpoint, and a fill that completes anyway still inserts its line
// for future callers.
type flight struct {
	done    chan struct{}
	line    *line
	err     error
	built   bool // a local build ran (as opposed to a peer import)
	waiters atomic.Int64
	cancel  context.CancelFunc
}

type shard struct {
	mu     sync.Mutex
	lines  map[lineKey]*list.Element // value: *line
	lru    *list.List                // front = most recent
	flight map[lineKey]*flight
}

// Cache is the sharded plan cache. Safe for concurrent use.
type Cache struct {
	cfg    Config
	shards []*shard

	// buildSem bounds concurrent local hull builds (nil = unbounded).
	buildSem chan struct{}

	optMu sync.Mutex
	opts  map[string]*optimize.Optimizer

	hits, misses, evictions, inflight, builds atomic.Int64
	peerImports, shed                         atomic.Int64
}

// New returns a cache with the given configuration (zero value ok).
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{cfg: cfg, opts: make(map[string]*optimize.Optimizer)}
	if cfg.MaxConcurrentBuilds > 0 {
		c.buildSem = make(chan struct{}, cfg.MaxConcurrentBuilds)
	}
	c.shards = make([]*shard, cfg.Shards)
	for i := range c.shards {
		c.shards[i] = &shard{
			lines:  make(map[lineKey]*list.Element),
			lru:    list.New(),
			flight: make(map[lineKey]*flight),
		}
	}
	return c
}

// Machines returns a copy of the registry the cache resolves machine
// names against; mutating it does not affect the cache.
func (c *Cache) Machines() map[string]model.Params {
	out := make(map[string]model.Params, len(c.cfg.Machines))
	for name, p := range c.cfg.Machines {
		out[name] = p
	}
	return out
}

// Resolve canonicalizes a machine name against the cache's registry: an
// exact registry key wins, otherwise the global alias/case rules
// (model.CanonicalName) are applied and the canonical spelling is looked
// up. The service layer resolves every request through this, so a cache
// built over a custom registry never silently falls back to the built-in
// constants.
func (c *Cache) Resolve(machine string) (string, model.Params, error) {
	return c.resolve(machine)
}

func (c *Cache) resolve(machine string) (string, model.Params, error) {
	if p, ok := c.cfg.Machines[machine]; ok {
		return machine, p, nil
	}
	if canon, err := model.CanonicalName(machine); err == nil {
		if p, ok := c.cfg.Machines[canon]; ok {
			return canon, p, nil
		}
	}
	// List this cache's registry, not the global one: a custom-registry
	// cache serves exactly these names.
	names := make([]string, 0, len(c.cfg.Machines))
	for name := range c.cfg.Machines {
		names = append(names, name)
	}
	sort.Strings(names)
	return "", model.Params{}, fmt.Errorf("unknown machine %q (valid: %s)",
		machine, strings.Join(names, ", "))
}

func (c *Cache) shardFor(key lineKey) *shard {
	h := fnv.New32a()
	h.Write([]byte(key.machine))
	h.Write([]byte{0})
	h.Write([]byte(key.topo))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// MaxTopologyNodes bounds the networks a cache will build hulls for —
// the optimizer's own enumeration limit, enforced here at request
// validation time so an oversized topology is a caller error, not a
// build failure.
const MaxTopologyNodes = 1 << 20

// ResolveTopology resolves a topology registry spec for serving: the
// process-wide shared handle of topology.Resolve, so a fabric named by
// many requests is parsed — and a degraded one's live graph derived —
// once. Parse errors, oversized networks and non-operational degraded
// ones come back as request-validation errors (the service layer maps
// them to 400).
func ResolveTopology(spec string) (topology.Network, error) {
	net, err := topology.Resolve(spec)
	if err != nil {
		return nil, err
	}
	if err := checkServable(net); err != nil {
		return nil, err
	}
	return net, nil
}

// ResolveHypercube is ResolveTopology for the dimension-based API: the
// shared d-cube handle, without a spec string.
func ResolveHypercube(d int) (topology.Network, error) {
	net, err := topology.New(d)
	if err != nil {
		return nil, err
	}
	if err := checkServable(net); err != nil {
		return nil, err
	}
	return net, nil
}

// MaxMixedRadixDims bounds unequal-radix topologies at request
// validation: their optimizer enumeration is over 2^(k−1) ordered
// compositions — on the simulated backend re-run for each swept block
// size of a hull build — so the node-count bound alone would let one
// request schedule an exponential amount of work. 12 dimensions cap an
// enumeration at 2^11 candidates. Uniform-radix shapes (hypercubes,
// square tori) enumerate only p(k) partitions and are not restricted.
const MaxMixedRadixDims = 12

// checkServable enforces the enumeration-cost bounds on every request
// path — including dimension-based requests (ResolveHypercube), which
// never go through a spec string — and refuses a non-operational
// degraded fabric (a dead node or a severed live graph), so an oversized
// or unroutable topology is always a caller error, never a
// BuildError-classified (500-mapped) hull failure, and never a peer
// fetch.
func checkServable(net topology.Network) error {
	if net.Nodes() > MaxTopologyNodes {
		return fmt.Errorf("plancache: %s exceeds the serving limit of %d nodes",
			net.Name(), MaxTopologyNodes)
	}
	if _, ok := net.(*topology.Hypercube); ok {
		return nil // uniform radix 2 by construction; keep the hot Get allocation-free
	}
	dims := net.Dims()
	uniform := true
	for _, r := range dims {
		if r != dims[0] {
			uniform = false
			break
		}
	}
	if !uniform && len(dims) > MaxMixedRadixDims {
		return fmt.Errorf("plancache: %s has %d unequal-radix dimensions, over the serving limit of %d",
			net.Name(), len(dims), MaxMixedRadixDims)
	}
	return topology.CheckOperational(net)
}

// optimizer returns (creating once) the per-machine optimizer.
func (c *Cache) optimizer(name string, p model.Params) *optimize.Optimizer {
	c.optMu.Lock()
	defer c.optMu.Unlock()
	if o, ok := c.opts[name]; ok {
		return o
	}
	o := c.cfg.NewOptimizer(p)
	c.opts[name] = o
	return o
}

// OptimizerStats aggregates the enumeration counters — evaluations,
// evaluated/pruned candidates, memo hits/misses — across every
// per-machine optimizer the cache has created. The service layer exposes
// the sum on /metrics next to the cache counters.
func (c *Cache) OptimizerStats() optimize.Stats {
	c.optMu.Lock()
	defer c.optMu.Unlock()
	var sum optimize.Stats
	for _, o := range c.opts {
		sum.Add(o.Stats())
	}
	return sum
}

// GetForCtx answers one (machine, topology, m) query with the full plan
// detail — the serving hot path: a resident line answers with a shard
// lookup, a binary search and the closed-form time for the exact m. net
// is an already-resolved topology (ResolveHypercube, ResolveTopology, or
// a degraded overlay the caller built), so a request's spec is parsed at
// most once. ctx bounds the call: when it ends the caller returns
// ctx.Err() immediately while any in-flight line fill it initiated or
// joined continues for its remaining waiters (and is cancelled only when
// fully abandoned), so a disconnected client stops paying for a hull
// build it will never read. The one exception is a cheap fill (a healthy
// line on the analytic backend) this caller initiated: it runs on the
// caller's goroutine, microseconds with no checkpoint, and answers even
// if ctx ends meanwhile.
func (c *Cache) GetForCtx(ctx context.Context, machine string, net topology.Network, m int) (Plan, error) {
	name, prm, err := c.resolve(machine)
	if err != nil {
		return Plan{}, err
	}
	return c.getOn(ctx, name, prm, net, m)
}

func (c *Cache) getOn(ctx context.Context, name string, prm model.Params, net topology.Network, m int) (Plan, error) {
	if err := checkServable(net); err != nil {
		return Plan{}, err
	}
	if limit := exchange.MaxBufferBytes / net.Nodes(); m < 0 || m > limit {
		return Plan{}, fmt.Errorf("plancache: block size %d outside [0, %d] on %s", m, limit, net.Name())
	}
	ln, _, err := c.lineFor(ctx, name, prm, net)
	if err != nil {
		return Plan{}, err
	}
	return c.answer(name, prm, ln, m)
}

// HullForCtx returns the resident hull table for (machine, topology),
// building the line if needed; Table.Lookup on it is the fast path for a
// caller that wants only the partition. ctx bounds the call as in
// GetForCtx.
func (c *Cache) HullForCtx(ctx context.Context, machine string, net topology.Network) (optimize.Table, error) {
	name, prm, err := c.resolve(machine)
	if err != nil {
		return optimize.Table{}, err
	}
	if err := checkServable(net); err != nil {
		return optimize.Table{}, err
	}
	ln, _, err := c.lineFor(ctx, name, prm, net)
	if err != nil {
		return optimize.Table{}, err
	}
	return ln.table, nil
}

// answer resolves m through a resident line.
func (c *Cache) answer(name string, prm model.Params, ln *line, m int) (Plan, error) {
	seg, inRange := ln.table.LookupSegment(m)
	t, phases, err := prm.MultiphaseOn(ln.net, m, seg.Part)
	if err != nil {
		return Plan{}, fmt.Errorf("plancache: pricing %s/%s m=%d: %w", name, ln.key.topo, m, err)
	}
	return Plan{
		Machine:   name,
		Topo:      ln.key.topo,
		D:         ln.net.NumDims(),
		Block:     m,
		Part:      seg.Part,
		TimeMicro: t,
		Phases:    phases,
		SegMin:    seg.MinBlock,
		SegMax:    seg.MaxBlock,
		InRange:   inRange,
	}, nil
}

// ErrOverloaded marks a miss shed because the concurrent-build bound
// (Config.MaxConcurrentBuilds) was reached: the line is not resident
// and the cache refused to queue another hull build. The serving tier
// maps it to 503 with Retry-After.
var ErrOverloaded = errors.New("build capacity exhausted")

// lineFor returns the resident line for (name, topology), filling it
// under a per-key singleflight on a miss (peer fetch first when a Fetch
// hook is configured and the line is not cheap to build, local build
// otherwise). built is true only for the caller that initiated a fill
// that ran a local build (not for hits, joined waiters, or peer imports).
// Each call counts one hit or one miss, however often it retries.
//
// A cheap fill (see cheap) runs on the initiating caller's goroutine:
// an analytic build has no cancellation checkpoint once it has started,
// so the initiator waits it out and reads its own result, while joiners
// wait on done as for any fill. Every other fill runs in its own
// goroutine, and ctx bounds this caller's WAIT, not the fill: when ctx
// ends the caller gets ctx.Err() immediately while the fill keeps
// running for the remaining waiters — and when the last waiter departs
// the fill is cancelled at its next checkpoint. Either way the flight
// entry is removed when the fill finishes, so a cancelled fill never
// poisons the key: the next caller simply starts a fresh one.
func (c *Cache) lineFor(ctx context.Context, name string, prm model.Params, net topology.Network) (ln *line, built bool, err error) {
	key := lineKey{machine: name, topo: net.Name()}
	sh := c.shardFor(key)

	outcome := "hit"
	sp := obs.StartSpan(ctx, "cache")
	sp.SetAttr("machine", name)
	sp.SetAttr("topology", key.topo)
	defer func() {
		if err != nil {
			sp.SetAttr("error", "true")
		}
		sp.SetAttr("outcome", outcome)
		sp.End()
	}()

	missed := false // a retry after an abandoned flight counts no second miss
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		sh.mu.Lock()
		if el, ok := sh.lines[key]; ok {
			sh.lru.MoveToFront(el)
			sh.mu.Unlock()
			if !missed {
				c.hits.Add(1)
			}
			return el.Value.(*line), false, nil
		}
		if !missed {
			missed = true
			c.misses.Add(1)
		}
		if f, ok := sh.flight[key]; ok {
			f.waiters.Add(1)
			sh.mu.Unlock()
			outcome = "join"
			ln, err, retry := c.awaitFlight(ctx, f)
			if retry {
				// We joined a fill that was abandoned (every earlier
				// waiter departed before we arrived and it was cancelled
				// at a checkpoint). Our context is still live, so start
				// over; the dead flight is removed before done closes,
				// so the retry finds a clean slate.
				continue
			}
			return ln, false, err
		}
		// Detach drops the initiating request's cancellation (the fill
		// must outlive any one waiter) but keeps its values, so spans
		// recorded inside the fill land on that request's trace.
		fctx, cancel := context.WithCancel(obs.Detach(ctx))
		f := &flight{done: make(chan struct{}), cancel: cancel}
		f.waiters.Add(1)
		sh.flight[key] = f
		sh.mu.Unlock()
		c.inflight.Add(1)
		outcome = "miss"
		opt := c.optimizer(name, prm)
		if cheap(opt, net) {
			// The initiator's waiter is never released, so no joiner's
			// departure can cancel the fill it is running.
			c.runFlight(fctx, f, sh, key, name, opt, net)
			ln, err = f.line, f.err
		} else {
			go c.runFlight(fctx, f, sh, key, name, opt, net)
			var retry bool
			if ln, err, retry = c.awaitFlight(ctx, f); retry {
				continue
			}
		}
		// f.built is only safe to read once the fill has published; a
		// caller departing early (ctx end) reports built=false.
		built := err == nil && flightDone(f) && f.built
		if err == nil {
			if built {
				outcome = "build"
			} else {
				outcome = "peer"
			}
		}
		return ln, built, err
	}
}

// awaitFlight waits for a joined flight to finish or the caller's
// context to end, whichever is first, and maintains the flight's waiter
// count: the departing last waiter cancels the fill. retry is true when
// the flight died of its own cancellation while THIS caller is still
// live — the caller should start over rather than surface an error it
// did not cause.
func (c *Cache) awaitFlight(ctx context.Context, f *flight) (ln *line, err error, retry bool) {
	defer func() {
		if f.waiters.Add(-1) == 0 {
			f.cancel()
		}
	}()
	select {
	case <-f.done:
		if f.err != nil && errors.Is(f.err, context.Canceled) && ctx.Err() == nil {
			return nil, nil, true
		}
		return f.line, f.err, false
	case <-ctx.Done():
		return nil, ctx.Err(), false
	}
}

// flightDone reports whether f has published its result, making its
// line/err/built fields safe to read.
func flightDone(f *flight) bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// errFillPanicked is the result a flight publishes when its fill
// panicked: the panic goes on up the stack, and joiners get this error
// instead of waiting on a flight that never ends.
var errFillPanicked = errors.New("plancache: line fill panicked")

// runFlight performs one fill: peer fetch (when configured and worth the
// hop, see fill), then local build, publishing the result and retiring
// the flight entry. lineFor runs it on the initiating caller's goroutine
// for a cheap fill and in a goroutine of its own otherwise, detached from
// any single request so one disconnected client cannot abort work others
// are waiting on.
func (c *Cache) runFlight(ctx context.Context, f *flight, sh *shard, key lineKey, name string, opt *optimize.Optimizer, net topology.Network) {
	defer func() {
		sh.mu.Lock()
		if f.err == nil {
			c.insertLocked(sh, f.line)
			if f.built {
				c.builds.Add(1)
			} else {
				c.peerImports.Add(1)
			}
		}
		delete(sh.flight, key)
		sh.mu.Unlock()
		c.inflight.Add(-1)
		f.cancel()
		close(f.done)
	}()
	f.err = errFillPanicked
	f.line, f.built, f.err = c.fill(ctx, name, opt, net)
}

// cheap reports whether a line is cheaper to build here than any
// alternative: the analytic backend on a healthy fabric, a build of 3–50 µs
// on a warm fabric handle for cubes up to hypercube-20. Such a line is
// never fetched from a peer, and its fill runs on the goroutine that
// asked for it.
func cheap(opt *optimize.Optimizer, net topology.Network) bool {
	return opt.Backend() == optimize.Analytic && topology.HealthDigestOf(net) == "ok"
}

// fill obtains one line: from the owning peer when the Fetch hook
// accepts the key, by a bounded local build otherwise. A fetch error or
// an invalid peer payload falls back to the local build — a dead peer
// costs time, never correctness.
//
// The hop is consulted only where it saves more than it costs: one owner
// fetch is ≈ 80 µs in process and ≈ 300 µs of CPU across two processes.
// A line whose build replays (the simulated backend: milliseconds to
// seconds) or routes around faults (≈ 120 µs on hypercube-10!dl=0-1,
// milliseconds on hypercube-16) is fetched; a cheap one is built here.
func (c *Cache) fill(ctx context.Context, name string, opt *optimize.Optimizer, net topology.Network) (*line, bool, error) {
	if c.cfg.Fetch != nil && !cheap(opt, net) {
		ld, err := c.cfg.Fetch(ctx, name, net.Name())
		if err == nil && ld != nil && ld.Machine == name && ld.Topology == net.Name() {
			if ln, err := c.admit(*ld); err == nil {
				return ln, false, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	if c.buildSem != nil {
		select {
		case c.buildSem <- struct{}{}:
			defer func() { <-c.buildSem }()
		default:
			c.shed.Add(1)
			return nil, false, fmt.Errorf("plancache: building %s/%s: %w", name, net.Name(), ErrOverloaded)
		}
	}
	sp := obs.StartSpan(ctx, "build")
	sp.SetAttr("machine", name)
	sp.SetAttr("topology", net.Name())
	ln, err := c.build(ctx, name, opt, net)
	if err != nil {
		sp.SetAttr("error", "true")
	}
	sp.End()
	return ln, err == nil, err
}

// BuildError marks a failure inside a line build (the hull sweep), as
// opposed to request-validation failures: a serving tier maps the former
// to 500 and the latter to 400.
type BuildError struct {
	Machine string
	Topo    string
	Err     error
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("plancache: building %s/%s: %v", e.Machine, e.Topo, e.Err)
}

func (e *BuildError) Unwrap() error { return e.Err }

// build builds the hull table of one line. ctx is the fill's context: a
// fully abandoned fill aborts before an analytic build or between a
// simulated one's sweep points (context errors pass through unwrapped so
// the flight machinery can classify them).
func (c *Cache) build(ctx context.Context, name string, opt *optimize.Optimizer, net topology.Network) (*line, error) {
	tbl, err := opt.BuildTableOnCtx(ctx, net, 0, c.cfg.SweepHi, c.cfg.SweepStep)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &BuildError{Machine: name, Topo: net.Name(), Err: err}
	}
	return &line{key: lineKey{machine: name, topo: net.Name()}, net: net, table: tbl}, nil
}

// insert adds a line to its shard, as insertLocked does.
func (c *Cache) insert(ln *line) {
	sh := c.shardFor(ln.key)
	sh.mu.Lock()
	c.insertLocked(sh, ln)
	sh.mu.Unlock()
}

// insertLocked adds a line to its shard and evicts past capacity. The
// shard mutex must be held.
func (c *Cache) insertLocked(sh *shard, ln *line) {
	if el, ok := sh.lines[ln.key]; ok {
		el.Value = ln
		sh.lru.MoveToFront(el)
		return
	}
	sh.lines[ln.key] = sh.lru.PushFront(ln)
	for sh.lru.Len() > c.cfg.CapacityPerShard {
		back := sh.lru.Back()
		victim := back.Value.(*line)
		sh.lru.Remove(back)
		delete(sh.lines, victim.key)
		c.evictions.Add(1)
	}
}

// WarmForCtx pre-builds the line for (machine, topology), so the first
// query pays no enumeration. It reports whether a build actually ran
// (false when the line was already resident, another caller's build was
// joined, or a peer supplied the line). ctx bounds the call as in
// GetForCtx. Warm-up and the peer-serving endpoint come through here.
func (c *Cache) WarmForCtx(ctx context.Context, machine string, net topology.Network) (built bool, err error) {
	name, prm, err := c.resolve(machine)
	if err != nil {
		return false, err
	}
	if err := checkServable(net); err != nil {
		return false, err
	}
	_, built, err = c.lineFor(ctx, name, prm, net)
	return built, err
}

// InvalidateWhere drops every resident line whose (machine, topology
// name) matches pred and returns how many were removed. In-flight
// builds are not cancelled — a build that completes after its key was
// invalidated re-inserts, so callers racing fault updates should
// invalidate after the fault state changes, which this serving tier's
// fault handler does. The service layer uses it to retire plans keyed
// under a superseded health digest when a fabric's fault set changes.
func (c *Cache) InvalidateWhere(pred func(machine, topo string) bool) int {
	removed := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			ln := el.Value.(*line)
			if pred(ln.key.machine, ln.key.topo) {
				sh.lru.Remove(el)
				delete(sh.lines, ln.key)
				removed++
			}
			el = next
		}
		sh.mu.Unlock()
	}
	return removed
}

// Stats returns a counter snapshot.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Inflight:    c.inflight.Load(),
		Builds:      c.builds.Load(),
		PeerImports: c.peerImports.Load(),
		Shed:        c.shed.Load(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Lines += sh.lru.Len()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			s.Segments += len(el.Value.(*line).table.Segments)
		}
		sh.mu.Unlock()
	}
	return s
}
