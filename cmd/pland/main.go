// Command pland is the plan-serving daemon: it exposes the multiphase
// exchange auto-tuner as an HTTP JSON service backed by the sharded plan
// cache, so choosing the best partition for a (machine, d, m) query is a
// network call answered from O(hull) cached segments instead of a fresh
// enumeration.
//
// Usage:
//
//	pland                                    # iPSC-860 default, :8080
//	pland -machine hypo -addr :9090
//	pland -snapshot plans.json -snapshot-every 1m
//	pland -warmup-dims 5,6,7                 # pre-build every machine's hulls
//
// The daemon restores its cache from -snapshot at startup (if the file
// exists), persists it periodically and again on graceful shutdown
// (SIGINT/SIGTERM). The file holds the lines that are expensive to
// rebuild: simulated lines, and faulted lines keyed by their fault
// digest, so a fault re-reported after a restart is answered warm. A
// healthy analytic line is not written; it rebuilds in microseconds on
// its first request.
//
// Fleet mode: -self and -peers turn N replicas into one logical cache.
//
//	pland -addr :8081 -self http://host1:8081 \
//	      -peers http://host1:8081,http://host2:8082,http://host3:8083
//
// Every replica must be given the same -peers set (its own URL may be
// included; it is excluded from its peer list automatically). A
// consistent-hash ring assigns each cache line an owner. A miss on a
// line whose build costs more than the hop — a simulated-backend line,
// or one on a faulted fabric — is fetched from the owner with deadlines,
// retries, and a per-peer circuit breaker, and falls back to a local
// build when the owner is unreachable; a healthy analytic line rebuilds
// in microseconds and is always built where it is asked. The breaker is
// the only failure detector — nothing polls the peers — and the peer
// layer runs on the cluster package's defaults: 3 attempts of 2 s each,
// a breaker that opens after 5 consecutive failures and half-opens 5 s
// later. /readyz turns 200 only after restore, warmup, and the ring
// join's warm fan-out, which imports this replica's owned lines from
// each peer's snapshot document (the same lines -snapshot persists);
// /healthz stays pure liveness.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/plancache"
	"repro/internal/service"
)

// options collects the daemon's flag values; main parses them and the
// end-to-end test constructs them directly.
type options struct {
	addr          string
	machine       string
	backend       string
	shards        int
	capacity      int
	sweepHi       int
	sweepStep     int
	snapshotPath  string
	snapshotEvery time.Duration
	warmupDims    string

	// Fleet mode (see the package doc): all off when peers is empty.
	self      string
	peers     string
	maxBuilds int

	// Observability: -log-format selects text (default) or json slog
	// output; -debug-addr serves net/http/pprof and /debug/vars on its
	// own listener so profiling never shares a port with production
	// traffic; -trace-capacity bounds the /debug/traces ring.
	logFormat     string
	debugAddr     string
	traceCapacity int

	logger *slog.Logger
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.machine, "machine", "ipsc860", "default machine for requests that omit ?machine=")
	flag.StringVar(&o.backend, "backend", "analytic", "costing backend: analytic | simulated")
	flag.IntVar(&o.shards, "shards", 8, "cache shard count")
	flag.IntVar(&o.capacity, "cache-capacity", 64, "cache lines per shard (LRU beyond)")
	flag.IntVar(&o.sweepHi, "sweep-hi", plancache.DefaultSweepHi, "hull sweep upper block-size bound")
	flag.IntVar(&o.sweepStep, "sweep-step", 1, "hull sweep step")
	flag.StringVar(&o.snapshotPath, "snapshot", "", "cache snapshot file (restored at startup, written periodically and on shutdown)")
	flag.DurationVar(&o.snapshotEvery, "snapshot-every", 5*time.Minute, "periodic snapshot interval (requires -snapshot)")
	flag.StringVar(&o.warmupDims, "warmup-dims", "", "comma-separated dimensions to pre-build for every machine at startup, e.g. \"5,6,7\"")
	flag.StringVar(&o.self, "self", "", "this replica's advertised base URL (required with -peers)")
	flag.StringVar(&o.peers, "peers", "", "comma-separated replica base URLs forming the fleet (empty = standalone)")
	flag.IntVar(&o.maxBuilds, "max-builds", 0, "concurrent local hull builds before shedding with 503 (0 = unbounded)")
	flag.StringVar(&o.logFormat, "log-format", "text", "log output format: text | json")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "listen address for pprof and /debug/vars (empty = off)")
	flag.IntVar(&o.traceCapacity, "trace-capacity", 0, "request traces retained for /debug/traces (0 = default)")
	flag.Parse()
	logger, err := newLogger(o.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pland:", err)
		os.Exit(1)
	}
	o.logger = logger

	d, err := newDaemon(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pland:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pland:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := d.run(ctx, ln); err != nil {
		fmt.Fprintln(os.Stderr, "pland:", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's slog logger for a -log-format value.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (valid: text, json)", format)
	}
}

// daemon owns the cache, the HTTP server, the optional peer layer, and
// the snapshot lifecycle.
type daemon struct {
	opts  options
	cache *plancache.Cache
	svc   *service.Server
	clu   *cluster.Cluster // nil when standalone
	srv   *http.Server
	log   *slog.Logger
}

// newDaemon validates the options, builds the cache (restoring a
// snapshot if one exists), warms it, and wires the service handler.
func newDaemon(o options) (*daemon, error) {
	if o.logger == nil {
		o.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	var newOpt func(model.Params) *optimize.Optimizer
	switch o.backend {
	case "analytic", "":
		newOpt = optimize.New
	case "simulated":
		newOpt = optimize.NewSimulated
	default:
		return nil, fmt.Errorf("unknown backend %q (valid: analytic, simulated)", o.backend)
	}
	defaultMachine, err := model.CanonicalName(o.machine)
	if err != nil {
		return nil, err
	}
	// The simulated backend's serving bound (see service.PlanMaxDim
	// below): warming dimensions the server will refuse to serve would
	// be pure startup cost.
	planMaxDim := 20
	if o.backend == "simulated" {
		planMaxDim = 12
	}
	dims, err := parseDims(o.warmupDims)
	if err != nil {
		return nil, err
	}
	for _, dim := range dims {
		if dim > planMaxDim {
			return nil, fmt.Errorf("warmup dimension %d exceeds the serving bound d ≤ %d for the %s backend",
				dim, planMaxDim, o.backend)
		}
	}

	// The peer layer is built before the cache so the cache's miss path
	// can carry the owner-fetch hook from day one.
	var clu *cluster.Cluster
	if o.peers != "" {
		if o.self == "" {
			return nil, fmt.Errorf("-peers requires -self (this replica's advertised URL)")
		}
		clu, err = cluster.New(cluster.Config{
			Self:   o.self,
			Peers:  strings.Split(o.peers, ","),
			Logger: o.logger,
		})
		if err != nil {
			return nil, err
		}
	}

	cacheCfg := plancache.Config{
		Shards:              o.shards,
		CapacityPerShard:    o.capacity,
		SweepHi:             o.sweepHi,
		SweepStep:           o.sweepStep,
		NewOptimizer:        newOpt,
		MaxConcurrentBuilds: o.maxBuilds,
	}
	if clu != nil {
		cacheCfg.Fetch = clu.FetchLine
	}
	cache := plancache.New(cacheCfg)
	if o.snapshotPath != "" {
		// Only a regular file is a snapshot: anything else at the path
		// (a directory, a device) is the operator's, never moved aside.
		if fi, err := os.Stat(o.snapshotPath); err == nil && !fi.Mode().IsRegular() {
			return nil, fmt.Errorf("snapshot path %s is not a regular file", o.snapshotPath)
		}
		restored, skipped, err := cache.RestoreFile(o.snapshotPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			o.logger.Info("no snapshot, starting cold", "path", o.snapshotPath)
		case err != nil:
			// A corrupt or truncated snapshot (a crash mid-write of an
			// earlier daemon, stray edits) must not keep the daemon down:
			// move it aside for postmortem and start cold. The next
			// periodic snapshot writes a fresh one.
			corrupt := o.snapshotPath + ".corrupt"
			o.logger.Warn("snapshot unreadable, moving aside and starting cold",
				"path", o.snapshotPath, "error", err, "moved_to", corrupt)
			if mvErr := os.Rename(o.snapshotPath, corrupt); mvErr != nil {
				return nil, fmt.Errorf("moving corrupt snapshot aside: %w", mvErr)
			}
		default:
			// Resident can be below restored when the snapshot holds
			// more lines than the configured capacity.
			o.logger.Info("restored cache snapshot", "path", o.snapshotPath,
				"restored", restored, "stale_skipped", skipped, "resident", cache.Stats().Lines)
		}
	}
	for _, dim := range dims {
		cube, err := plancache.ResolveHypercube(dim)
		if err != nil {
			return nil, fmt.Errorf("warmup d=%d: %w", dim, err)
		}
		for name := range cache.Machines() {
			built, err := cache.WarmForCtx(context.Background(), name, cube)
			if err != nil {
				return nil, fmt.Errorf("warmup %s/d=%d: %w", name, dim, err)
			}
			if built {
				o.logger.Info("warmed line", "machine", name, "d", dim)
			}
		}
	}

	// A cache miss on the simulated backend runs a full hull sweep of
	// BestOn calls — hundreds of compiled replays per build — so the
	// serving bound must match the per-request /v1/cost bound.
	svcCfg := service.Config{
		Cache:          cache,
		DefaultMachine: defaultMachine,
		PlanMaxDim:     planMaxDim,
		Logger:         o.logger,
		Tracer:         obs.NewTracer(o.traceCapacity),
		Cluster:        clu,
	}
	svc, err := service.New(svcCfg)
	if err != nil {
		return nil, err
	}
	return &daemon{
		opts:  o,
		cache: cache,
		svc:   svc,
		clu:   clu,
		srv: &http.Server{
			Handler: svc.Handler(),
			// A public daemon must not let one stalled peer pin a
			// connection forever: bound the header read (slowloris), the
			// whole request read, the response write (covers handler
			// time — generous, a cold simulated-backend hull build is
			// minutes of work), and keep-alive idle.
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       1 * time.Minute,
			WriteTimeout:      10 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		log: o.logger,
	}, nil
}

// run serves until ctx is cancelled, then shuts down gracefully and
// writes a final snapshot.
func (d *daemon) run(ctx context.Context, ln net.Listener) error {
	d.log.Info("serving", "addr", ln.Addr().String(),
		"default_machine", d.opts.machine, "backend", d.opts.backend)

	serveErr := make(chan error, 1)
	go func() { serveErr <- d.srv.Serve(ln) }()

	// The debug listener is opt-in and separate from production traffic:
	// pprof endpoints are expensive and unauthenticated, so they never
	// share the serving port. Best effort — a daemon that cannot bind
	// its debug port still serves.
	var debugSrv *http.Server
	if d.opts.debugAddr != "" {
		dln, err := net.Listen("tcp", d.opts.debugAddr)
		if err != nil {
			d.log.Warn("debug listener failed, continuing without it",
				"addr", d.opts.debugAddr, "error", err)
		} else {
			debugSrv = &http.Server{Handler: debugMux()}
			d.log.Info("debug endpoints up", "addr", dln.Addr().String())
			go func() {
				if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
					d.log.Warn("debug server exited", "error", err)
				}
			}()
		}
	}

	// Readiness: restore + warmup already ran in newDaemon. A standalone
	// daemon is ready as soon as it serves; a clustered one first
	// warm-fetches its owned lines from every peer once — in the
	// background, because joining a fleet whose peers are still booting
	// must not deadlock startup (their fan-out needs our snapshot
	// endpoint up).
	if d.clu == nil {
		d.svc.SetReady(true)
	} else {
		go func() {
			imported, err := d.clu.WarmOwned(ctx, d.cache)
			if err != nil {
				d.log.Warn("warm fan-out incomplete", "component", "cluster",
					"imported", imported, "error", err)
			} else if imported > 0 {
				d.log.Info("warmed owned lines from peers", "component", "cluster",
					"imported", imported)
			}
			d.svc.SetReady(true)
		}()
	}

	snapDone := make(chan struct{})
	if d.opts.snapshotPath != "" && d.opts.snapshotEvery > 0 {
		go d.snapshotLoop(ctx, snapDone)
	} else {
		close(snapDone)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	if err := d.srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-snapDone
	return d.snapshot("final")
}

// snapshotLoop persists the cache every snapshotEvery until ctx ends.
func (d *daemon) snapshotLoop(ctx context.Context, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(d.opts.snapshotEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if err := d.snapshot("periodic"); err != nil {
				d.log.Warn("periodic snapshot failed", "error", err)
			}
		}
	}
}

func (d *daemon) snapshot(kind string) error {
	if d.opts.snapshotPath == "" {
		return nil
	}
	lines, err := d.cache.SnapshotFile(d.opts.snapshotPath)
	if err != nil {
		return fmt.Errorf("%s snapshot: %w", kind, err)
	}
	d.log.Info("snapshot written", "kind", kind, "lines", lines,
		"resident", d.cache.Stats().Lines, "path", d.opts.snapshotPath)
	return nil
}

// debugMux routes the opt-in debug endpoints: the standard pprof set
// and expvar's /debug/vars (Go runtime memstats and cmdline).
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// parseDims parses a comma-separated dimension list.
func parseDims(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var dims []int
	for _, f := range strings.Split(s, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("warmup dimension %q is not an integer", f)
		}
		if d < 0 {
			return nil, fmt.Errorf("warmup dimension %d is negative", d)
		}
		dims = append(dims, d)
	}
	return dims, nil
}
