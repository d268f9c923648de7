// Package repro reproduces Bokhari's "Multiphase Complete Exchange on a
// Circuit Switched Hypercube" (ICPP 1991, ICASE Report 91-5): the unified
// multiphase all-to-all personalized communication algorithm for
// circuit-switched hypercubes, together with the machine it needs — a
// calibrated discrete-event simulator of the Intel iPSC-860's network —
// and a goroutine runtime that executes the same algorithms with real
// payloads.
//
// Every algorithm is written once against the node-level fabric
// interface (internal/fabric) and runs unchanged on both backends: the
// goroutine runtime moves real bytes, the simulated fabric moves the
// same bytes while costing the schedule in virtual time. Pure costing
// takes a third, faster route: a trace compiler (internal/exchange,
// internal/collectives) lowers plans directly to per-node simulator
// programs — op-for-op the programs a live simulated-fabric run records —
// and replays them with no goroutines or payload bytes, which is what the
// optimizer enumeration and the figure sweeps use.
//
// The network shape is a pluggable parameter, not a type: the whole
// stack — routing, link contention, the replay core, the exchange
// planner, the optimizer and the serving tier — is built on
// topology.Network, with three implementations: the binary Hypercube
// (radix-2 bit-trick fast paths preserved), and mixed-radix Torus and
// Mesh machines ("torus-4x4x4", "mesh-8x8"). The multiphase family
// generalizes accordingly: a plan groups the topology's dimensions into
// consecutive phases; all-radix-2 fields keep the paper's pairwise XOR
// schedule (the hypercube is exactly the all-2 special case), while
// mixed-radix fields run cyclic shifts within their sub-blocks, with
// the analytic model (model.MultiphaseOn) collapsing to eq. (3) on the
// hypercube.
//
// The optimizer (internal/optimize) keeps that enumeration interactive
// at scale: per-(field, m) phase costs and compiled trace fragments are
// memoized across the candidates and block-size sweep of one call, the
// per-fabric facts they lean on (phase certificates, routed-distance sums)
// are derived once per topology handle and kept there, an admissible
// analytic lower bound (model.PhaseLowerBoundOn) prunes provable losers
// branch-and-bound style, and surviving candidates are costed in
// parallel on a bounded worker pool with deterministic tie-breaking —
// bit-identical results to exhaustive serial enumeration, with
// evaluated/pruned/memo-hit counters surfaced through Optimizer.Stats
// and the daemon's /metrics.
//
// On top of the optimizer sits the serving subsystem: internal/plancache
// collapses the unbounded block-size axis onto hull-of-optimality
// segments in a sharded LRU cache with JSON snapshot/restore,
// internal/service exposes it as an HTTP JSON API (/v1/plan, /v1/cost,
// /v1/hull, /v1/batch, /v1/faults, /healthz, /metrics), and cmd/pland is
// the daemon that serves auto-tuned exchange plans to the network — the
// paper's "compute once, store for repeated future use" (§6) as a
// product. A warm answer is a segment lookup, eq. (3) priced for the
// exact block size without copying the fabric's layout, and one append:
// /v1/plan and /v1/batch bodies are appended into one buffer, byte for
// byte what encoding/json writes for their wire structs, and the
// canonical /v1/batch body is parsed without reflection (any other body
// takes encoding/json's path, errors included).
//
// The stack is fault-aware end to end: topology.Overlay wraps any
// Network in a Degraded view (dead links, dead nodes, per-link slowdown
// factors) with detour routing and a canonical health digest. A fault is
// a static property of the fabric, held on its topology.Resolve handle:
// the cost model, optimizer, simulator and plan cache all plan around the
// damage on that one handle, and the daemon degrades gracefully — POST /v1/faults changes a fabric's fault
// state, and while the reported faults leave the fabric non-operational
// (a dead node or a severed live graph, decided once on the handle) a
// plan query gets the healthy base's plan flagged degraded, with no
// cache work for the faulted line; pricing or building on such a fabric
// is a 400. An overlay always carries a fault: topology.Overlay refuses
// an empty set, because a fabric without faults is its base network, and
// a report that leaves a fabric no faults returns it to that network.
//
// The serving tier also scales out: internal/cluster turns N pland
// replicas into one logical cache. A consistent-hash ring with virtual
// nodes assigns every cache line to an owner replica; a non-owner's
// miss on a line whose build costs more than the hop (a simulated or a
// faulted one — a healthy analytic line rebuilds in microseconds and is
// built where it is asked) fetches the built line from its owner over
// /v1/peer/line — per-attempt deadlines, bounded retries with backoff
// and jitter, and per-peer circuit breakers guarding every hop — and
// falls back to a local singleflight build when the owner is dead or
// slow, so a peer failure costs latency, never an error. Replicas probe
// each other's /healthz, warm-fetch their owned lines at startup, gate
// /readyz on that warm-up, forward fault updates fleet-wide, and shed
// local builds beyond a bound with 503s. Without -peers the daemon is
// bit-identical to the standalone build.
//
// The fleet watches itself through internal/obs, a zero-dependency
// observability layer: every request carries a correlation ID
// (X-Pland-Request-Id, propagated across peer hops; a client's ID is
// adopted only when it is 1–64 bytes of [A-Za-z0-9._:-], and a fresh one
// is minted from a per-process seed and a counter) and records a span
// tree — handler, cache outcome, build, optimizer, compiled-trace
// replay, peer fetch — into a bounded ring served at /debug/traces
// (JSON or Chrome trace_event, the same exporter that dumps simnet
// timelines via mpx/figures -trace-out). Latencies feed fixed
// log-bucket histograms with derived p50/p90/p99 per endpoint and per
// stage, exposed on the JSON /metrics and as Prometheus text at
// /metrics?format=prometheus — both rendered from one snapshot whose
// struct tags declare every metric once; pland logs structured records
// (log/slog) and opts into pprof/expvar on a separate -debug-addr
// listener.
//
// Layout:
//
//	internal/...   the library (see README.md for the package map)
//	cmd/...        mpx, hull, partitions, figures, calibrate, pland
//	examples/...   runnable demonstrations
//
// The benchmark harness in this package (bench_test.go) regenerates every
// table and figure of the paper; integration_test.go pins the headline
// end-to-end results. README.md carries the system inventory and the
// paper-vs-reproduction record.
package repro
