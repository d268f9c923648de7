// Package optimize selects the best multiphase partition for a given cube
// dimension and block size (paper §6): it enumerates all p(d) partitions
// of d — a "trivial number" even for large cubes (p(10)=42, p(20)=627) —
// evaluates each against the machine model, and returns the winner, which
// package plancache stores for repeated use.
//
// Two evaluation backends are available: the closed-form analytic model
// (fast, used by default, mirrors §4.3/§7.4) and network simulation
// (accounts for any contention the analytic model cannot see). The
// simulated backend costs candidates on the trace-compiled path: each plan
// is lowered directly to per-node simnet programs and replayed through the
// discrete-event engine — no goroutines, no payload bytes — up to
// MaxSimulatedDim. The compiled programs are op-for-op the programs a
// goroutine run of the plan records (exchange.TestCostEqualsSimulate), and
// TestBestOnEqualsSimulateArgmin pins the optimizer's choice to the argmin
// of those recorded runs.
//
// On the analytic backend every candidate's cost is affine in the block
// size — eq. (3) is a constant plus a term proportional to m, for cube
// fields, grid fields and degraded overlays alike (model.PhaseLineOn) — so
// the hull of optimality is what the paper draws: the lower envelope of
// p(d) straight lines. BestOn prices each distinct field once and sums per
// candidate; BuildTableOnCtx walks the envelope instead of costing every
// block size (envelopeTable): it prices a block size, reads off the lines
// how far the winner stays clear of every other candidate, and prices
// again only where that lead runs out. The lines are the closed form
// regrouped, equal to it up to rounding, so they are trusted only by a
// margin that rounding cannot reach; which side of a crossing a block size
// falls on, and every tie, is decided by the same left-to-right sums of
// PhaseCost/PhaseCostOn values a point-by-point sweep compares. The table
// is therefore that sweep's table exactly (TestEnvelopeEqualsSweep keeps
// the sweep as its oracle), for a few block sizes priced per segment, and
// nothing about a build is kept once the table is returned.
//
// The simulated backend never costs the same sub-schedule twice and never
// costs a candidate it can prove is a loser:
//
//   - Memoization. Candidates share almost all of their structure — the
//     same (dimension field, m) phase appears in many groupings — so each
//     BestOn or BuildTableOnCtx call keeps a compute-once memo of
//     per-(field, m) compiled trace-fragment makespans. A candidate's
//     screening cost is the sum of its phases' memoized values; a table
//     sweep reuses phase work across candidates and across the m-sweep.
//     Barriers serialize phases, so in real arithmetic the fragment-sum
//     equals the whole-plan makespan exactly; in contended cyclic phases
//     float tie-breaking of link acquisitions can shift it by a small
//     fraction (≈2% worst observed), so selection runs on the fragment-sum
//     and the winner's reported TimeMicro is re-derived by one whole-plan
//     replay — bit-identical to Plan.Cost on the chosen partition. A replay
//     is not always a run of the event engine: a phase whose circuits
//     simnet has certified contention-free and lockstep (the XOR phases
//     of a healthy hypercube) is priced by the engine's own additions
//     with no events, to the same last bit; Stats counts phases by mode.
//   - Branch-and-bound pruning, one rule. The analytic model
//     generalization (model.PhaseLowerBoundOn) is an admissible lower
//     bound on each phase's simulated makespan, and candidates are
//     ordered best-first by the sum of their bounds. A
//     candidate stays in contention while its cost can still come in under
//     the incumbent's, so its phase i may cost at most a cutoff: the
//     incumbent (plus pruneSlack), less the exact costs already summed for
//     the phases before i, less the bounds of the phases still to come. The
//     candidate is discarded the moment phase i is known to cost more
//     than that — by its bound alone, with no replay (at i = 0 that is the
//     familiar "candidate's bound exceeds the incumbent"), by what the memo
//     already records, or by the replay itself, which runs under that
//     cutoff (simnet.RunSourceBounded) and stops at the instant some
//     node's clock passes it instead of simulating a loser to its last
//     event. The bound never overestimates and an aborted replay proves
//     its fragment costs more than the cutoff, so no potential winner (or
//     tie) is discarded; Stats counts candidates evaluated, pruned and
//     pruned with the help of a replay, and replays finished and aborted.
//   - Two entry states. A simulated phase-memo entry is either exact — the
//     fragment's makespan — or a bound — a value the makespan is known to
//     exceed, the highest cutoff a replay of it was aborted at. A lookup
//     under a cutoff the bound already reaches is answered without a
//     replay; one under a looser cutoff replays again and leaves the entry
//     exact or with a higher bound; a bound is never returned as a cost,
//     and the winner's reported time only ever reads exact entries.
//   - Parallel costing, over points only. A point's candidates are
//     costed serially, best first, on the calling goroutine: each one
//     carries the incumbent to the next, and a candidate started beside
//     another would replay with no cutoff. A simulated table sweep's
//     points carry nothing from one to the next but an ordering hint, so
//     the sweep deals them to a bounded worker pool (SetWorkers, default
//     GOMAXPROCS). Ties break deterministically — lowest cost, then
//     fewest phases, then enumeration order — so any worker count returns
//     bit-identical Choices. SetExhaustive(true) disables pruning,
//     cutoffs and best-first ordering for equivalence testing.
//
// The optimizer keeps no answers and no memo between calls: the phase memo
// lives for one BestOn or BuildTableOnCtx call, shared by that call's
// workers and dropped when it returns, and the per-fabric facts costing
// leans on — phase certificates, routed-distance sums — are kept with the
// topology handle (topology.Derived). The result worth keeping is the
// caller's: plancache stores one hull table per (machine, topology) and
// builds each one once.
package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Backend selects how candidate partitions are costed.
type Backend int

const (
	// Analytic costs candidates with the closed-form model (eq. 3).
	Analytic Backend = iota
	// Simulated costs candidates by running the network simulator.
	Simulated
)

func (b Backend) String() string {
	switch b {
	case Analytic:
		return "analytic"
	case Simulated:
		return "simulated"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// MaxSimulatedDim is the dimension limit of the Simulated backend: a
// candidate is costed by replaying its trace-compiled programs. A healthy
// cube's phases are certified lockstep XOR exchanges and are priced in
// closed form without the event engine, which keeps the largest
// fragments tractable; the phases the certificate declines (a torus row,
// a faulted or slow wire) run on the engine, serial, and are what the
// limit bounds.
const MaxSimulatedDim = 18

// pruneSlack is the relative tolerance of the branch-and-bound cut: a
// candidate is discarded only when its lower bound exceeds the incumbent
// by more than this fraction. The bound is mathematically admissible; the
// slack only absorbs float64 summation noise, so a candidate that could
// still tie the winner is never pruned.
const pruneSlack = 1e-9

// Choice is the optimizer's answer for one (topology, m) query.
type Choice struct {
	// Topo is the topology's registry name ("hypercube-7", "torus-4x4x4").
	Topo string
	// D is the number of topology dimensions (the cube dimension on a
	// hypercube).
	D         int
	Block     int
	Part      partition.Partition
	TimeMicro float64
	Backend   Backend
}

// Stats is a snapshot of the optimizer's evaluation counters. Evaluations
// counts full enumerations: one per BestOn call or simulated sweep point,
// and on the analytic backend one per table build — an envelope is a
// single enumeration, however many block sizes the table covers.
// Evaluated and Pruned partition the candidates those
// enumerations dequeued into costed in full and proven to lose first (an
// analytic enumeration costs every candidate: its line, or its cost at
// one m). MemoHits and MemoMisses count the simulated backend's phase-level
// memo lookups (a miss computes the phase — its bound, or a fragment
// replay, finished or aborted — a hit reuses what is recorded); the
// analytic backend keeps no memo and never moves them. The split of
// candidates between Evaluated and Pruned can vary run to run on a sweep
// with more than one worker (it depends on which lower point's winner
// hints each point); the returned Choice never does.
type Stats struct {
	Evaluations int64 `json:"evaluations" prom:"pland_optimizer_evaluations_total,counter" help:"Optimizer enumeration passes."`
	Evaluated   int64 `json:"evaluated" prom:"pland_optimizer_evaluated_total,counter" help:"Candidate partitions fully costed."`
	Pruned      int64 `json:"pruned" prom:"pland_optimizer_pruned_total,counter" help:"Candidate partitions cut by the bound."`
	MemoHits    int64 `json:"memo_hits" prom:"pland_optimizer_memo_hits_total,counter" help:"Simulated-backend phase-memo hits (an analytic build keeps no memo)."`
	MemoMisses  int64 `json:"memo_misses" prom:"pland_optimizer_memo_misses_total,counter" help:"Simulated-backend phase-memo misses: fragment replays run or bounds computed."`
	// PrunedByCutoff's replay is exact phase costs already summed, or a
	// replay aborted at its cutoff, this candidate's or an earlier one's.
	PrunedByCutoff int64 `json:"pruned_by_cutoff" prom:"pland_optimizer_pruned_by_cutoff_total,counter" help:"Pruned candidate partitions whose proof needed a replay, not the admissible bounds alone."`
	// ReplaysSharded is always 0.
	//
	// Deprecated: every replay runs on one engine; the field stays only
	// for callers that still read it, until they are rewritten.
	ReplaysSharded int64 `json:"-" prom:"-"`
	// ReplaysSerial counts the simulated backend's finished replays
	// (memoized fragments and whole-plan winner re-derivations), those
	// priced wholly in closed form included. ReplaysAborted counts the
	// replays abandoned at their cutoff (simnet.ErrCutoff) instead.
	ReplaysSerial int64 `json:"replays_serial" prom:"pland_optimizer_replays_serial_total,counter" help:"Simulated replays that ran to completion, closed-form ones included."`
	// The remaining fields reach the Prometheus form through the service's
	// replay section, which adds the replays no optimizer ran.
	ReplaysAborted int64 `json:"replays_aborted" prom:"-"`
	// PhasesClosedForm and PhasesEngine split the phases of those replays
	// by how simnet priced them: in closed form under a lockstep
	// certificate, or on the event engine. Declines counts, per replay
	// with an engine-run phase, the reason its first such phase was
	// declined (simnet.Result.DeclineReason). Certificates counts the
	// certificate passes these replays ran themselves — at most one per
	// (topology handle, phase field), whichever optimizer gets there first.
	PhasesClosedForm int64            `json:"phases_closed_form" prom:"-"`
	PhasesEngine     int64            `json:"phases_engine" prom:"-"`
	Certificates     int64            `json:"certificates" prom:"-"`
	Declines         map[string]int64 `json:"declines,omitempty" prom:"-"`
}

// Add accumulates another snapshot into s (serving tiers aggregate stats
// across per-machine optimizers).
func (s *Stats) Add(t Stats) {
	s.Evaluations += t.Evaluations
	s.Evaluated += t.Evaluated
	s.Pruned += t.Pruned
	s.MemoHits += t.MemoHits
	s.MemoMisses += t.MemoMisses
	s.PrunedByCutoff += t.PrunedByCutoff
	s.ReplaysSerial += t.ReplaysSerial
	s.ReplaysAborted += t.ReplaysAborted
	s.PhasesClosedForm += t.PhasesClosedForm
	s.PhasesEngine += t.PhasesEngine
	s.Certificates += t.Certificates
	for reason, n := range t.Declines {
		if s.Declines == nil {
			s.Declines = make(map[string]int64)
		}
		s.Declines[reason] += n
	}
}

// ReplayCounter accumulates the replay-mode counters of Stats from simnet
// results; the zero value is ready and it is safe for concurrent use. An
// Optimizer counts its own replays; a caller replaying plans itself (the
// /v1/cost endpoint) keeps one of its own.
type ReplayCounter struct {
	serial, aborted    atomic.Int64
	closedForm, engine atomic.Int64
	certificates       atomic.Int64

	mu       sync.Mutex
	declines map[string]int64
}

// Traced runs one replay of plan (or of a fragment of it) under a "replay"
// span — kind says which: "fragment", "plan", "cost" — and counts its
// result; cutoff is the makespan bound the replay runs under, +Inf for
// none. Every replay, finished or aborted at its cutoff, goes through
// here, so the replay stage's histogram accounts for all of a build's or a
// cost request's simulation time.
func (c *ReplayCounter) Traced(ctx context.Context, kind string, plan *exchange.Plan, cutoff float64, replay func() (simnet.Result, error)) (simnet.Result, error) {
	sp := obs.StartSpan(ctx, "replay")
	defer sp.End()
	if sp != nil { // an untraced replay can be microseconds: format nothing for it
		sp.SetAttr("kind", kind)
		sp.SetAttr("partition", plan.Partition().String())
		sp.SetInt("m", int64(plan.BlockSize()))
		if !math.IsInf(cutoff, 1) {
			sp.SetAttr("cutoff_us", strconv.FormatFloat(cutoff, 'f', 2, 64))
		}
	}
	res, err := replay()
	if errors.Is(err, simnet.ErrCutoff) {
		sp.SetAttr("aborted", "true")
		c.aborted.Add(1)
	}
	if err != nil {
		return res, err
	}
	sp.SetInt("phases", int64(res.ClosedFormPhases+res.EnginePhases))
	sp.SetInt("closed_form_phases", int64(res.ClosedFormPhases))
	c.serial.Add(1)
	c.closedForm.Add(int64(res.ClosedFormPhases))
	c.engine.Add(int64(res.EnginePhases))
	c.certificates.Add(int64(res.Certificates))
	if res.DeclineReason != "" {
		sp.SetAttr("decline", res.DeclineReason)
		c.mu.Lock()
		if c.declines == nil {
			c.declines = make(map[string]int64)
		}
		c.declines[res.DeclineReason]++
		c.mu.Unlock()
	}
	return res, nil
}

// AddTo accumulates the counters into s.
func (c *ReplayCounter) AddTo(s *Stats) {
	t := Stats{
		ReplaysSerial:    c.serial.Load(),
		ReplaysAborted:   c.aborted.Load(),
		PhasesClosedForm: c.closedForm.Load(),
		PhasesEngine:     c.engine.Load(),
		Certificates:     c.certificates.Load(),
	}
	c.mu.Lock()
	if len(c.declines) > 0 {
		t.Declines = make(map[string]int64, len(c.declines))
		for reason, n := range c.declines {
			t.Declines[reason] = n
		}
	}
	c.mu.Unlock()
	s.Add(t)
}

// Optimizer enumerates dimension groupings for one machine parameter set.
// It is safe for concurrent use and keeps no answers: every BestOn and
// BuildTableOnCtx call enumerates, and only its counters outlive it.
type Optimizer struct {
	params  model.Params
	backend Backend
	evals   atomic.Int64 // enumerations run

	workers    atomic.Int32 // SetWorkers; ≤ 0 selects the default
	exhaustive atomic.Bool  // SetExhaustive; disables pruning/reordering

	evaluated      atomic.Int64
	pruned         atomic.Int64
	prunedByCutoff atomic.Int64
	memoHits       atomic.Int64
	memoMisses     atomic.Int64
	replays        ReplayCounter
}

// evaluation is one BestOn or BuildTableOnCtx call on one topology: the
// fabric its replays run on and the phase memos its workers share. The
// call creates it and drops it when it returns.
type evaluation struct {
	*Optimizer
	topo        topology.Network
	net         *simnet.Network // the simulated backend's replay fabric
	simPhases   simMemo         // (field, m) -> fragment replay makespan, or a value it exceeds
	boundPhases simMemo         // (field, m) -> admissible lower bound, always exact
}

func (o *Optimizer) newEvaluation(topo topology.Network) *evaluation {
	e := &evaluation{Optimizer: o, topo: topo}
	if o.backend == Simulated {
		e.net = simnet.New(topo, o.params)
		e.net.SetEdgeQueue(false) // a candidate is priced by its makespan alone
	}
	return e
}

// phaseKey identifies one memoized phase of an evaluation: the dimension
// field [lo, lo+w) and the block size. Every grouping containing this
// field at this m shares the entry.
type phaseKey struct {
	lo, w int
	m     int
}

// simEntry is one memoized fragment cost, in one of two states: exact —
// val is the fragment's makespan — or bounded — the makespan is known to
// exceed val, the highest cutoff a replay of it was aborted at (−Inf
// before any). An entry only moves up: a bound rises, or becomes exact.
type simEntry struct {
	mu    sync.Mutex
	exact bool
	val   float64
	err   error
}

// simMemo is the simulated backend's phase memo. Its entries can be
// asked again: a caller whose cutoff lies beyond what an entry records
// replays the fragment, under that cutoff, and leaves the entry exact or
// with a higher bound. Same-key callers wait on the entry. Looked up with
// an infinite cutoff, as the admissible bounds are, an entry is computed
// once and answers exactly, or with its error, ever after.
type simMemo struct {
	mu sync.Mutex
	m  map[phaseKey]*simEntry
}

// get returns the fragment's makespan (exact), or — when that is known to
// exceed cutoff — a value at or above cutoff that it exceeds. replay runs
// the fragment under the cutoff and reports simnet.ErrCutoff for a run it
// abandoned; a lookup that replays is a miss, every other one a hit.
func (t *simMemo) get(k phaseKey, cutoff float64, hits, misses *atomic.Int64, replay func(cutoff float64) (float64, error)) (val float64, exact bool, err error) {
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[phaseKey]*simEntry)
	}
	e, ok := t.m[k]
	if !ok {
		e = &simEntry{val: math.Inf(-1)}
		t.m[k] = e
	}
	t.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil || e.exact || e.val >= cutoff {
		hits.Add(1)
		return e.val, e.exact, e.err
	}
	misses.Add(1)
	switch v, err := replay(cutoff); {
	case err == nil:
		e.val, e.exact = v, true
	case errors.Is(err, simnet.ErrCutoff):
		e.val = cutoff
	default:
		e.err = err
	}
	return e.val, e.exact, e.err
}

// enumSet is the cached candidate enumeration of one topology shape: the
// groupings and, per grouping, its phase fields. It depends on a topology
// only through its enumKey, so one set serves every topology of that
// shape — healthy or degraded, whatever the radices — on every optimizer
// of the process, for every (m) query and table build.
type enumSet struct {
	once   sync.Once
	parts  []partition.Partition
	fields [][][2]int
	// distinct lists every field some grouping uses, once, and phase[i][j]
	// is the index in it of grouping i's j-th field: the analytic backend
	// prices a field once per block size, not once per grouping it occurs
	// in. On a healthy fabric whose dimensions share one radix a field's
	// radices and routed distances are the same wherever it starts, so
	// its cost is its width alone and distinct has at most k entries.
	distinct [][2]int
	phase    [][]int32
	err      error
}

// New returns an optimizer over the given machine parameters using the
// analytic backend.
func New(p model.Params) *Optimizer {
	return &Optimizer{params: p, backend: Analytic}
}

// NewSimulated returns an optimizer that costs candidates by simulation
// on the trace-compiled path. Dimensions up to MaxSimulatedDim are
// accepted; a table sweep's points are costed on a worker pool bounded by
// GOMAXPROCS (SetWorkers), the candidates of one point serially.
func NewSimulated(p model.Params) *Optimizer {
	return &Optimizer{params: p, backend: Simulated}
}

// Backend reports how the optimizer costs candidates.
func (o *Optimizer) Backend() Backend { return o.backend }

// SetWorkers bounds the simulated backend's sweep worker pool: the points
// of one table build are dealt to at most n workers, each costing a
// point's candidates serially. A BestOn call, or a one-point table, is
// costed on the calling goroutine alone. n ≤ 0 restores the default,
// GOMAXPROCS; requests above GOMAXPROCS are clamped. The analytic backend
// prices an enumeration from closed forms in microseconds and never fans
// out. Safe to call concurrently with a build; an in-flight build keeps
// the pool it started with. The pool size never changes the table
// returned.
func (o *Optimizer) SetWorkers(n int) {
	if max := runtime.GOMAXPROCS(0); n > max {
		n = max
	}
	o.workers.Store(int32(n))
}

// poolSize is the worker bound SetWorkers left, or its default.
func (o *Optimizer) poolSize() int {
	if w := int(o.workers.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// SetExhaustive toggles the branch-and-bound cut and the best-first
// candidate ordering off (true) or back on (false). With pruning off,
// every candidate is costed in enumeration order — the oracle mode the
// equivalence tests compare against; the admissible bound guarantees the
// returned Choice is identical either way.
func (o *Optimizer) SetExhaustive(on bool) { o.exhaustive.Store(on) }

// Stats returns a snapshot of the evaluation counters.
func (o *Optimizer) Stats() Stats {
	s := Stats{
		Evaluations:    o.evals.Load(),
		Evaluated:      o.evaluated.Load(),
		Pruned:         o.pruned.Load(),
		MemoHits:       o.memoHits.Load(),
		MemoMisses:     o.memoMisses.Load(),
		PrunedByCutoff: o.prunedByCutoff.Load(),
	}
	o.replays.AddTo(&s)
	return s
}

// Params returns the machine parameters the optimizer evaluates against.
func (o *Optimizer) Params() model.Params { return o.params }

// MaxMixedRadixDims bounds the dimension count of topologies with
// unequal radices: those enumerate all 2^(k−1) ordered compositions, so
// the candidate count — unlike the uniform case's p(k), 627 at k=20 —
// grows exponentially in k. 17 dimensions cap the enumeration at 2^16
// candidates. Serving tiers enforce a tighter bound at request
// validation (plancache.ResolveTopology); this one is the library-level
// backstop.
const MaxMixedRadixDims = 17

// BestOn returns the fastest dimension grouping for a complete exchange
// of block size m on any topology. The enumeration is over the p(k)
// groupings of the k dimensions when all radices are equal (order cannot
// matter) and over all 2^(k−1) ordered compositions otherwise. Every call
// enumerates; a caller that asks again keeps the answer.
func (o *Optimizer) BestOn(net topology.Network, m int) (Choice, error) {
	return o.newEvaluation(net).best(context.Background(), m, nil)
}

// checkEnumerable is what an enumeration asks of a topology before it costs
// anything on it, whatever the block size.
func (o *Optimizer) checkEnumerable(net topology.Network) error {
	if net.Nodes() > 1<<20 {
		return fmt.Errorf("optimize: %s exceeds the enumeration limit of 2^20 nodes", net.Name())
	}
	if !topology.UniformRadices(net) && net.NumDims() > MaxMixedRadixDims {
		return fmt.Errorf("optimize: %s has %d unequal-radix dimensions; composition enumeration is limited to %d",
			net.Name(), net.NumDims(), MaxMixedRadixDims)
	}
	// A non-operational degraded fabric (dead node, severed partition)
	// cannot host any complete exchange: fail the optimization up front
	// with the typed unroutable error instead of letting fault-aware
	// routing panic inside costing.
	if err := topology.CheckOperational(net); err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	if o.backend == Simulated && net.Nodes() > 1<<MaxSimulatedDim {
		return fmt.Errorf("optimize: simulated backend limited to %d nodes, got %s",
			1<<MaxSimulatedDim, net.Name())
	}
	return nil
}

// groupings enumerates the candidate dimension groupings of a topology:
// the partitions of k when every radix is equal (the hypercube's p(d)
// partitions, §6) and all ordered compositions of k otherwise.
func groupings(net topology.Network) []partition.Partition {
	k := net.NumDims()
	if topology.UniformRadices(net) {
		return partition.All(k)
	}
	var out []partition.Partition
	cur := make([]int, 0, k)
	var rec func(remaining int)
	rec = func(remaining int) {
		if remaining == 0 {
			out = append(out, append(partition.Partition(nil), cur...))
			return
		}
		for part := remaining; part >= 1; part-- {
			cur = append(cur, part)
			rec(remaining - part)
			cur = cur[:len(cur)-1]
		}
	}
	rec(k)
	return out
}

// enumKey is all the enumeration asks of a topology: how many dimensions
// there are to group, whether they share one radix (partitions suffice;
// otherwise ordered compositions), and whether a field is priced by its
// width alone (a healthy uniform-radix fabric). At most a few dozen keys
// exist.
type enumKey struct {
	dims             int
	uniform, byWidth bool
}

var (
	enumMu   sync.Mutex
	enumSets = make(map[enumKey]*enumSet)
)

// enumFor returns the cached enumeration of topo's shape (groupings plus
// per-grouping phase fields), computing it on first use.
func enumFor(topo topology.Network) (*enumSet, error) {
	uniform := topology.UniformRadices(topo)
	byWidth := uniform && topology.HealthDigestOf(topo) == "ok"
	k := enumKey{dims: topo.NumDims(), uniform: uniform, byWidth: byWidth}
	enumMu.Lock()
	es, ok := enumSets[k]
	if !ok {
		es = new(enumSet)
		enumSets[k] = es
	}
	enumMu.Unlock()
	es.once.Do(func() {
		es.parts = groupings(topo)
		es.fields = make([][][2]int, len(es.parts))
		es.phase = make([][]int32, len(es.parts))
		index := make(map[[2]int]int32)
		for i, D := range es.parts {
			es.fields[i], es.err = topology.PhaseFields(topo, D)
			if es.err != nil {
				return
			}
			es.phase[i] = make([]int32, len(es.fields[i]))
			for j, f := range es.fields[i] {
				if byWidth {
					f[0] = 0
				}
				k, ok := index[f]
				if !ok {
					k = int32(len(es.distinct))
					index[f] = k
					es.distinct = append(es.distinct, f)
				}
				es.phase[i][j] = k
			}
		}
	})
	return es, es.err
}

// best costs the topology's groupings at block size m and returns the
// winner (ties go to the candidate with fewer phases, then to enumeration
// order, as always), costing them on the calling goroutine. hint is an
// optional warm start — a grouping expected to be (near-)optimal, a lower
// sweep point's winner, evaluated first so the incumbent starts tight and
// the bound cuts early; it changes only the order of evaluation, never
// the returned Choice. ctx is used solely for observability (replay spans
// land on the calling request's trace); it does not cancel the
// enumeration.
func (e *evaluation) best(ctx context.Context, m int, hint partition.Partition) (Choice, error) {
	topo := e.topo
	if m < 0 {
		return Choice{}, fmt.Errorf("optimize: negative block size %d", m)
	}
	if err := e.checkEnumerable(topo); err != nil {
		return Choice{}, err
	}
	e.evals.Add(1)
	if topo.NumDims() == 0 {
		return Choice{Topo: topo.Name(), D: 0, Block: m, Part: nil, TimeMicro: 0, Backend: e.backend}, nil
	}
	es, err := enumFor(topo)
	if err != nil {
		return Choice{}, err
	}
	if e.backend == Analytic {
		i, t, err := e.newAnalyticPricer(topo, es).winner(m)
		if err != nil {
			return Choice{}, err
		}
		e.evaluated.Add(int64(len(es.parts)))
		return Choice{Topo: topo.Name(), D: topo.NumDims(), Block: m, Part: es.parts[i].Clone(), TimeMicro: t, Backend: Analytic}, nil
	}
	return e.evaluateSimulated(ctx, m, es, hint)
}

// evaluateSimulated is the simulated backend's memoized, branch-and-bound-
// pruned enumeration: the candidates are costed one after another, best
// first, each under the incumbent the earlier ones left.
//
// Selection uses each candidate's phase-sum: the left-to-right sum of its
// memoized per-phase values, each one compiled fragment replay (barrier +
// steps + shuffle). The phase-sum equals the whole-plan makespan up to
// float64 summation order, and the reported TimeMicro is re-derived from
// one whole-plan replay of the winner so it matches Plan.Cost bit-for-bit.
//
// Pruning discards a candidate only when candidateCost proves its
// phase-sum exceeds the incumbent's by more than pruneSlack; since the
// incumbent only decreases toward the true minimum, a pruned candidate's
// cost is strictly above the winner's — it can neither win nor tie — so
// the reduction over the surviving candidates returns the same Choice as
// exhaustive enumeration.
func (e *evaluation) evaluateSimulated(ctx context.Context, m int, es *enumSet, hint partition.Partition) (Choice, error) {
	topo, parts, fields := e.topo, es.parts, es.fields
	prune := !e.exhaustive.Load()

	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	var lbs []float64       // per candidate, the sum of its phases' bounds
	var phaseLB [][]float64 // per candidate, per phase
	if prune {
		lbs = make([]float64, len(parts))
		phaseLB = make([][]float64, len(parts))
		phases := 0
		for _, f := range fields {
			phases += len(f)
		}
		flat := make([]float64, phases)
		for i := range parts {
			phaseLB[i], flat = flat[:len(fields[i])], flat[len(fields[i]):]
			lb, err := e.candidateBound(m, fields[i], phaseLB[i])
			if err != nil {
				return Choice{}, err
			}
			lbs[i] = lb
		}
		// Best-first: ascending bound, then fewer phases, then
		// enumeration order — the cheapest-looking candidate seeds the
		// incumbent so the cut engages as early as possible.
		sort.SliceStable(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if lbs[ia] != lbs[ib] {
				return lbs[ia] < lbs[ib]
			}
			if len(parts[ia]) != len(parts[ib]) {
				return len(parts[ia]) < len(parts[ib])
			}
			return ia < ib
		})
		if hint != nil {
			for pos, i := range order {
				if parts[i].Equal(hint) {
					copy(order[1:pos+1], order[:pos])
					order[0] = i
					break
				}
			}
		}
	}

	costs := make([]float64, len(parts))
	done := make([]bool, len(parts))
	incumbent := math.Inf(1)
	for _, i := range order {
		limit, lb := math.Inf(1), []float64(nil)
		if prune {
			limit = incumbent * (1 + pruneSlack)
			lb = phaseLB[i]
		}
		c, fits, err := e.candidateCost(ctx, m, parts[i], fields[i], lb, limit)
		if err != nil {
			return Choice{}, err
		}
		if !fits {
			continue
		}
		costs[i] = c
		done[i] = true
		e.evaluated.Add(1)
		incumbent = min(incumbent, c)
	}
	best := Choice{Topo: topo.Name(), D: topo.NumDims(), Block: m, Backend: e.backend}
	first := true
	for i := range parts {
		if !done[i] {
			continue
		}
		t := costs[i]
		if first || t < best.TimeMicro || (t == best.TimeMicro && len(parts[i]) < len(best.Part)) {
			best.Part = parts[i]
			best.TimeMicro = t
			first = false
		}
	}
	if first {
		return Choice{}, fmt.Errorf("optimize: internal: every candidate was pruned")
	}
	best.Part = best.Part.Clone()
	t, err := e.finalizeSimulated(ctx, m, best.Part)
	if err != nil {
		return Choice{}, err
	}
	best.TimeMicro = t
	return best, nil
}

// candidateBound fills perPhase with the candidate's memoized per-phase
// admissible lower bounds and returns their sum.
func (e *evaluation) candidateBound(m int, fields [][2]int, perPhase []float64) (float64, error) {
	total := 0.0
	for pi, f := range fields {
		lo, w := f[0], f[1]
		v, _, err := e.boundPhases.get(phaseKey{lo: lo, w: w, m: m}, math.Inf(1), &e.memoHits, &e.memoMisses,
			func(float64) (float64, error) { return e.params.PhaseLowerBoundOn(e.topo, m, lo, w) })
		if err != nil {
			return 0, err
		}
		perPhase[pi] = v
		total += v
	}
	return total, nil
}

// candidateCost screens one candidate: the left-to-right sum of its
// memoized per-phase costs, one compiled fragment replay per distinct
// (field, m).
//
// It also holds the one pruning rule. lb are the phases' admissible
// lower bounds (nil to cost unconditionally, as
// SetExhaustive does) and limit what the candidate's sum must not exceed
// to stay in contention, the incumbent plus pruneSlack. Phase i may then
// cost at most
//
//	cutoff = limit − Σ exact costs of phases before i − Σ bounds of phases after i
//
// and the candidate is out (fits = false) as soon as one phase is known
// to cost more: by its bound, with no replay — for the first phase that
// is the whole candidate's bound against the incumbent — by a memo entry,
// or by the replay itself, which runs under the cutoff and stops the
// instant it passes it.
func (e *evaluation) candidateCost(ctx context.Context, m int, D partition.Partition, fields [][2]int, lb []float64, limit float64) (cost float64, fits bool, err error) {
	var plan *exchange.Plan // built by the first phase that has to replay
	later := 0.0            // Σ bounds of the phases after the current one
	for _, b := range lb {
		later += b
	}
	total := 0.0
	for pi, f := range fields {
		cutoff := math.Inf(1)
		if lb != nil {
			later -= lb[pi]
			cutoff = limit - total - later
			if lb[pi] > cutoff {
				e.countPruned(pi > 0)
				return 0, false, nil
			}
		}
		v, exact, err := e.simPhases.get(phaseKey{lo: f[0], w: f[1], m: m}, cutoff, &e.memoHits, &e.memoMisses,
			func(cutoff float64) (float64, error) {
				if plan == nil {
					var err error
					if plan, err = exchange.NewPlanOn(e.topo, m, D); err != nil {
						return 0, err
					}
				}
				return e.replayFragment(ctx, plan, pi, cutoff)
			})
		if err != nil {
			return 0, false, err
		}
		if !exact || v > cutoff {
			e.countPruned(true)
			return 0, false, nil
		}
		total += v
	}
	return total, true, nil
}

// countPruned counts one candidate proven a loser: by the admissible
// bounds alone, or (byCutoff) with the help of a replay.
func (o *Optimizer) countPruned(byCutoff bool) {
	o.pruned.Add(1)
	if byCutoff {
		o.prunedByCutoff.Add(1)
	}
}

// replayFragment prices phase pi of plan by one compiled fragment replay
// bounded by cutoff; every memo miss of the simulated backend goes through
// here.
func (e *evaluation) replayFragment(ctx context.Context, plan *exchange.Plan, pi int, cutoff float64) (float64, error) {
	res, err := e.replays.Traced(ctx, "fragment", plan, cutoff, func() (simnet.Result, error) {
		return e.net.RunSourceBounded(plan.CompilePhase(pi), cutoff)
	})
	return res.Makespan, err
}

// finalizeSimulated re-derives the winner's reported time from one
// whole-plan replay so Choice.TimeMicro matches Plan.Cost bit-for-bit
// (the screening phase-sum can differ in the last ulps from the
// single-pass makespan). A single-phase winner's fragment is row-for-row
// the whole plan, so its memoized value is reused without a replay —
// that is the expensive {d} candidate, and it is exactly the one the
// sweep's large-m points keep winning with. The lookup passes no cutoff,
// so it only ever reads an exact entry: the winner's, costed in full.
func (e *evaluation) finalizeSimulated(ctx context.Context, m int, D partition.Partition) (float64, error) {
	plan, err := exchange.NewPlanOn(e.topo, m, D)
	if err != nil {
		return 0, err
	}
	noCutoff := math.Inf(1)
	if plan.NumPhases() == 1 {
		fields, err := topology.PhaseFields(e.topo, D)
		if err != nil {
			return 0, err
		}
		lo, w := fields[0][0], fields[0][1]
		v, _, err := e.simPhases.get(phaseKey{lo: lo, w: w, m: m}, noCutoff, &e.memoHits, &e.memoMisses,
			func(cutoff float64) (float64, error) { return e.replayFragment(ctx, plan, 0, cutoff) })
		return v, err
	}
	res, err := e.replays.Traced(ctx, "plan", plan, noCutoff, func() (simnet.Result, error) { return plan.Cost(e.net) })
	return res.Makespan, err
}

// Plan returns an executable exchange plan for the optimizer's best
// partition of a d-cube at block size m.
func (o *Optimizer) Plan(d, m int) (*exchange.Plan, error) {
	cube, err := topology.New(d)
	if err != nil {
		return nil, err
	}
	c, err := o.BestOn(cube, m)
	if err != nil {
		return nil, err
	}
	return exchange.NewPlanOn(cube, m, c.Part)
}

// Table is the precomputed optimal-partition table over a block-size
// range, the artifact the paper suggests computing once and storing "for
// repeated future use" (§6).
type Table struct {
	// Topo is the topology's registry name; D its dimension count.
	Topo     string
	D        int
	Segments []model.HullSegment
}

// BuildTableOnCtx returns the hull-of-optimality table of any topology over
// the block sizes mLo, mLo+step, … ≤ mHi: the winner at each of those
// lattice points, equal neighbours folded into segments. Every call
// builds; the plan cache keeps the table and builds each line once.
//
// On the analytic backend the table is computed as the lower envelope of
// the candidates' cost lines (envelopeTable): one enumeration, a handful
// of block sizes actually priced, nothing retained. On the simulated
// backend every lattice point is costed: the points are dealt to the
// optimizer's workers (sweepPoints) and warm-start each other — a point's
// winner is evaluated first at the next point up, so the incumbent starts
// tight, every other candidate's replays run under a finite cutoff, and
// the call's phase memo prices most candidates without any new replay.
//
// ctx is checked before an analytic build and before each simulated sweep
// point: a caller that no longer needs the table (the plan cache's
// fully-abandoned line fill) aborts a sweep after at most one more BestOn
// enumeration per worker instead of paying for the whole hull.
func (o *Optimizer) BuildTableOnCtx(ctx context.Context, net topology.Network, mLo, mHi, step int) (Table, error) {
	if mLo < 0 || mHi < mLo {
		return Table{}, fmt.Errorf("optimize: bad sweep [%d,%d]", mLo, mHi)
	}
	if step < 1 {
		step = 1
	}
	sp := obs.StartSpan(ctx, "optimizer")
	if sp == nil { // untraced: no counter snapshots to take
		return o.buildTableOn(ctx, net, mLo, mHi, step)
	}
	before := o.Stats()
	t, err := o.buildTableOn(ctx, net, mLo, mHi, step)
	// Deltas are process-wide, so a concurrent build on another topology
	// inflates them; good enough for trace triage.
	after := o.Stats()
	sp.SetAttr("topology", net.Name())
	sp.SetInt("segments", int64(len(t.Segments)))
	sp.SetInt("evaluated", after.Evaluated-before.Evaluated)
	sp.SetInt("pruned", after.Pruned-before.Pruned)
	sp.SetInt("memo_hits", after.MemoHits-before.MemoHits)
	sp.SetInt("memo_misses", after.MemoMisses-before.MemoMisses)
	sp.End()
	return t, err
}

func (o *Optimizer) buildTableOn(ctx context.Context, net topology.Network, mLo, mHi, step int) (Table, error) {
	if o.backend == Analytic {
		return o.envelopeTable(ctx, net, mLo, mHi, step)
	}
	return o.newEvaluation(net).sweepPoints(ctx, mLo, mHi, step)
}

// sweepPoints is the simulated backend's table build, and the only place
// the optimizer fans out. A point-by-point loop carries nothing from
// point to point but an ordering hint, so its iterations are dealt, in m
// order, to the optimizer's workers and the segments folded afterwards.
// best costs each point's candidates serially, best first: a candidate
// started beside another has no incumbent yet, and its replays would run
// with no cutoff. The hint is the winner of the nearest lower
// point already finished; ctx is checked by each worker before each
// point. With one worker, or one point, this is that loop, point for
// point.
func (e *evaluation) sweepPoints(ctx context.Context, mLo, mHi, step int) (Table, error) {
	points := (mHi-mLo)/step + 1
	winners := make([]partition.Partition, points)
	finished := make([]bool, points)
	var (
		mu       sync.Mutex // guards everything below, and the two slices
		next     int
		failed   error // of the lowest point that failed
		failedAt int
	)
	work := func() {
		for {
			mu.Lock()
			if failed != nil || next == points {
				mu.Unlock()
				return
			}
			i := next
			next++
			var hint partition.Partition
			for j := i - 1; j >= 0; j-- {
				if finished[j] {
					hint = winners[j]
					break
				}
			}
			mu.Unlock()

			var c Choice
			err := ctx.Err()
			if err == nil {
				c, err = e.best(ctx, mLo+i*step, hint)
			}
			mu.Lock()
			if err == nil {
				winners[i], finished[i] = c.Part, true
			} else if failed == nil || i < failedAt {
				failed, failedAt = err, i
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := min(e.poolSize(), points); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if failed != nil {
		return Table{}, failed
	}
	var segs []model.HullSegment
	for i, part := range winners {
		m := mLo + i*step
		if n := len(segs); n > 0 && segs[n-1].Part.Equal(part) {
			segs[n-1].MaxBlock = m
			continue
		}
		segs = append(segs, model.HullSegment{Part: part, MinBlock: m, MaxBlock: m})
	}
	return Table{Topo: e.topo.Name(), D: e.topo.NumDims(), Segments: segs}, nil
}

// Lookup returns the optimal partition for block size m from the table
// (the segment containing m, or the nearest segment for out-of-range m).
func (t Table) Lookup(m int) partition.Partition {
	seg, _ := t.LookupSegment(m)
	return seg.Part
}

// LookupSegment returns the hull segment answering block size m, and
// whether m actually lies inside it. ok=false means the nearest segment
// answered: below the table's low bound the first segment, above the
// high bound the last one (for large blocks the hull has converged to
// its asymptotic partition, so the clamp is the right extrapolation),
// and — for tables built on a lattice of step > 1, whose segments begin
// and end on lattice points — the next segment up when m falls between
// the last point of one segment and the first of the next. On an empty
// table the zero segment and false are returned.
func (t Table) LookupSegment(m int) (model.HullSegment, bool) {
	if len(t.Segments) == 0 {
		return model.HullSegment{}, false
	}
	i := sort.Search(len(t.Segments), func(i int) bool { return t.Segments[i].MaxBlock >= m })
	if i == len(t.Segments) {
		i = len(t.Segments) - 1
	}
	seg := t.Segments[i]
	return seg, m >= seg.MinBlock && m <= seg.MaxBlock
}

// Bounds returns the block-size range [lo, hi] the table covers; ok is
// false for an empty table.
func (t Table) Bounds() (lo, hi int, ok bool) {
	if len(t.Segments) == 0 {
		return 0, 0, false
	}
	return t.Segments[0].MinBlock, t.Segments[len(t.Segments)-1].MaxBlock, true
}

// Validate checks a table read from outside the optimizer (a snapshot or
// peer line): every grouping splits the D dimensions into positive parts,
// and the block ranges are non-empty, non-negative and strictly
// ascending, so LookupSegment answers each covered block size from the
// one segment holding it.
func (t Table) Validate() error {
	prevMax := -1
	for _, seg := range t.Segments {
		valid := seg.Part.Sum() == t.D && (t.D == 0 || len(seg.Part) > 0)
		for _, di := range seg.Part {
			valid = valid && di > 0
		}
		if !valid {
			return fmt.Errorf("grouping %v invalid for %s", seg.Part, t.Topo)
		}
		if seg.MinBlock > seg.MaxBlock || seg.MinBlock <= prevMax {
			return fmt.Errorf("segment range [%d,%d] out of order", seg.MinBlock, seg.MaxBlock)
		}
		prevMax = seg.MaxBlock
	}
	return nil
}
