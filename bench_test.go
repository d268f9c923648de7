// Package repro's benchmark harness regenerates every table and figure of
// the paper (one benchmark per artifact, E1–E8 as indexed in internal/experiments)
// and adds ablation benches for the design choices the paper discusses
// (pairwise sync, FORCED vs UNFORCED, shuffle cost ρ, schedule choice).
//
// Simulated virtual-time results are attached to each benchmark through
// b.ReportMetric as "sim_µs" (virtual microseconds on the modeled
// iPSC-860), so `go test -bench . -benchmem` prints the paper-comparable
// numbers next to the wall-clock cost of computing them.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/collectives"
	"repro/internal/event"
	"repro/internal/exchange"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/plancache"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// simulate costs one exchange plan on a fresh simulated network via the
// trace-compiled path (bit-identical to the goroutine-backed Simulate,
// without moving payloads; exchange.TestCostEqualsSimulate pins the
// identity).
func simulate(b *testing.B, d, m int, D partition.Partition, prm model.Params) simnet.Result {
	b.Helper()
	plan, err := exchange.NewPlan(d, m, D)
	if err != nil {
		b.Fatal(err)
	}
	res, err := plan.Cost(simnet.New(topology.MustNew(d), prm))
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkE1_Crossover regenerates the §4.3 crossover example: SE vs OCS
// on the hypothetical d=6 machine across the 0–100B sweep. Reported
// metric: the crossover block size (paper: 30 bytes).
func BenchmarkE1_Crossover(b *testing.B) {
	prm := model.Hypothetical()
	var crossover float64
	for i := 0; i < b.N; i++ {
		crossover = prm.CrossoverBlockSize(6)
		for m := 0; m <= 100; m += 4 {
			_ = prm.StandardExchange(m, 6)
			_ = prm.OptimalCircuitSwitched(m, 6)
		}
	}
	b.ReportMetric(crossover, "crossover_B")
}

// BenchmarkE2_TwoPhaseExample regenerates the §5.1 worked example: d=6,
// m=24, partition {2,4} on the hypothetical machine, simulated end to end.
// Paper arithmetic: 10944 µs (with its 160B phase-2 block); consistent
// formula: 9984 µs. Reported metric: simulated total.
func BenchmarkE2_TwoPhaseExample(b *testing.B) {
	prm := model.Hypothetical()
	var last float64
	for i := 0; i < b.N; i++ {
		res := simulate(b, 6, 24, partition.Partition{2, 4}, prm)
		last = res.Makespan
	}
	b.ReportMetric(last, "sim_µs")
}

// BenchmarkE3_PartitionTable regenerates the §6 table of p(d) for
// d = 1..20 by both counting methods. Reported metric: p(20) (paper: 627).
func BenchmarkE3_PartitionTable(b *testing.B) {
	var p20 int
	for i := 0; i < b.N; i++ {
		for d := 1; d <= 20; d++ {
			if partition.Count(d) != partition.CountEuler(d) {
				b.Fatal("counting methods disagree")
			}
		}
		p20 = partition.Count(20)
	}
	b.ReportMetric(float64(p20), "p(20)")
}

// benchFigure simulates every curve of one paper figure across the block
// sweep and reports the simulated time of the multiphase winner at 40B.
func benchFigure(b *testing.B, d int) {
	prm := model.IPSC860()
	curves := experiments.FigureCurves(d)
	sweep := experiments.BlockSweep()
	var at40 float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, D := range curves {
			for _, m := range sweep {
				res := simulate(b, d, m, D, prm)
				if m == 40 && len(D) == 2 {
					at40 = res.Makespan
				}
			}
		}
	}
	b.ReportMetric(at40, "mp_at_40B_µs")
}

// BenchmarkE4_Figure4_D5 regenerates Figure 4 (32-node iPSC-860):
// curves {1,1,1,1,1}, {2,3}, {5} over 0–400B.
func BenchmarkE4_Figure4_D5(b *testing.B) { benchFigure(b, 5) }

// BenchmarkE5_Figure5_D6 regenerates Figure 5 (64-node iPSC-860):
// curves {1,...}, {2,2,2}, {3,3}, {6} over 0–400B.
func BenchmarkE5_Figure5_D6(b *testing.B) { benchFigure(b, 6) }

// BenchmarkE6_Figure6_D7 regenerates Figure 6 (128-node iPSC-860):
// curves {1,...}, {2,2,3}, {3,4}, {7} over 0–400B. The 40B metric is the
// paper's headline: {3,4} ≈ 16000 µs vs 37000 µs for both classics.
func BenchmarkE6_Figure6_D7(b *testing.B) { benchFigure(b, 7) }

// BenchmarkE7_SyncOverhead regenerates the §7.2/§7.4 synchronization
// accounting: one 100B exchange under synced/serialized/ideal modes.
// Reported metric: synced-exchange simulated time (λ0+δ + λ+τ·100+δ).
func BenchmarkE7_SyncOverhead(b *testing.B) {
	var synced float64
	for i := 0; i < b.N; i++ {
		for _, prm := range []model.Params{
			model.IPSC860(), model.IPSC860NoSync(), model.IPSC860Raw(),
		} {
			net := simnet.New(topology.MustNew(1), prm)
			res, err := net.Run([]simnet.Program{
				{simnet.Exchange(1, 100)},
				{simnet.Exchange(0, 100)},
			})
			if err != nil {
				b.Fatal(err)
			}
			if prm.Exchange == model.ExchangeSynced {
				synced = res.Makespan
			}
		}
	}
	b.ReportMetric(synced, "sim_µs")
}

// BenchmarkE8_ContentionFree verifies (and times) the schedule-analysis
// claim: every step of every multiphase plan for d ≤ 6 is edge-contention-
// free under e-cube routing. Reported metric: steps analyzed.
func BenchmarkE8_ContentionFree(b *testing.B) {
	var steps int
	for i := 0; i < b.N; i++ {
		steps = 0
		for d := 1; d <= 6; d++ {
			h := topology.MustNew(d)
			for _, D := range partition.All(d) {
				plan, err := exchange.NewPlan(d, 1, D)
				if err != nil {
					b.Fatal(err)
				}
				for _, step := range plan.Steps() {
					r, err := topology.Analyze(h, step)
					if err != nil {
						b.Fatal(err)
					}
					if !r.EdgeContentionFree() {
						b.Fatal("contended step in multiphase plan")
					}
					steps++
				}
			}
		}
	}
	b.ReportMetric(float64(steps), "steps")
}

// BenchmarkAblation_PairwiseSync compares the full d=6, 40B exchange with
// and without pairwise synchronization (§7.2: sync always wins on the
// iPSC-860). Reported metric: serialized/synced time ratio (>1).
func BenchmarkAblation_PairwiseSync(b *testing.B) {
	D := partition.Partition{3, 3}
	var ratio float64
	for i := 0; i < b.N; i++ {
		synced := simulate(b, 6, 40, D, model.IPSC860())
		serial := simulate(b, 6, 40, D, model.IPSC860NoSync())
		ratio = serial.Makespan / synced.Makespan
	}
	b.ReportMetric(ratio, "serial/synced")
}

// BenchmarkAblation_RhoZero re-derives the d=7 hull with free shuffles
// (ρ=0), the paper's §7.4 remark that better codegen would shrink ρ but
// "will not affect our overall approach". Reported metric: number of hull
// faces with ρ=0 (multiphase partitions must still appear).
func BenchmarkAblation_RhoZero(b *testing.B) {
	prm := model.IPSC860()
	prm.Rho = 0
	var faces int
	for i := 0; i < b.N; i++ {
		hull := prm.Hull(7, 0, 400, 8, false)
		parts := model.HullPartitions(hull)
		multiphase := false
		for _, D := range parts {
			if len(D) > 1 {
				multiphase = true
			}
		}
		if !multiphase {
			b.Fatal("with rho=0 multiphase should still win somewhere")
		}
		faces = len(parts)
	}
	b.ReportMetric(float64(faces), "hull_faces")
}

// BenchmarkAblation_ForcedVsUnforced compares a 400B one-sided send under
// FORCED vs UNFORCED semantics (§7.1: UNFORCED pays a reserve-ack round
// trip above 100B). Reported metric: UNFORCED/FORCED time ratio.
func BenchmarkAblation_ForcedVsUnforced(b *testing.B) {
	prm := model.IPSC860Raw()
	net := simnet.New(topology.MustNew(2), prm)
	var ratio float64
	for i := 0; i < b.N; i++ {
		run := func(t simnet.MsgType) float64 {
			res, err := net.Run([]simnet.Program{
				{simnet.PostRecv(1), simnet.Send(1, 400, t), simnet.WaitRecv(1)},
				{simnet.PostRecv(0), simnet.Send(0, 400, t), simnet.WaitRecv(0)},
				nil, nil,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Makespan
		}
		ratio = run(simnet.Unforced) / run(simnet.Forced)
	}
	b.ReportMetric(ratio, "unforced/forced")
}

// BenchmarkAblation_NaiveSchedule quantifies why scheduling matters: the
// naive all-into-one complete exchange (every node sends block i to node i
// at step i) against the XOR schedule, both as raw sends on d=5. Reported
// metric: naive/XOR simulated time ratio (edge contention serializes the
// naive schedule).
func BenchmarkAblation_NaiveSchedule(b *testing.B) {
	prm := model.IPSC860Raw()
	h := topology.MustNew(5)
	n := h.Nodes()
	m := 64
	var ratio float64
	for i := 0; i < b.N; i++ {
		// Naive: step i, everyone sends to node i.
		naive := make([]simnet.Program, n)
		for p := 0; p < n; p++ {
			var prog simnet.Program
			for q := 0; q < n; q++ {
				if q != p {
					prog = append(prog, simnet.PostRecv(q))
				}
			}
			prog = append(prog, simnet.Barrier())
			for step := 0; step < n; step++ {
				if step != p {
					prog = append(prog, simnet.Send(step, m, simnet.Forced))
				}
			}
			for q := 0; q < n; q++ {
				if q != p {
					prog = append(prog, simnet.WaitRecv(q))
				}
			}
			naive[p] = prog
		}
		net := simnet.New(h, prm)
		naiveRes, err := net.Run(naive)
		if err != nil {
			b.Fatal(err)
		}
		if naiveRes.ContentionStall == 0 {
			b.Fatal("naive schedule should stall on contention")
		}
		xor := simulate(b, 5, m, partition.Partition{5}, prm)
		ratio = naiveRes.Makespan / xor.Makespan
	}
	b.ReportMetric(ratio, "naive/xor")
}

// BenchmarkOptimizerEnumeration times the §6 enumeration: best partition
// for d=10 (p(10)=42 candidates) at one block size.
func BenchmarkOptimizerEnumeration(b *testing.B) {
	prm := model.IPSC860()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := optimize.New(prm) // fresh cache each iteration
		if _, err := opt.BestOn(topology.MustNew(10), 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateOCS_D7 times one full 128-node Optimal Circuit-Switched
// compiled replay (127 steps × 128 nodes), the heaviest single simulation
// in the figure sweeps.
func BenchmarkSimulateOCS_D7(b *testing.B) {
	prm := model.IPSC860()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = simulate(b, 7, 160, partition.Partition{7}, prm)
	}
}

// BenchmarkCostingCompiled times the trace-compiled costing path — plans
// lowered straight to per-node simnet programs and replayed with no
// goroutines, no mailboxes and no payload bytes — on the d=7 figure-sweep
// case (every Figure-6 curve at the 40B headline block) and the fully
// simulated optimizer enumeration at d=10, m=64 (p(10)=42 candidates).
func BenchmarkCostingCompiled(b *testing.B) {
	prm := model.IPSC860()
	b.Run("figure6_d7_m40", func(b *testing.B) {
		b.ReportAllocs()
		var last float64
		for i := 0; i < b.N; i++ {
			for _, D := range experiments.FigureCurves(7) {
				last = simulate(b, 7, 40, D, prm).Makespan
			}
		}
		b.ReportMetric(last, "sim_µs")
	})
	b.Run("best_d10_m64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opt := optimize.NewSimulated(prm) // fresh cache each iteration
			if _, err := opt.BestOn(topology.MustNew(10), 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRuntimeExchange_D5 times the real-data goroutine execution of
// the d=5 multiphase exchange (32 goroutines moving 16B blocks).
func BenchmarkRuntimeExchange_D5(b *testing.B) {
	plan, err := exchange.NewPlan(5, 16, partition.Partition{2, 3})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := plan.RunData(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllToAllFabric exercises the unified multiphase executor —
// one implementation, two backends — on the hot gather/exchange/scatter
// path: the auto-tuned d=6, 40-byte exchange on the runtime fabric (real
// goroutine data movement) and on the simnet fabric (data movement plus
// trace recording and discrete-event replay). The pair is the perf
// baseline for future backend work.
func BenchmarkAllToAllFabric(b *testing.B) {
	prm := model.IPSC860()
	plan, err := optimize.New(prm).Plan(6, 40)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("runtime", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fab, err := fabric.NewRuntime(plan.Nodes())
			if err != nil {
				b.Fatal(err)
			}
			if err := plan.RunOn(fab, time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simnet", func(b *testing.B) {
		b.ReportAllocs()
		var sim float64
		for i := 0; i < b.N; i++ {
			fab := fabric.NewSim(simnet.New(topology.MustNew(plan.Dim()), prm))
			if err := plan.RunOn(fab, time.Minute); err != nil {
				b.Fatal(err)
			}
			res, err := fab.Result()
			if err != nil {
				b.Fatal(err)
			}
			sim = res.Makespan
		}
		b.ReportMetric(sim, "sim_µs")
	})
}

// BenchmarkPartitionIteration times the partition iterator over d=20
// (627 partitions), the enumeration cost the paper calls trivial.
func BenchmarkPartitionIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		it := partition.NewIterator(20)
		count := 0
		for D := it.Next(); D != nil; D = it.Next() {
			count++
		}
		if count != 627 {
			b.Fatalf("p(20) = %d", count)
		}
	}
}

// BenchmarkCollectives simulates the §9 collectives (broadcast, scatter,
// gather, allgather) on a 64-node cube at 64B and reports the allgather
// time — the all-to-all broadcast the paper names as the next target for
// multiphase treatment.
func BenchmarkCollectives(b *testing.B) {
	prm := model.IPSC860()
	net := simnet.New(topology.MustNew(6), prm)
	var ag float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range []collectives.Kind{
			collectives.Broadcast, collectives.Scatter,
			collectives.Gather, collectives.AllGather,
		} {
			res, err := collectives.Simulate(k, net, 64, 0)
			if err != nil {
				b.Fatal(err)
			}
			if k == collectives.AllGather {
				ag = res.Makespan
			}
		}
	}
	b.ReportMetric(ag, "allgather_µs")
}

// BenchmarkTraceOverhead measures the cost of timeline recording on the
// d=6 OCS simulation (off vs on is visible by comparing with
// BenchmarkSimulateOCS_D7).
func BenchmarkTraceOverhead(b *testing.B) {
	plan, err := exchange.NewPlan(6, 64, partition.Partition{6})
	if err != nil {
		b.Fatal(err)
	}
	net := simnet.New(topology.MustNew(6), model.IPSC860())
	net.SetTrace(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Simulate(net); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheHit times the plan cache's hot path — a (machine,
// d, m) query answered from a resident hull line: shard lookup, binary
// search over segments, closed-form time for the exact block size.
func BenchmarkPlanCacheHit(b *testing.B) {
	pc := plancache.New(plancache.Config{})
	ctx := context.Background()
	net, err := plancache.ResolveHypercube(7)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pc.GetForCtx(ctx, "ipsc860", net, 40); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.GetForCtx(ctx, "ipsc860", net, (i*37)%500); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := pc.Stats()
	if s.Misses != 1 {
		b.Fatalf("bench drove %d misses, want 1 (hits only)", s.Misses)
	}
	b.ReportMetric(float64(s.Hits)/float64(b.N), "hits/op")
}

// BenchmarkServePlan times one /v1/plan request end-to-end over a
// loopback HTTP connection against a warm cache — the serving tier's
// unit of work.
func BenchmarkServePlan(b *testing.B) {
	srv, err := service.New(service.Config{Cache: plancache.New(plancache.Config{})})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	warm := func(url string) {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	warm(ts.URL + "/v1/plan?machine=ipsc860&d=7&m=40")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm(fmt.Sprintf("%s/v1/plan?machine=ipsc860&d=7&m=%d", ts.URL, (i*37)%500))
	}
}

// BenchmarkServeBatch times one /v1/batch of 16 warm plan queries — cube
// and torus lines on two machines, the canonical body the direct decoder
// reads — over a loopback HTTP connection.
func BenchmarkServeBatch(b *testing.B) {
	srv, err := service.New(service.Config{Cache: plancache.New(plancache.Config{})})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	var req service.BatchRequest
	for i := 0; i < 16; i++ {
		q := service.BatchQuery{Machine: "ipsc860", D: 5 + i%3, M: (i * 37) % 500}
		if i%4 == 3 {
			q = service.BatchQuery{Machine: "hypo", Topology: "torus-4x4x4", M: (i * 53) % 500}
		}
		req.Queries = append(req.Queries, q)
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		resp, err := client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // builds the lines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkCostingCompiledTorus is the non-hypercube datapoint of the
// perf trajectory: the same compiled-trace replay on a 64-node torus,
// exercising the generic (non-bit-trick) routing path of the simulator.
func BenchmarkCostingCompiledTorus(b *testing.B) {
	prm := model.IPSC860()
	topo := topology.MustParseSpec("torus-4x4x4")
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, G := range []partition.Partition{{3}, {2, 1}, {1, 1, 1}} {
			plan, err := exchange.NewPlanOn(topo, 40, G)
			if err != nil {
				b.Fatal(err)
			}
			res, err := plan.Cost(simnet.New(topo, prm))
			if err != nil {
				b.Fatal(err)
			}
			last = res.Makespan
		}
	}
	b.ReportMetric(last, "sim_µs")
}

// BenchmarkBestOnPruned times the memoized, branch-and-bound-pruned,
// parallel simulated enumeration from a cold optimizer. The d=16 case is
// the acceptance datapoint: the seed re-simulated all p(16)=231 candidate
// plans whole; the pruned path replays the fragments of a handful of
// survivors (evaluated/pruned/memo_hits metrics report the split — the
// candidate-replay reduction is evaluated vs evaluated+pruned).
func BenchmarkBestOnPruned(b *testing.B) {
	prm := model.IPSC860()
	for _, d := range []int{12, 16} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			b.ReportAllocs()
			var st optimize.Stats
			for i := 0; i < b.N; i++ {
				opt := optimize.NewSimulated(prm) // fresh caches: one cold enumeration per iteration
				if _, err := opt.BestOn(topology.MustNew(d), 4); err != nil {
					b.Fatal(err)
				}
				st = opt.Stats()
			}
			b.ReportMetric(float64(st.Evaluated), "evaluated")
			b.ReportMetric(float64(st.Pruned), "pruned")
			b.ReportMetric(float64(st.MemoHits), "memo_hits")
		})
	}
}

// BenchmarkBuildTableMemoized times a cold simulated hull sweep, the
// plancache line-build unit of work. Sweep points share phase fragments
// through the memo and warm-start each other's incumbent, so the sweep
// costs far less than points × one cold Best (the memo_hits metric is
// the reuse across the whole sweep).
func BenchmarkBuildTableMemoized(b *testing.B) {
	prm := model.IPSC860()
	b.ReportAllocs()
	var st optimize.Stats
	for i := 0; i < b.N; i++ {
		opt := optimize.NewSimulated(prm)
		if _, err := opt.BuildTableOnCtx(context.Background(), topology.MustNew(10), 0, 256, 16); err != nil {
			b.Fatal(err)
		}
		st = opt.Stats()
	}
	b.ReportMetric(float64(st.Evaluated), "evaluated")
	b.ReportMetric(float64(st.Pruned), "pruned")
	b.ReportMetric(float64(st.MemoHits), "memo_hits")
}

// BenchmarkHullBuildSimulated times a cold simulated hull build — a fresh
// optimizer, the sweep pland runs for a line — on the three shapes a
// build's cost takes: torus-4x4x4x4, where one whole-machine cyclic phase
// that never wins dominates and is aborted at its cutoff at most points;
// torus-8x8, a small cyclic line; and hypercube-10, priced by certificate
// with no engine run at all. replays/op and aborted/op are the replays
// that finished and the ones abandoned at their cutoff (each its last
// iteration's count; the split can move with the worker count, the table
// never does).
func BenchmarkHullBuildSimulated(b *testing.B) {
	prm := model.IPSC860()
	for _, spec := range []string{"torus-4x4x4x4", "torus-8x8", "hypercube-10"} {
		b.Run(spec, func(b *testing.B) {
			net := topology.MustParseSpec(spec)
			b.ReportAllocs()
			var st optimize.Stats
			for i := 0; i < b.N; i++ {
				opt := optimize.NewSimulated(prm)
				if _, err := opt.BuildTableOnCtx(context.Background(), net, 0, 256, 16); err != nil {
					b.Fatal(err)
				}
				st = opt.Stats()
			}
			b.ReportMetric(float64(st.ReplaysSerial), "replays/op")
			b.ReportMetric(float64(st.ReplaysAborted), "aborted/op")
		})
	}
}

// BenchmarkBuildTableAnalytic times an analytic hull build from a fresh
// optimizer — the unit of work behind every plancache line fill, fault
// rebuild and owner rebuild after an eviction — on the largest cube the
// serving tier takes, over its range: the lower envelope of p(16) = 231
// lines, a handful of block sizes priced.
func BenchmarkBuildTableAnalytic(b *testing.B) {
	prm := model.IPSC860()
	cube := topology.MustNew(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimize.New(prm).BuildTableOnCtx(context.Background(), cube, 0, 512, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheHitTorus pins the serving hot path under a topology
// key: a resident torus line must answer with the same O(1) lookup as
// the hypercube line.
func BenchmarkPlanCacheHitTorus(b *testing.B) {
	c := plancache.New(plancache.Config{SweepHi: 64})
	ctx := context.Background()
	net, err := plancache.ResolveTopology("torus-4x4x4")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.GetForCtx(ctx, "ipsc860", net, 40); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetForCtx(ctx, "ipsc860", net, i&255); err != nil {
			b.Fatal(err)
		}
	}
}

// replayFragment is the d=16 {8,8} top-field fragment — the largest unit
// of work the optimizer's memoized costing runs: 65 536 nodes, 255
// exchange rows, 256 pairwise link-disjoint sub-blocks.
func replayFragment(b *testing.B) (topology.Network, *exchange.CompiledPlan) {
	topo := topology.MustParseSpec("hypercube-16")
	plan, err := exchange.NewPlanOn(topo, 4, partition.Partition{8, 8})
	if err != nil {
		b.Fatal(err)
	}
	return topo, plan.CompilePhase(0)
}

// BenchmarkReplaySerial replays the fragment on the event engine. The
// fragment's phase certificate holds, so a plain replay would be priced in
// closed form and the engine would not run; one statically slow wire (a
// degraded overlay that keeps every base route) makes the replay core
// decline it, "slow-link", while leaving the dynamics what they were
// everywhere else — every step of a row tied at one instant.
func BenchmarkReplaySerial(b *testing.B) {
	prm := model.IPSC860()
	_, frag := replayFragment(b)
	slow := topology.MustParseSpec("hypercube-16!sl=0-1:2")
	b.ReportAllocs()
	b.ResetTimer()
	var last simnet.Result
	for i := 0; i < b.N; i++ {
		res, err := simnet.New(slow, prm).RunSource(frag)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last.DeclineReason != "slow-link" || last.EnginePhases != 1 {
		b.Fatalf("fragment declined for %q on %d engine phases, want slow-link on 1", last.DeclineReason, last.EnginePhases)
	}
	b.ReportMetric(last.Makespan, "sim_µs")
}

// uncertified hides a compiled plan's span Shapes, so the replay core may
// not share its certificates and runs the pass on every replay.
type uncertified struct {
	*exchange.CompiledPlan
	spans []simnet.PhaseSpan
}

func (u uncertified) PhaseSpans() []simnet.PhaseSpan { return u.spans }

func uncertify(c *exchange.CompiledPlan) uncertified {
	u := uncertified{CompiledPlan: c, spans: append([]simnet.PhaseSpan(nil), c.PhaseSpans()...)}
	for i := range u.spans {
		u.spans[i].Shape = ""
	}
	return u
}

// BenchmarkReplayCertified prices the same fragment, jitter-free, by its
// phase certificate. cold pays the certificate pass — every circuit of
// every row routed and stamped once — on each replay, which a process
// otherwise pays once per (topology, field): it must stay below one
// engine replay (BenchmarkReplaySerial). warm is every later replay: the
// closed form alone, 255 additions and the finish-time fill.
// cold-hypercube-11 is the costliest certificate a /v1/cost request
// meets: the whole {11} plan on 2048 nodes, 2047 rows of 2048 circuits.
func BenchmarkReplayCertified(b *testing.B) {
	prm := model.IPSC860()
	topo, frag := replayFragment(b)
	cube11 := topology.MustParseSpec("hypercube-11")
	whole, err := exchange.NewPlanOn(cube11, 40, partition.Partition{11})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		topo   topology.Network
		src    simnet.Source
		passes int
	}{
		{"cold", topo, uncertify(frag), 1},
		{"warm", topo, frag, 0},
		{"cold-hypercube-11", cube11, uncertify(whole.Compile()), 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if _, err := simnet.New(bc.topo, prm).RunSource(bc.src); err != nil { // warm's one pass
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var last simnet.Result
			for i := 0; i < b.N; i++ {
				res, err := simnet.New(bc.topo, prm).RunSource(bc.src)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			if last.ClosedFormPhases != 1 || last.Certificates != bc.passes {
				b.Fatalf("%d closed-form phases after %d certificate passes (declined for %q)",
					last.ClosedFormPhases, last.Certificates, last.DeclineReason)
			}
			b.ReportMetric(last.Makespan, "sim_µs")
		})
	}
}

// BenchmarkReplayCyclic times the replay floor: contended cyclic phases,
// which no certificate prices in closed form, on the cyclic interpreter.
// torus-8x8x8 is the whole {3} plan at m = 40, one phase spanning all
// 512 nodes (261 632 messages); torus-4x4x4x4 is the {4} fragment the
// optimizer replays for a simulated hull (65 280 messages). The network
// is new per replay, as a cost request's is; its fabric handle, and so
// the certificate, is shared. maxq is Result.MaxEdgeQueue, the deepest
// link backlog, which the lazily pruned backlog must keep exact.
func BenchmarkReplayCyclic(b *testing.B) {
	prm := model.IPSC860()
	for _, bc := range []struct {
		spec string
		part partition.Partition
		frag bool
	}{
		{"torus-8x8x8", partition.Partition{3}, false},
		{"torus-4x4x4x4", partition.Partition{4}, true},
	} {
		b.Run(bc.spec, func(b *testing.B) {
			topo := topology.MustParseSpec(bc.spec)
			plan, err := exchange.NewPlanOn(topo, 40, bc.part)
			if err != nil {
				b.Fatal(err)
			}
			src := plan.Compile()
			if bc.frag {
				src = plan.CompilePhase(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var last simnet.Result
			for i := 0; i < b.N; i++ {
				if last, err = simnet.New(topo, prm).RunSource(src); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if last.EnginePhases != 1 || last.DeclineReason != "row-not-exchange" {
				b.Fatalf("%d engine phases, declined for %q: want the one cyclic phase on the engine",
					last.EnginePhases, last.DeclineReason)
			}
			b.ReportMetric(last.Makespan, "sim_µs")
			b.ReportMetric(float64(last.MaxEdgeQueue), "maxq")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(last.Messages), "ns/msg")
		})
	}
}

// benchEngine measures the event queue alone under the simulator's load
// shape: 4096 nodes, each of whose events schedules that node's next one
// at next(now, node), b.N events in all (ns/op is per event). The engine
// is warmed up and reset first, as a recycled replay state's is, so
// allocs/op is the steady-state figure — zero.
func benchEngine(b *testing.B, next func(now event.Time, node int) event.Time) {
	const nodes = 4096
	eng := event.New()
	left := 0
	var h event.ArgHandler
	h = func(now event.Time, node int) {
		if left > 0 {
			left--
			eng.PostArg(next(now, node), h, node)
		}
	}
	run := func(events int) {
		eng.Reset()
		seeds := min(nodes, events)
		left = events - seeds
		for p := 0; p < seeds; p++ {
			eng.PostArg(0, h, p)
		}
		eng.Run()
	}
	run(4 * nodes)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkEngineTies is the synchronous machine: every node finishes a
// step at the same instant, so every pending event ties and the queue
// holds one or two runs. BenchmarkEngineDistinct is the contended or
// jittered machine: no two nodes' events share a time, every event is a
// run of its own, and 4096 runs wait in the radix queue.
func BenchmarkEngineTies(b *testing.B) {
	benchEngine(b, func(now event.Time, _ int) event.Time { return now + 1 })
}

func BenchmarkEngineDistinct(b *testing.B) {
	benchEngine(b, func(now event.Time, node int) event.Time { return now + 1 + event.Time(node)/8192 })
}
