package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
)

// workload describes one traffic mix: the fleet it runs against and the
// requests it sends. Exactly one of newGen (closed loop, runs for the
// window) and items (a fixed list, sent once in order) is set.
type workload struct {
	name     string
	replicas int
	// flags returns replica i's pland flags; urls are the fleet's base
	// URLs.
	flags func(i int, urls []string) []string
	// pretouch lists GET paths replica 0 must have answered before set-up
	// counts as complete.
	pretouch []string
	newGen   func(seed int64, worker int, st *runState) generator
	// items returns the request list, sized so the requests' nominal costs
	// together fit in seconds.
	items func(seed int64, seconds float64, st *runState) []*request
}

// generator yields a closed-loop connection's next request.
type generator interface{ next() *request }

// runState is what the answer checks share during one run.
type runState struct {
	golden *goldenFile
	mu     sync.Mutex
	// modelErrMax is the largest |simulated − predicted| ÷ predicted over
	// healthy-hypercube /v1/cost answers: simulated time, not host time.
	modelErrMax float64
	// costSeen and hullSeen record deterministic answers for -write-golden.
	costSeen map[string]float64
	hullSeen map[string][]segment
	// wrong holds the first few failed answer checks; any entry makes
	// the run incorrect. failures samples the other failed operations.
	wrong    []string
	failures []string
}

// maxNoted bounds how many failure messages a run keeps.
const maxNoted = 10

// noteWrong records a failed answer check.
func (st *runState) noteWrong(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.wrong) < maxNoted {
		st.wrong = append(st.wrong, err.Error())
	}
}

// noteFailure records an operation that failed without an answer to check.
func (st *runState) noteFailure(detail string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.failures) < maxNoted {
		st.failures = append(st.failures, detail)
	}
}

func newRunState(g *goldenFile) *runState {
	return &runState{golden: g, costSeen: map[string]float64{}, hullSeen: map[string][]segment{}}
}

var workloads = []*workload{serveHit, fleetChurn, coldBuild, replayCost}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// maxBlock is the top of the block-size range plan queries draw from.
// Half of it lies beyond pland's default -sweep-hi (512), so half the
// queries take the clamp-to-last-segment path.
const maxBlock = 1024

// line is one plan-cache line a query can name.
type line struct {
	machine string
	topo    string // grid spec; "" means the d-cube
	d       int    // cube dimension when topo is ""
	dims    int    // dimension count a partition must sum to
}

func (l line) planPath(m int) string {
	if l.topo != "" {
		return fmt.Sprintf("/v1/plan?machine=%s&topology=%s&m=%d", l.machine, l.topo, m)
	}
	return fmt.Sprintf("/v1/plan?machine=%s&d=%d&m=%d", l.machine, l.d, m)
}

func planCheck(dims int, seen *[]int) func([]byte) error {
	return func(body []byte) error {
		var a planAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		if seen != nil {
			*seen = a.Partition
		}
		return checkPlan(&a, dims)
	}
}

func planRequest(l line, m, replica int, seen *[]int) *request {
	return &request{
		name: "GET /v1/plan", replica: replica, path: l.planPath(m),
		primary: true, check: planCheck(l.dims, seen),
	}
}

// --- serve_hit ---

var (
	hitMachines = []string{"ipsc860", "hypo", "ncube2"}
	hitGrids    = []line{
		{topo: "torus-4x4x4", dims: 3},
		{topo: "torus-8x8", dims: 2},
		{topo: "mesh-8x8", dims: 2},
	}
)

const batchSize = 16

var serveHit = &workload{
	name:     "serve_hit",
	replicas: 1,
	flags: func(int, []string) []string {
		return []string{"-warmup-dims", "5,6,7,8,9,10,11,12"}
	},
	// The grid lines are built here so the measured window sees only hits.
	pretouch: func() []string {
		var paths []string
		for _, g := range hitGrids {
			for _, mach := range hitMachines {
				g.machine = mach
				paths = append(paths, g.planPath(40))
			}
		}
		return paths
	}(),
	newGen: func(seed int64, worker int, _ *runState) generator {
		return &hitGen{rng: rand.New(rand.NewSource(seed<<8 + int64(worker)))}
	},
}

// hitGen draws 70 % cube plans, 20 % grid plans, 10 % batches of 16.
type hitGen struct{ rng *rand.Rand }

func (g *hitGen) line(grid bool) line {
	l := line{machine: hitMachines[g.rng.Intn(len(hitMachines))]}
	if grid {
		gl := hitGrids[g.rng.Intn(len(hitGrids))]
		l.topo, l.dims = gl.topo, gl.dims
	} else {
		l.d = 5 + g.rng.Intn(3)
		l.dims = l.d
	}
	return l
}

func (g *hitGen) next() *request {
	switch x := g.rng.Float64(); {
	case x < 0.7:
		return planRequest(g.line(false), g.rng.Intn(maxBlock+1), 0, nil)
	case x < 0.9:
		return planRequest(g.line(true), g.rng.Intn(maxBlock+1), 0, nil)
	}
	type query struct {
		Machine  string `json:"machine"`
		Topology string `json:"topology,omitempty"`
		D        int    `json:"d,omitempty"`
		M        int    `json:"m"`
	}
	queries := make([]query, batchSize)
	dims := make([]int, batchSize)
	for i := range queries {
		// The same cube:grid ratio as the single queries, 7:2.
		l := g.line(g.rng.Intn(9) >= 7)
		queries[i] = query{Machine: l.machine, Topology: l.topo, D: l.d, M: g.rng.Intn(maxBlock + 1)}
		dims[i] = l.dims
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return &request{
		name: "POST /v1/batch", path: "/v1/batch", body: body,
		check: func(body []byte) error {
			var a batchAnswer
			if err := json.Unmarshal(body, &a); err != nil {
				return err
			}
			if len(a.Results) != len(dims) {
				return fmt.Errorf("batch returned %d results for %d queries", len(a.Results), len(dims))
			}
			for i, r := range a.Results {
				if r.Plan == nil {
					return fmt.Errorf("batch query %d failed: %s", i, r.Error)
				}
				if err := checkPlan(r.Plan, dims[i]); err != nil {
					return fmt.Errorf("batch query %d: %w", i, err)
				}
			}
			return nil
		},
	}
}

// --- fleet_churn ---

// churnMachines is every machine in pland's registry. With nine cube
// dimensions each that is a 45-line working set against 3 × 12 resident
// lines.
var churnMachines = []string{"hypo", "ipsc860", "ipsc860-nosync", "ipsc860-raw", "ncube2"}

const (
	churnReplicas = 3
	churnDimLo    = 8
	churnDimHi    = 16
	// reaskOneIn is how often an answer is re-asked of a second replica
	// and the two partitions compared.
	reaskOneIn = 100
)

var fleetChurn = &workload{
	name:     "fleet_churn",
	replicas: churnReplicas,
	flags: func(i int, urls []string) []string {
		return []string{"-shards", "1", "-cache-capacity", "12",
			"-self", urls[i], "-peers", strings.Join(urls, ",")}
	},
	newGen: func(seed int64, worker int, _ *runState) generator {
		return &churnGen{rng: rand.New(rand.NewSource(seed<<8 + int64(worker))), replica: worker}
	},
}

// churnGen walks the replicas round-robin, drawing lines uniformly from
// the working set.
type churnGen struct {
	rng     *rand.Rand
	replica int
	reask   *request // pending second-replica comparison
}

func (g *churnGen) next() *request {
	if r := g.reask; r != nil {
		g.reask = nil
		return r
	}
	d := churnDimLo + g.rng.Intn(churnDimHi-churnDimLo+1)
	l := line{machine: churnMachines[g.rng.Intn(len(churnMachines))], d: d, dims: d}
	m := g.rng.Intn(maxBlock + 1)
	g.replica = (g.replica + 1) % churnReplicas
	if g.rng.Intn(reaskOneIn) != 0 {
		return planRequest(l, m, g.replica, nil)
	}
	first := new([]int)
	second := planRequest(l, m, (g.replica+1)%churnReplicas, nil)
	second.primary = false
	second.check = func(body []byte) error {
		var got []int
		if err := planCheck(l.dims, &got)(body); err != nil {
			return err
		}
		if !slices.Equal(got, *first) {
			return fmt.Errorf("replicas disagree on %s: %v vs %v", l.planPath(m), *first, got)
		}
		return nil
	}
	g.reask = second
	return planRequest(l, m, g.replica, first)
}

// --- list workloads ---

// fitBudget returns the indices of the cheapest items whose nominal
// costs sum to at most seconds — at least one — in their original order.
// Nominal costs are constants measured once on the reference box, so the
// same --seconds always selects the same list.
func fitBudget(nominal []float64, seconds float64) []int {
	order := make([]int, len(nominal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return nominal[order[a]] < nominal[order[b]] })
	var sum float64
	n := 0
	for n < len(order) && (n == 0 || sum+nominal[order[n]] <= seconds) {
		sum += nominal[order[n]]
		n++
	}
	picked := order[:n]
	sort.Ints(picked)
	return picked
}

// --- cold_build ---

// hullTopos are the simulated-backend lines cold_build builds, with the
// seconds each took on the reference box, and hullMachines the machines it
// builds each for: /v1/hull answers a built line from the cache, so every
// request names a line of its own.
var (
	hullTopos = []struct {
		topo     string
		nominalS float64
	}{
		{"torus-4x4x4", 0.19},
		{"mesh-8x8", 0.20},
		{"hypercube-8", 0.25},
		{"torus-8x8", 0.30},
		{"hypercube-9", 0.8},
		{"hypercube-10", 2.6},
		{"torus-4x4x4x4", 2.7},
		{"torus-16x16", 3.1},
		{"mesh-16x16", 3.7},
		{"hypercube-11", 9.9},
	}
	hullMachines = []string{"ipsc860", "hypo", "ncube2"}
)

func hullKey(machine, topo string) string { return machine + " " + topo }

var coldBuild = &workload{
	name:     "cold_build",
	replicas: 1,
	flags: func(int, []string) []string {
		return []string{"-backend", "simulated", "-sweep-hi", "256", "-sweep-step", "16"}
	},
	items: func(seed int64, seconds float64, st *runState) []*request {
		var nominal []float64
		for _, t := range hullTopos {
			for range hullMachines {
				nominal = append(nominal, t.nominalS)
			}
		}
		var reqs []*request
		for _, i := range fitBudget(nominal, seconds) {
			machine, topo := hullMachines[i%len(hullMachines)], hullTopos[i/len(hullMachines)].topo
			key := hullKey(machine, topo)
			reqs = append(reqs, &request{
				name: "GET /v1/hull", path: "/v1/hull?machine=" + machine + "&topology=" + topo, primary: true,
				check: func(body []byte) error {
					var a hullAnswer
					if err := json.Unmarshal(body, &a); err != nil {
						return err
					}
					st.mu.Lock()
					st.hullSeen[key] = a.Segments
					st.mu.Unlock()
					return st.golden.checkHull(key, a.Segments)
				},
			})
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		return reqs
	},
}

// --- replay_cost ---

// costItems are the explicit partitions replay_cost replays, with the
// seconds each took on the reference box. healthyCube marks the requests
// that carry the paper's contention-free claim.
var costItems = []struct {
	topo        string
	part        []int
	nominalS    float64
	healthyCube bool
}{
	{"hypercube-12", []int{6, 6}, 0.30, true},
	{"hypercube-12", []int{4, 4, 4}, 0.17, true},
	{"hypercube-12", []int{3, 3, 3, 3}, 0.11, true},
	{"hypercube-12", []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0.10, true},
	{"hypercube-12", []int{12}, 7.5, true},
	{"hypercube-11", []int{11}, 1.55, true},
	{"hypercube-11", []int{6, 5}, 0.13, true},
	{"hypercube-10", []int{10}, 0.39, true},
	{"hypercube-10", []int{5, 5}, 0.04, true},
	{"torus-8x8x8", []int{3}, 0.89, false},
	{"torus-8x8x8", []int{2, 1}, 0.08, false},
	{"torus-8x8x8", []int{1, 1, 1}, 0.02, false},
	{"torus-16x16", []int{2}, 0.17, false},
	{"torus-16x16", []int{1, 1}, 0.02, false},
	{"mesh-16x16", []int{2}, 0.24, false},
	{"mesh-16x16", []int{1, 1}, 0.01, false},
	{"hypercube-10!dl=0-1", []int{5, 5}, 0.21, false},
	{"hypercube-10!sl=0-1:2.5", []int{5, 5}, 0.27, false},
	{"torus-8x8!dl=0-1", []int{1, 1}, 0.01, false},
	{"torus-8x8!dl=0-1", []int{2}, 0.02, false},
}

// costBlocks are the block sizes a seed draws from.
var costBlocks = []int{4, 40, 160}

func costRequest(topo string, m int, part []int, healthyCube bool, st *runState) *request {
	body, err := json.Marshal(map[string]any{"topology": topo, "m": m, "partition": part})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	key := costKey(topo, m, part)
	return &request{
		name: "POST /v1/cost", path: "/v1/cost", body: body, primary: true,
		check: func(body []byte) error {
			var a costAnswer
			if err := json.Unmarshal(body, &a); err != nil {
				return err
			}
			st.mu.Lock()
			st.costSeen[key] = a.SimulatedUS
			if healthyCube {
				if e := relDiff(a.SimulatedUS, a.PredictedUS); e > st.modelErrMax {
					st.modelErrMax = e
				}
			}
			st.mu.Unlock()
			if healthyCube && a.ContentionStallUS != 0 {
				return fmt.Errorf("%s: contention_stall_us = %v on a healthy hypercube, want 0", key, a.ContentionStallUS)
			}
			if healthyCube && relDiff(a.SimulatedUS, a.PredictedUS) > modelErrLimit {
				return fmt.Errorf("%s: simulated %v vs predicted %v µs", key, a.SimulatedUS, a.PredictedUS)
			}
			return st.golden.checkCost(key, a.SimulatedUS)
		},
	}
}

// modelErrLimit is how far the simulator may stray from the closed-form
// model on a healthy hypercube, where the paper's schedules are
// contention-free and the two must agree to rounding (≈1e-14 today).
const modelErrLimit = 1e-6

var replayCost = &workload{
	name:     "replay_cost",
	replicas: 1,
	flags:    func(int, []string) []string { return nil },
	// /v1/cost caches nothing, so the list is replayed once per block
	// size: every partition meets every block size in every run, and the
	// seed decides which pass pairs them and in what order. Each pass gets
	// a third of the window.
	items: func(seed int64, seconds float64, st *runState) []*request {
		nominal := make([]float64, len(costItems))
		for i, it := range costItems {
			nominal[i] = it.nominalS
		}
		picked := fitBudget(nominal, seconds/float64(len(costBlocks)))
		rng := rand.New(rand.NewSource(seed))
		rotation := make([]int, len(picked))
		for i := range rotation {
			rotation[i] = rng.Intn(len(costBlocks))
		}
		var list []*request
		for p := range costBlocks {
			var reqs []*request
			for j, i := range picked {
				it := costItems[i]
				m := costBlocks[(rotation[j]+p)%len(costBlocks)]
				reqs = append(reqs, costRequest(it.topo, m, it.part, it.healthyCube, st))
			}
			rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
			list = append(list, reqs...)
		}
		return list
	},
}
