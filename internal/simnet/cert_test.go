package simnet_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// requireSameSimulation asserts that two results agree in every simulated
// field, floats by their exact bits. The fields that say how a result was
// produced (pricing modes, certificate passes) are not compared.
func requireSameSimulation(t *testing.T, label string, want, got simnet.Result) {
	t.Helper()
	bits := math.Float64bits
	if bits(want.Makespan) != bits(got.Makespan) {
		t.Errorf("%s: Makespan %v, want %v", label, got.Makespan, want.Makespan)
	}
	if bits(want.ContentionStall) != bits(got.ContentionStall) {
		t.Errorf("%s: ContentionStall %v, want %v", label, got.ContentionStall, want.ContentionStall)
	}
	if len(want.NodeFinish) != len(got.NodeFinish) {
		t.Fatalf("%s: %d node finish times, want %d", label, len(got.NodeFinish), len(want.NodeFinish))
	}
	for p := range want.NodeFinish {
		if bits(want.NodeFinish[p]) != bits(got.NodeFinish[p]) {
			t.Errorf("%s: NodeFinish[%d] %v, want %v", label, p, got.NodeFinish[p], want.NodeFinish[p])
			break
		}
	}
	for _, f := range []struct {
		name      string
		want, got int
	}{
		{"Messages", want.Messages, got.Messages},
		{"BytesMoved", want.BytesMoved, got.BytesMoved},
		{"DroppedForced", want.DroppedForced, got.DroppedForced},
		{"Barriers", want.Barriers, got.Barriers},
		{"MaxEdgeQueue", want.MaxEdgeQueue, got.MaxEdgeQueue},
	} {
		if f.want != f.got {
			t.Errorf("%s: %s %d, want %d", label, f.name, f.got, f.want)
		}
	}
}

// The phase-by-phase replay — certified phases in closed form, the rest
// on the engine — must equal the engine replay of the same plan's bare
// programs, on the whole digest matrix and on
// plans that mix certified and declined phases.
func TestPhasedReplayMatchesEngine(t *testing.T) {
	mixed := []identityCase{
		// The dead wire is in dimension 0: the phase over dimensions 2–4
		// never routes across it, the phase over 0–1 detours.
		{name: "cube5 dead link {3,2}", spec: "hypercube-5!dl=0-1", part: partition.Partition{3, 2}, m: 32},
		{name: "cube6 dead link {2,2,2}", spec: "hypercube-6!dl=0-1", part: partition.Partition{2, 2, 2}, m: 8},
		// One XOR dimension above one cyclic one.
		{name: "mesh8x2 {1,1}", spec: "mesh-8x2", part: partition.Partition{1, 1}, m: 16},
		{name: "torus4x2x2 {2,1}", spec: "torus-4x2x2", part: partition.Partition{2, 1}, m: 24},
	}
	for i, c := range append(mixed, identityCases...) {
		if c.progs != nil {
			continue // plain programs have no phases
		}
		net, src := c.network(t)
		oracle, err := net.Run(src.Programs())
		if err != nil {
			t.Fatal(err)
		}
		if oracle.ClosedFormPhases != 0 || oracle.EnginePhases != 0 {
			t.Fatalf("%s: the oracle priced phases: %+v", c.name, oracle)
		}
		res := c.run(t)
		requireSameSimulation(t, c.name, oracle, res)
		if got := res.ClosedFormPhases + res.EnginePhases; got != len(src.PhaseSpans()) {
			t.Errorf("%s: %d phases accounted for, of %d", c.name, got, len(src.PhaseSpans()))
		}
		if i < len(mixed) && (res.ClosedFormPhases == 0 || res.EnginePhases == 0 || res.DeclineReason == "") {
			t.Errorf("%s: want certified and declined phases mixed, got %d closed-form, %d engine, reason %q",
				c.name, res.ClosedFormPhases, res.EnginePhases, res.DeclineReason)
		}
	}
}

// SetReplayShards is inert: whatever it asks for, an engine-run torus
// phase replays exactly as without it, every Result field bit-identical,
// ReplayShards 1 included.
func TestReplayShardsIsInert(t *testing.T) {
	topo := topology.MustParseSpec("torus-4x4")
	plan, err := exchange.NewPlanOn(topo, 32, partition.Partition{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	src := plan.Compile()
	replay := func(shards ...int) simnet.Result {
		t.Helper()
		net := simnet.New(topo, model.IPSC860())
		for _, k := range shards {
			net.SetReplayShards(k)
		}
		res, err := net.RunSource(src)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	replay() // certify the phases on the handle, so no later run counts a pass
	want := replay()
	if want.EnginePhases == 0 || want.ReplayShards != 1 {
		t.Fatalf("%d engine phases, ReplayShards %d: want an engine-run phase on one engine",
			want.EnginePhases, want.ReplayShards)
	}
	for _, k := range []int{0, 1, 2, 4, 64} {
		if got := replay(k); !reflect.DeepEqual(got, want) {
			t.Errorf("SetReplayShards(%d) changed the replay:\n  got  %+v\n  want %+v", k, got, want)
		}
	}
}

// What rules closed-form pricing out for a whole run is named; a healthy
// jitter-free cube has nothing to name.
func TestDeclineReasonsOfTheNetwork(t *testing.T) {
	for name, want := range map[string]struct {
		reason string
		closed int
	}{
		"cube6 {3,3}":           {"", 2},
		"cube6 {3,3} jitter":    {"jitter", 0},
		"cube5 slow link {3,2}": {"slow-link", 0},
		"cube5 dead link {5}":   {"hop-mismatch", 0},
		"torus4x4x4 {3}":        {"row-not-exchange", 0},
	} {
		for _, c := range identityCases {
			if c.name != name {
				continue
			}
			res := c.run(t)
			if res.DeclineReason != want.reason || res.ClosedFormPhases != want.closed {
				t.Errorf("%s: declined for %q with %d closed-form phases, want %q and %d",
					name, res.DeclineReason, res.ClosedFormPhases, want.reason, want.closed)
			}
		}
	}
}

// perNode hides a compiled plan's RowPeers, so the certificate pass reads
// it node by node through Op.
type perNode struct{ simnet.Phased }

// A certificate read a row of partners at a time proves what the same
// pass reading Op node by node proves — the same decline reason, hop
// counts and cyclic layout — on every phase of the pinned plans:
// certified ones, cyclic rows and detours that break the hop count.
func TestRowPeersCertifyLikeOp(t *testing.T) {
	reasons := map[string]int{}
	detours := []identityCase{
		// The dead wire is in dimension 0, and its detours leave a field
		// holding only that dimension.
		{name: "cube6 dead link {5,1}", spec: "hypercube-6!dl=0-1", part: partition.Partition{5, 1}, m: 8},
	}
	for _, c := range append(detours, identityCases...) {
		if c.progs != nil {
			continue // plain programs have no phases
		}
		net, src := c.network(t)
		winLo := 1
		for i, sp := range src.PhaseSpans() {
			d, h, cyc := simnet.Certify(net, src, sp, winLo)
			wd, wh, wcyc := simnet.Certify(net, perNode{src}, sp, winLo)
			if d != wd || !slices.Equal(h, wh) || cyc != wcyc {
				t.Errorf("%s phase %d: batched %q %v cyclic=%v, per node %q %v cyclic=%v",
					c.name, i, d, h, cyc, wd, wh, wcyc)
			}
			reasons[d]++
			winLo += sp.Rows
		}
	}
	for _, r := range []string{"", "row-not-exchange", "hop-mismatch"} {
		if reasons[r] == 0 {
			t.Errorf("no phase of the corpus certified with decline %q: %v", r, reasons)
		}
	}
}

// rowSource is a hand-built Phased source of one phase spanning a whole
// hypercube-3: a barrier, then rows of exchanges given as partner tables.
// It promises no Shape, so every replay certifies it afresh.
type rowSource struct {
	peers [][8]int // per row, each node's partner
	bytes func(p, row int) int
	// claim is what UniformRow reports for every exchange row.
	claim int
}

func (s *rowSource) NumNodes() int  { return 8 }
func (s *rowSource) NumOps(int) int { return 1 + len(s.peers) }
func (s *rowSource) PhaseSpans() []simnet.PhaseSpan {
	return []simnet.PhaseSpan{{Rows: 1 + len(s.peers), Stride: 1, Span: 8}}
}

func (s *rowSource) Op(p, i int) simnet.Op {
	if i == 0 {
		return simnet.Barrier()
	}
	return simnet.Exchange(s.peers[i-1][p], s.bytes(p, i-1))
}

func (s *rowSource) UniformRow(i int) (simnet.OpKind, int, bool) {
	if i == 0 {
		return simnet.OpBarrier, 0, true
	}
	return simnet.OpExchange, s.claim, true
}

func (s *rowSource) programs() []simnet.Program {
	progs := make([]simnet.Program, 8)
	for p := range progs {
		for i := 0; i < s.NumOps(p); i++ {
			progs[p] = append(progs[p], s.Op(p, i))
		}
	}
	return progs
}

// Each way a phase can fail its certificate must be declined, for that
// reason, and still replay exactly as the engine does — stalls included.
func TestCertificateDeclines(t *testing.T) {
	const m = 64
	flat := func(int, int) int { return m }
	xor := func(mask int) (row [8]int) {
		for p := range row {
			row[p] = p ^ mask
		}
		return row
	}
	cases := []struct {
		name    string
		src     *rowSource
		reason  string
		stalled bool
	}{
		{name: "certified", src: &rowSource{peers: [][8]int{xor(1), xor(6), xor(7)}, bytes: flat, claim: m}},
		{
			// 0→1→3 and 1→3→7 both cross the link 1→3.
			name:   "two circuits over one link",
			src:    &rowSource{peers: [][8]int{xor(1), {3, 7, 4, 0, 2, 6, 5, 1}}, bytes: flat, claim: m},
			reason: "link-overlap", stalled: true,
		},
		{
			// Four one-hop pairs beside two-hop 4↔7 and 5↔6.
			name:   "hop counts differ",
			src:    &rowSource{peers: [][8]int{{1, 0, 3, 2, 7, 6, 5, 4}, xor(2)}, bytes: flat, claim: m},
			reason: "hop-mismatch",
		},
		{
			name:   "partner does not name back",
			src:    &rowSource{peers: [][8]int{{1, 0, 3, 2, 5, 4, 7, 6}, {2, 3, 0, 1, 6, 7, 4, 4}}, bytes: flat, claim: m},
			reason: "partner-mismatch",
		},
		{
			// The pair 0↔1 moves half of what UniformRow claims for all.
			name: "uniform-row accessor disagrees with Op",
			src: &rowSource{peers: [][8]int{xor(1), xor(2)}, claim: m, bytes: func(p, row int) int {
				if row == 0 && p < 2 {
					return m / 2
				}
				return m
			}},
			reason: "row-not-uniform",
		},
	}
	topo := topology.MustNew(3)
	for _, tc := range cases {
		net := simnet.New(topo, model.IPSC860())
		oracle, oracleErr := net.Run(tc.src.programs())
		res, err := net.RunSource(tc.src)
		if tc.name == "partner does not name back" {
			// The engine deadlocks on it; so must the phased replay.
			if err == nil || oracleErr == nil || err.Error() != oracleErr.Error() {
				t.Errorf("%s: error %v, want the engine's %v", tc.name, err, oracleErr)
			}
			continue
		}
		if err != nil || oracleErr != nil {
			t.Fatalf("%s: %v / %v", tc.name, err, oracleErr)
		}
		requireSameSimulation(t, tc.name, oracle, res)
		if res.DeclineReason != tc.reason || (tc.reason == "") != (res.ClosedFormPhases == 1) {
			t.Errorf("%s: declined for %q with %d closed-form phases, want reason %q",
				tc.name, res.DeclineReason, res.ClosedFormPhases, tc.reason)
		}
		if res.Certificates != 1 {
			t.Errorf("%s: %d certificate passes for a source with no Shape, want 1 per replay", tc.name, res.Certificates)
		}
		if tc.stalled != (res.ContentionStall > 0) {
			t.Errorf("%s: ContentionStall %v", tc.name, res.ContentionStall)
		}
	}

	// A dead wire's detour borrows links other pairs of the row hold.
	dead := topology.MustParseSpec("hypercube-3!dl=0-4")
	plan, err := exchange.NewPlanOn(dead, 8, partition.Partition{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	src := plan.Compile()
	net := simnet.New(dead, model.IPSC860())
	oracle, err := net.Run(src.Programs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSimulation(t, "detour over a shared link", oracle, res)
	if res.ContentionStall == 0 || res.EnginePhases == 0 || res.DeclineReason != "hop-mismatch" {
		t.Errorf("detour over a shared link: stall %v, %d engine phases, declined for %q",
			res.ContentionStall, res.EnginePhases, res.DeclineReason)
	}
}

// Concurrent first use of one certificate key: every caller gets the
// engine's result, and the pass runs once between them (-race checks the
// memory model claim behind sharing it).
func TestCertificateConcurrentFirstUse(t *testing.T) {
	topo := topology.MustParseSpec("torus-2x2x2x2x2x2x2")
	plan, err := exchange.NewPlanOn(topo, 12, partition.Partition{7})
	if err != nil {
		t.Fatal(err)
	}
	// A torus spec parses to a handle of its own, so no earlier run — not
	// even this test's under -count — has warmed its certificates.
	src := plan.Compile()
	oracle, err := simnet.New(topo, model.IPSC860()).Run(src.Programs())
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([]simnet.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = simnet.New(topo, model.IPSC860()).RunSource(src)
		}(i)
	}
	wg.Wait()
	passes := 0
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireSameSimulation(t, fmt.Sprintf("caller %d", i), oracle, res)
		if res.ClosedFormPhases != 1 {
			t.Errorf("caller %d: phase not priced in closed form (%q)", i, res.DeclineReason)
		}
		passes += res.Certificates
	}
	if passes != 1 {
		t.Errorf("%d certificate passes between %d concurrent callers, want 1", passes, callers)
	}
	// Another machine's parameters, another block size: same certificate.
	other, err := exchange.NewPlanOn(topo, 40, partition.Partition{7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simnet.New(topo, model.Hypothetical()).RunSource(other.Compile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Certificates != 0 || res.ClosedFormPhases != 1 {
		t.Errorf("second machine: %d certificate passes, %d closed-form phases", res.Certificates, res.ClosedFormPhases)
	}
}

// fuzzSpecs are the topologies FuzzCertifiedReplay draws from: healthy
// and degraded, XOR, cyclic and mixed.
var fuzzSpecs = []string{
	"hypercube-3", "hypercube-4", "hypercube-5", "hypercube-6",
	"hypercube-4!dl=0-1", "hypercube-5!dl=0-1,5-7", "hypercube-5!dl=3-19", "hypercube-4!sl=0-1:2.5",
	"torus-2x2x2", "torus-4x4", "torus-4x2x2", "torus-3x5", "torus-4x4!dl=0-1", "torus-2x2x2x2!dl=0-1",
	"mesh-4x4", "mesh-8x2", "mesh-2x2x2", "mesh-4x2!sl=0-1:3",
}

// fuzzGrouping is the grouping of topo's dimensions that closes a group
// after dimension i for every set bit i of cuts.
func fuzzGrouping(topo topology.Network, cuts uint8) partition.Partition {
	var part partition.Partition
	size := 0
	for i := 0; i < topo.NumDims(); i++ {
		size++
		if cuts&(1<<i) != 0 || i == topo.NumDims()-1 {
			part = append(part, size)
			size = 0
		}
	}
	return part
}

// FuzzCertifiedReplay: for any topology, grouping, block size and jitter
// setting, the phase-by-phase replay equals the engine replay of the
// same plan's bare programs.
func FuzzCertifiedReplay(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint16(24), false)
	f.Add(uint8(3), uint8(0b10010), uint16(40), false)
	f.Add(uint8(5), uint8(0b01), uint16(32), false)
	f.Add(uint8(6), uint8(0b11111), uint16(1), true)
	f.Add(uint8(10), uint8(0b1), uint16(8), false)
	f.Add(uint8(13), uint8(0b101), uint16(0), false)
	f.Fuzz(func(t *testing.T, spec, cuts uint8, m uint16, jitter bool) {
		topo := topology.MustParseSpec(fuzzSpecs[int(spec)%len(fuzzSpecs)])
		plan, err := exchange.NewPlanOn(topo, int(m%512), fuzzGrouping(topo, cuts))
		if err != nil {
			t.Skip(err)
		}
		src := plan.Compile()
		net := simnet.New(topo, model.IPSC860())
		if jitter {
			net.SetJitter(0.05, int64(cuts))
		}
		oracle, err := net.Run(src.Programs())
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.RunSource(src)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSimulation(t, plan.String(), oracle, res)
		if jitter && res.ClosedFormPhases != 0 {
			t.Errorf("%v: %d phases priced in closed form under jitter", plan, res.ClosedFormPhases)
		}
	})
}
