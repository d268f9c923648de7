package simnet_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// updateDigests rewrites testdata/replay_digests.json from the code under
// test. The committed file was recorded on the commit before the replay
// core was rebuilt (event-queue runs, hot/cold link state, one-walk grid
// routing); regenerate it only for a change that is meant to alter
// simulated results.
var updateDigests = flag.Bool("update-replay-digests", false, "rewrite testdata/replay_digests.json")

const digestFile = "testdata/replay_digests.json"

// replayDigest is the pinned form of one simnet.Result: the SHA-256 of
// every field's exact bits, plus the scalar fields in the clear so a
// mismatch says which way the run moved.
type replayDigest struct {
	SHA256       string `json:"sha256"`
	MakespanBits string `json:"makespan_bits"`
	StallBits    string `json:"stall_bits"`
	MaxEdgeQueue int    `json:"max_edge_queue"`
	Messages     int    `json:"messages"`
	BytesMoved   int    `json:"bytes_moved"`
	Barriers     int    `json:"barriers"`
	Dropped      int    `json:"dropped_forced"`
}

func digestOf(res simnet.Result) replayDigest {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(math.Float64bits(res.Makespan))
	put(uint64(len(res.NodeFinish)))
	for _, f := range res.NodeFinish {
		put(math.Float64bits(f))
	}
	put(math.Float64bits(res.ContentionStall))
	for _, v := range []int{res.MaxEdgeQueue, res.Messages, res.BytesMoved, res.Barriers, res.DroppedForced} {
		put(uint64(v))
	}
	return replayDigest{
		SHA256:       hex.EncodeToString(h.Sum(nil)),
		MakespanBits: fmt.Sprintf("%016x", math.Float64bits(res.Makespan)),
		StallBits:    fmt.Sprintf("%016x", math.Float64bits(res.ContentionStall)),
		MaxEdgeQueue: res.MaxEdgeQueue,
		Messages:     res.Messages,
		BytesMoved:   res.BytesMoved,
		Barriers:     res.Barriers,
		Dropped:      res.DroppedForced,
	}
}

// identityCase is one pinned replay: a network (topology spec plus the
// knobs that change results) and the source it runs.
type identityCase struct {
	name   string
	spec   string
	part   partition.Partition // compiled multiphase plan; nil when progs is set
	m      int
	jitter float64
	progs  func(n int) []simnet.Program
}

// fanIn builds the deep-queue program: every node but 0 sends rounds
// messages to node 0, alternating FORCED and UNFORCED and straddling the
// unforced reserve-acknowledge threshold. With more than edgeRing (4)
// senders funnelled through node 0's top-dimension in-link, that link's
// hold queue runs past the inline ring into its overflow storage. Node 0
// pre-posts only the first round, so later FORCED arrivals are dropped.
func fanIn(rounds int) func(n int) []simnet.Program {
	return func(n int) []simnet.Program {
		progs := make([]simnet.Program, n)
		for p := 1; p < n; p++ {
			progs[0] = append(progs[0], simnet.PostRecv(p))
		}
		progs[0] = append(progs[0], simnet.Compute(250))
		for r := 0; r < rounds; r++ {
			for p := 1; p < n; p++ {
				typ, bytes := simnet.Forced, 40+16*p
				if (r+p)%2 == 1 {
					typ, bytes = simnet.Unforced, 60*(r+1)+p
				}
				progs[p] = append(progs[p], simnet.Send(0, bytes, typ))
				if r == 0 {
					progs[0] = append(progs[0], simnet.WaitRecv(p))
				} else {
					progs[0] = append(progs[0], simnet.Recv(p))
				}
			}
		}
		return progs
	}
}

var identityCases = []identityCase{
	{name: "cube6 {6}", spec: "hypercube-6", part: partition.Partition{6}, m: 24},
	{name: "cube6 {3,3}", spec: "hypercube-6", part: partition.Partition{3, 3}, m: 24},
	{name: "cube6 {1x6}", spec: "hypercube-6", part: partition.Partition{1, 1, 1, 1, 1, 1}, m: 24},
	{name: "cube8 {4,4}", spec: "hypercube-8", part: partition.Partition{4, 4}, m: 40},
	{name: "torus4x4x4 {3}", spec: "torus-4x4x4", part: partition.Partition{3}, m: 40},
	{name: "torus4x4x4 {2,1}", spec: "torus-4x4x4", part: partition.Partition{2, 1}, m: 40},
	{name: "torus4x4x4 {1x3}", spec: "torus-4x4x4", part: partition.Partition{1, 1, 1}, m: 16},
	{name: "torus3x5 {2}", spec: "torus-3x5", part: partition.Partition{2}, m: 8},
	{name: "torus2x6 {1,1}", spec: "torus-2x6", part: partition.Partition{1, 1}, m: 8},
	{name: "mesh8x8 {2}", spec: "mesh-8x8", part: partition.Partition{2}, m: 40},
	{name: "mesh8x8 {1,1}", spec: "mesh-8x8", part: partition.Partition{1, 1}, m: 4},
	{name: "cube5 dead link {3,2}", spec: "hypercube-5!dl=0-1", part: partition.Partition{3, 2}, m: 32},
	{name: "cube5 dead link {5}", spec: "hypercube-5!dl=0-1,5-7", part: partition.Partition{5}, m: 32},
	{name: "cube5 slow link {3,2}", spec: "hypercube-5!sl=0-1:2.5", part: partition.Partition{3, 2}, m: 32},
	{name: "torus4x4 dead link {2}", spec: "torus-4x4!dl=0-1", part: partition.Partition{2}, m: 32},
	{name: "torus4x4 slow link {1,1}", spec: "torus-4x4!sl=0-1:3", part: partition.Partition{1, 1}, m: 32},
	{name: "cube6 {3,3} jitter", spec: "hypercube-6", part: partition.Partition{3, 3}, m: 24, jitter: 0.05},
	{name: "cube6 {6} jitter", spec: "hypercube-6", part: partition.Partition{6}, m: 24, jitter: 0.05},
	{name: "torus4x4x4 {3} jitter", spec: "torus-4x4x4", part: partition.Partition{3}, m: 40, jitter: 0.05},
	{name: "cube4 fan-in", spec: "hypercube-4", progs: fanIn(6)},
	{name: "cube4 fan-in jitter", spec: "hypercube-4", progs: fanIn(6), jitter: 0.1},
	{name: "torus4x4 fan-in", spec: "torus-4x4", progs: fanIn(5)},
	{name: "mesh4x4 fan-in", spec: "mesh-4x4", progs: fanIn(5)},
}

// network builds the case's network and, for a compiled case, its plan's
// compiled source.
func (c identityCase) network(t *testing.T) (*simnet.Network, *exchange.CompiledPlan) {
	t.Helper()
	topo, err := topology.ParseSpec(c.spec)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(topo, model.IPSC860())
	net.SetJitter(c.jitter, 42)
	if c.progs != nil {
		return net, nil
	}
	plan, err := exchange.NewPlanOn(topo, c.m, c.part)
	if err != nil {
		t.Fatal(err)
	}
	return net, plan.Compile()
}

// run replays the case.
func (c identityCase) run(t *testing.T) simnet.Result {
	t.Helper()
	net, src := c.network(t)
	var res simnet.Result
	var err error
	if src == nil {
		res, err = net.Run(c.progs(net.Nodes()))
	} else {
		res, err = net.RunSource(src)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// oracle replays the case's programs with no phase structure, every epoch
// on the engine: for a compiled case, the plan's bare programs.
func (c identityCase) oracle(t *testing.T) simnet.Result {
	t.Helper()
	net, src := c.network(t)
	if src == nil {
		return c.run(t)
	}
	res, err := net.Run(src.Programs())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReplayBitIdentity pins every simulated simnet.Result field, bit for
// bit, across the replay core's fast and slow paths: XOR and cyclic
// phases, detours, slow wires, jitter, and one-sided sends
// with link queues deeper than the inline ring — phases priced in closed
// form or run on the engine, as each case allows, and each equal to the
// engine replay of the same bare programs.
func TestReplayBitIdentity(t *testing.T) {
	got := make(map[string]replayDigest)
	for _, c := range identityCases {
		got[c.name] = digestOf(c.run(t))
		if c.progs != nil {
			continue // explicit programs have no phase structure to price
		}
		if d := digestOf(c.oracle(t)); d != got[c.name] {
			t.Errorf("%s: the phase-by-phase replay diverges from the bare programs:\n  phased %+v\n  bare   %+v",
				c.name, got[c.name], d)
		}
	}
	if *updateDigests {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestFile)
		return
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]replayDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cases, the test runs %d", digestFile, len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pinned digest", name)
		} else if g != w {
			t.Errorf("%s: replay is not bit-identical to the pinned result:\n  got  %+v\n  want %+v", name, g, w)
		}
	}
}
