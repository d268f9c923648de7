package simnet_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// updateEpochDigests rewrites testdata/epoch_digests.json from the code
// under test. Regenerate it only for a change that is meant to alter
// simulated results or the timelines of traced replays.
var updateEpochDigests = flag.Bool("update-epoch-digests", false, "rewrite testdata/epoch_digests.json")

const epochDigestFile = "testdata/epoch_digests.json"

// epochDigest pins one replay beyond what replayDigest covers: the
// SHA-256 of its timeline, interval by interval with the exact bits of
// every time, and the fields that say how the result was produced.
type epochDigest struct {
	Result           replayDigest `json:"result"`
	TimelineSHA256   string       `json:"timeline_sha256"`
	Intervals        int          `json:"intervals"`
	ClosedFormPhases int          `json:"closed_form_phases"`
	EnginePhases     int          `json:"engine_phases"`
	DeclineReason    string       `json:"decline_reason"`
	Certificates     int          `json:"certificates"`
}

func epochDigestOf(res simnet.Result) epochDigest {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, iv := range res.Timeline {
		put(uint64(iv.Node))
		put(uint64(iv.Kind))
		put(uint64(iv.Peer))
		put(uint64(iv.Bytes))
		put(math.Float64bits(iv.Start))
		put(math.Float64bits(iv.End))
	}
	return epochDigest{
		Result:           digestOf(res),
		TimelineSHA256:   hex.EncodeToString(h.Sum(nil)),
		Intervals:        len(res.Timeline),
		ClosedFormPhases: res.ClosedFormPhases,
		EnginePhases:     res.EnginePhases,
		DeclineReason:    res.DeclineReason,
		Certificates:     res.Certificates,
	}
}

// staggeredBarriers builds plain programs whose barriers sit at different
// op indices on different nodes: node p computes p mod 3 times before it
// posts, sends and reaches its first barrier. Each node sends its pair
// partner a FORCED message before the first barrier, which the partner
// waits for after it — some arrive before their receive is posted — and
// an UNFORCED one, above the reserve-acknowledge threshold on odd nodes,
// to node p+3, which receives it between the two barriers; on a torus
// those routes overlap, so circuits wait for links. After the second
// barrier the pairs across dimension 1 exchange and shuffle, and every
// node computes once more.
func staggeredBarriers(n int) []simnet.Program {
	progs := make([]simnet.Program, n)
	for p := range progs {
		q, r, s := p^1, (p+3)%n, (p+n-3)%n
		var prog simnet.Program
		for i := 0; i < p%3; i++ {
			prog = append(prog, simnet.Compute(float64(60+20*p)))
		}
		unforced := 200 + 8*p
		if p%2 == 1 {
			unforced = 9000 + p
		}
		prog = append(prog,
			simnet.PostRecv(q),
			simnet.Send(q, 64+8*p, simnet.Forced),
			simnet.Send(r, unforced, simnet.Unforced),
			simnet.Compute(10),
			simnet.Barrier(),
			simnet.Compute(float64(7+p%4)),
			simnet.WaitRecv(q),
			simnet.Recv(s),
		)
		if p%4 == 0 {
			prog = append(prog, simnet.Compute(2.5))
		}
		prog = append(prog,
			simnet.Barrier(),
			simnet.Exchange(p^2, 128),
			simnet.Shuffle(256),
			simnet.Compute(float64(1+p%5)),
		)
		progs[p] = prog
	}
	return progs
}

// epochCases are the pinned replays of this file: traced compiled plans,
// whose timelines a phase-by-phase replay must reproduce, and plain
// programs with staggered barriers, traced and not.
var epochCases = func() []struct {
	c     identityCase
	trace bool
} {
	var cases []struct {
		c     identityCase
		trace bool
	}
	for _, plan := range []struct {
		name, spec string
		part       partition.Partition
		m          int
	}{
		{"cube6 {6}", "hypercube-6", partition.Partition{6}, 24},
		{"cube6 {3,3}", "hypercube-6", partition.Partition{3, 3}, 24},
		{"cube6 {1,2,3}", "hypercube-6", partition.Partition{1, 2, 3}, 16},
		{"torus4x4x4 {3}", "torus-4x4x4", partition.Partition{3}, 40},
		{"torus4x4x4 {2,1}", "torus-4x4x4", partition.Partition{2, 1}, 40},
		{"cube6 dead link {3,3}", "hypercube-6!dl=0-1", partition.Partition{3, 3}, 32},
		{"cube6 dead link {6}", "hypercube-6!dl=0-1", partition.Partition{6}, 32},
	} {
		for _, jitter := range []float64{0, 0.05} {
			name := "traced " + plan.name
			if jitter != 0 {
				name += " jitter"
			}
			cases = append(cases, struct {
				c     identityCase
				trace bool
			}{identityCase{name: name, spec: plan.spec, part: plan.part, m: plan.m, jitter: jitter}, true})
		}
	}
	for _, prog := range []struct {
		name, spec string
		jitter     float64
	}{
		{"cube4 staggered barriers", "hypercube-4", 0},
		{"cube4 staggered barriers jitter", "hypercube-4", 0.05},
		{"torus4x4 staggered barriers", "torus-4x4", 0},
	} {
		for _, trace := range []bool{false, true} {
			name := prog.name
			if trace {
				name = "traced " + name
			}
			cases = append(cases, struct {
				c     identityCase
				trace bool
			}{identityCase{name: name, spec: prog.spec, jitter: prog.jitter, progs: staggeredBarriers}, trace})
		}
	}
	return cases
}()

// TestEpochReplaysPinned pins traced replays of compiled plans — their
// timelines interval by interval, and every Result field — and replays of
// plain programs whose barriers sit at different op indices, with FORCED
// and UNFORCED traffic and computation on both sides of each barrier.
func TestEpochReplaysPinned(t *testing.T) {
	got := make(map[string]epochDigest)
	for _, ec := range epochCases {
		net, src := ec.c.network(t)
		net.SetTrace(ec.trace)
		var res simnet.Result
		var err error
		if src == nil {
			res, err = net.Run(ec.c.progs(net.Nodes()))
		} else {
			res, err = net.RunSource(src)
		}
		if err != nil {
			t.Fatalf("%s: %v", ec.c.name, err)
		}
		if ec.trace != (len(res.Timeline) > 0) {
			t.Fatalf("%s: trace %v left %d intervals", ec.c.name, ec.trace, len(res.Timeline))
		}
		got[ec.c.name] = epochDigestOf(res)
	}
	if *updateEpochDigests {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(epochDigestFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), epochDigestFile)
		return
	}
	raw, err := os.ReadFile(epochDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]epochDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cases, the test runs %d", epochDigestFile, len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pinned digest", name)
		} else if g != w {
			t.Errorf("%s: replay is not bit-identical to the pinned result:\n  got  %+v\n  want %+v", name, g, w)
		}
	}
}

// The errors of runs that stop at a barrier, word for word: a deadlock
// names the lowest-numbered node that did not finish, at the op it is
// stuck in, whether that is a barrier the others can never all reach or
// a receive; an explicit event budget counts the events of the whole run,
// across barriers, and does not list a node that has run every op, even
// while the event of its last step is still pending.
func TestEpochErrorsPinned(t *testing.T) {
	net := func() *simnet.Network { return simnet.New(topology.MustNew(2), model.IPSC860()) }
	for _, tc := range []struct {
		name   string
		budget uint64
		progs  []simnet.Program
		want   string
	}{
		{
			name: "a node finishes while the others wait at a barrier",
			progs: []simnet.Program{
				{simnet.Compute(1), simnet.Barrier(), simnet.Compute(1)},
				{simnet.Compute(2), simnet.Barrier(), simnet.Compute(1), simnet.Barrier()},
				{simnet.Barrier(), simnet.Compute(3), simnet.Barrier()},
				{simnet.Compute(1), simnet.Compute(1), simnet.Barrier(), simnet.Barrier()},
			},
			want: "simnet: node 1 blocked at op 3 (barrier): deadlock",
		},
		{
			name: "a node blocks on a receive while the others wait at a barrier",
			progs: []simnet.Program{
				{simnet.Barrier(), simnet.Recv(1), simnet.Barrier()},
				{simnet.Compute(1), simnet.Barrier(), simnet.Compute(1), simnet.Barrier()},
				{simnet.Barrier(), simnet.Barrier()},
				{simnet.Barrier(), simnet.Send(2, 8, simnet.Forced), simnet.Barrier()},
			},
			want: "simnet: node 0 blocked at op 1 (recv peer 1): deadlock",
		},
		{
			name: "nodes stop at different barrier counts",
			progs: []simnet.Program{
				{simnet.Barrier(), simnet.Compute(1)},
				{simnet.Barrier(), simnet.Compute(1)},
				{simnet.Barrier(), simnet.Barrier(), simnet.Barrier()},
				{simnet.Barrier(), simnet.Compute(4), simnet.Barrier()},
			},
			want: "simnet: node 2 blocked at op 1 (barrier): deadlock",
		},
		{
			name:   "an event budget that runs out in the second epoch",
			budget: 11,
			progs: []simnet.Program{
				{simnet.Compute(1), simnet.Barrier(), simnet.Compute(1), simnet.Compute(1)},
				{simnet.Barrier(), simnet.Exchange(2, 16), simnet.Compute(1)},
				{simnet.Compute(2), simnet.Barrier(), simnet.Exchange(1, 16)},
				{simnet.Barrier(), simnet.Compute(5), simnet.Compute(5)},
			},
			want: "simnet: event budget (11) exhausted after 11 events (livelock?); unfinished: node 1 at op 2/3 (compute), node 3 at op 2/3 (compute)",
		},
		{
			name:   "an event budget that runs out at the barrier release",
			budget: 5,
			progs: []simnet.Program{
				{simnet.Compute(1), simnet.Barrier(), simnet.Compute(1)},
				{simnet.Barrier(), simnet.Compute(1)},
				{simnet.Barrier(), simnet.Compute(1)},
				{simnet.Barrier(), simnet.Compute(1)},
			},
			want: "simnet: event budget (5) exhausted after 5 events (livelock?); unfinished: node 0 at op 2/3 (compute), node 1 at op 1/2 (compute), node 2 at op 1/2 (compute), node 3 at op 1/2 (compute)",
		},
		{
			name:   "an event budget that runs out one event after the barrier release",
			budget: 6,
			progs: []simnet.Program{
				{simnet.Compute(1), simnet.Barrier(), simnet.Compute(1)},
				{simnet.Barrier(), simnet.Compute(1)},
				{simnet.Barrier(), simnet.Compute(1)},
				{simnet.Barrier(), simnet.Compute(1)},
			},
			want: "simnet: event budget (6) exhausted after 6 events (livelock?); unfinished: node 1 at op 1/2 (compute), node 2 at op 1/2 (compute), node 3 at op 1/2 (compute)",
		},
	} {
		n := net()
		n.SetEventBudget(tc.budget)
		_, err := n.Run(tc.progs)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s:\n  got  %v\n  want %s", tc.name, err, tc.want)
		}
	}
}
