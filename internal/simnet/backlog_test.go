package simnet_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// The contended cyclic replays that exercise the link backlogs hardest,
// pinned on the iPSC-860 at m = 4, 40 and 160 to the values recorded
// before the backlog pruned lazily: the makespan and contention stall by
// their float bits, the message count and the deepest backlog. A fresh
// network counts backlogs, so its replays must match every pin. Each is
// replayed again with the count off, which must change no bit of any
// Result field but MaxEdgeQueue, and that one to 0; so must a bounded
// replay that trips. The multi-group {2,1} plan's bare programs are
// replayed on the engine as well, which must match the pins too.
// TestHoldLogPlacementsAgree holds the count off and on to each other
// beyond these pins.
func TestContendedReplayPinned(t *testing.T) {
	type pin struct {
		makespan, stall uint64
		messages, maxq  int
	}
	cases := []struct {
		spec   string
		part   partition.Partition
		oracle bool
		pins   [3]pin // m = 4, 40, 160
	}{
		{"torus-8x8x8", partition.Partition{3}, false, [3]pin{
			{0x4131eea296872ad9, 0x41b86c7b1afced69, 261632, 14},
			{0x41332a48dc28f649, 0x41b9cb0d0b999a1e, 261632, 14},
			{0x4137bd686b851e0e, 0x41c01810e4deb7d9, 261632, 11},
		}},
		{"torus-16x16", partition.Partition{2}, false, [3]pin{
			{0x4131fcd7d4fdf37a, 0x41ac97a25c5c28a3, 65280, 14},
			{0x4133d2ef28f5c2fb, 0x41afde8e8cd70af4, 65280, 15},
			{0x4136e97fdc28f542, 0x41b24c920570a371, 65280, 13},
		}},
		{"mesh-16x16", partition.Partition{2}, false, [3]pin{
			{0x412876bcf9db22e8, 0x419c0aba107efa2d, 65280, 16},
			{0x4129dc2f47ae14d0, 0x419d3c1ea828f61c, 65280, 16},
			{0x412e64ba147ae0ca, 0x41a1dfb747ae147d, 65280, 17},
		}},
		{"torus-8x8x8", partition.Partition{2, 1}, true, [3]pin{
			{0x40f36183851eb858, 0x417439da722d0e59, 35840, 8},
			{0x4104d9e199999991, 0x4182e2098147ae07, 35840, 10},
			{0x411d8f2d1eb851f2, 0x419932d151eb8522, 35840, 8},
		}},
	}
	prm := model.IPSC860()
	for _, tc := range cases {
		topo := topology.MustParseSpec(tc.spec)
		for i, m := range []int{4, 40, 160} {
			label := fmt.Sprintf("%s %v m=%d", tc.spec, tc.part, m)
			plan, err := exchange.NewPlanOn(topo, m, tc.part)
			if err != nil {
				t.Fatal(err)
			}
			net := simnet.New(topo, prm) // counts: bench/ reads MaxEdgeQueue off a plain New
			// Certify every span on the handle first, so that neither
			// run counts a certificate pass the other skips.
			simnet.CyclicWindows(net, plan.Compile())
			runs := map[string]simnet.Result{}
			runs["phased"] = replayOffOn(t, label, net, func(n *simnet.Network) (simnet.Result, error) { return plan.Cost(n) })
			if runs["phased"].MaxEdgeQueue == 0 {
				t.Fatalf("%s: a fresh network counted no link backlog", label)
			}
			if tc.oracle {
				progs := plan.Compile().Programs()
				runs["bare programs"] = replayOffOn(t, label+" as bare programs", net,
					func(n *simnet.Network) (simnet.Result, error) { return n.Run(progs) })
			}
			for path, res := range runs {
				got := pin{math.Float64bits(res.Makespan), math.Float64bits(res.ContentionStall), res.Messages, res.MaxEdgeQueue}
				if got != tc.pins[i] {
					t.Errorf("%s %s: makespan %v stall %v messages %d maxq %d (bits %#x %#x), pinned %v %v %d %d",
						label, path, res.Makespan, res.ContentionStall, res.Messages, res.MaxEdgeQueue,
						got.makespan, got.stall, math.Float64frombits(tc.pins[i].makespan),
						math.Float64frombits(tc.pins[i].stall), tc.pins[i].messages, tc.pins[i].maxq)
				}
			}
			boundedOffOn(t, label, net, plan.Compile(), runs["phased"].Makespan/2)
		}
	}
}

// Whether the link-backlog count runs or not must change no bit of any
// Result field but MaxEdgeQueue beyond the pinned replays too: on jittered
// contended replays, on the overlays whose exchanges hold links through
// the generic engine, on both engine loops, and on bounded replays that
// trip mid-window.
func TestHoldLogPlacementsAgree(t *testing.T) {
	for _, r := range []struct {
		name   string
		spec   string
		part   partition.Partition
		m      int
		jitter float64
		bare   bool // replay the bare programs on the engine too
	}{
		{"torus-16x16 {2} jittered", "torus-16x16", partition.Partition{2}, 40, 0.08, false},
		{"torus-8x8x8 {2,1} jittered", "torus-8x8x8", partition.Partition{2, 1}, 160, 0.08, false},
		{"hypercube-10!sl=0-1:2.5 {5,5}", "hypercube-10!sl=0-1:2.5", partition.Partition{5, 5}, 40, 0, true},
		{"hypercube-10!dl=0-1 {5,5}", "hypercube-10!dl=0-1", partition.Partition{5, 5}, 40, 0, true},
		{"torus-8x8!dl=0-1 {2}", "torus-8x8!dl=0-1", partition.Partition{2}, 160, 0.08, false},
		{"hypercube-6!sl=0-1:2 {3,3}", "hypercube-6!sl=0-1:2", partition.Partition{3, 3}, 40, 0.08, true},
	} {
		topo := topology.MustParseSpec(r.spec)
		plan, err := exchange.NewPlanOn(topo, r.m, r.part)
		if err != nil {
			t.Fatal(err)
		}
		src := plan.Compile()
		net := simnet.New(topo, model.IPSC860())
		net.SetJitter(r.jitter, 7)
		// The first replay on a handle runs the certificate passes later
		// ones reuse: Result.Certificates would differ.
		if _, err := net.RunSource(src); err != nil {
			t.Fatal(err)
		}
		on := replayOffOn(t, r.name, net, func(n *simnet.Network) (simnet.Result, error) { return n.RunSource(src) })
		if on.MaxEdgeQueue < 1 {
			t.Fatalf("%s: no circuit held a link", r.name)
		}
		if r.bare {
			progs := src.Programs()
			replayOffOn(t, r.name+" as bare programs", net,
				func(n *simnet.Network) (simnet.Result, error) { return n.Run(progs) })
		}
		boundedOffOn(t, r.name, net, src, on.Makespan/2)
	}
}

// replayOffOn replays run on net, which counts backlogs, then on a copy of
// it with the count off, and returns the counted result. The two must
// agree in every Result field but MaxEdgeQueue, which is 0 uncounted.
func replayOffOn(t *testing.T, label string, net *simnet.Network, run func(*simnet.Network) (simnet.Result, error)) simnet.Result {
	t.Helper()
	on, err := run(net)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	off, err := run(uncounted(net))
	if err != nil {
		t.Fatalf("%s, count off: %v", label, err)
	}
	requireSameButQueue(t, label, on, off)
	return on
}

// boundedOffOn replays src bounded at cutoff, below its makespan, with
// the count on and off: both must trip, at the same partial result.
func boundedOffOn(t *testing.T, label string, net *simnet.Network, src simnet.Source, cutoff float64) {
	t.Helper()
	on, onErr := net.RunSourceBounded(src, cutoff)
	off, offErr := uncounted(net).RunSourceBounded(src, cutoff)
	if !errors.Is(onErr, simnet.ErrCutoff) || !errors.Is(offErr, simnet.ErrCutoff) {
		t.Fatalf("%s bounded at %v: %v / %v, want ErrCutoff with the count on and off", label, cutoff, onErr, offErr)
	}
	requireSameButQueue(t, label+" bounded", on, off)
}

// uncounted returns a network like net — its fabric handle, parameters and
// jitter — that counts no link backlogs.
func uncounted(net *simnet.Network) *simnet.Network {
	off := *net
	off.SetEdgeQueue(false)
	return &off
}

// requireSameButQueue fails unless off, a replay with the count off, is
// reflect.DeepEqual to on but for a MaxEdgeQueue of 0, naming the fields
// that differ.
func requireSameButQueue(t *testing.T, label string, on, off simnet.Result) {
	t.Helper()
	if off.MaxEdgeQueue != 0 {
		t.Errorf("%s: MaxEdgeQueue %d with the count off, want 0", label, off.MaxEdgeQueue)
	}
	off.MaxEdgeQueue = on.MaxEdgeQueue
	if reflect.DeepEqual(on, off) {
		return
	}
	ov, fv := reflect.ValueOf(on), reflect.ValueOf(off)
	for i := range ov.NumField() {
		if !reflect.DeepEqual(ov.Field(i).Interface(), fv.Field(i).Interface()) {
			t.Errorf("%s: %s differs with the count off", label, ov.Type().Field(i).Name)
		}
	}
	t.FailNow()
}
