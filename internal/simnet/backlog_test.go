package simnet_test

import (
	"math"
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
// their float bits, the message count and the deepest backlog. The
// multi-group {2,1} plan is replayed on the monolithic engine loop as
// well, which must match the pins too.
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
			plan, err := exchange.NewPlanOn(topo, m, tc.part)
			if err != nil {
				t.Fatal(err)
			}
			net := simnet.New(topo, prm)
			res, err := plan.Cost(net)
			if err != nil {
				t.Fatalf("%s %v m=%d: %v", tc.spec, tc.part, m, err)
			}
			runs := map[string]simnet.Result{"phased": res}
			if tc.oracle {
				if runs["monolithic"], err = net.Run(plan.Compile().Programs()); err != nil {
					t.Fatalf("%s %v m=%d: %v", tc.spec, tc.part, m, err)
				}
			}
			for path, res := range runs {
				got := pin{math.Float64bits(res.Makespan), math.Float64bits(res.ContentionStall), res.Messages, res.MaxEdgeQueue}
				if got != tc.pins[i] {
					t.Errorf("%s %v m=%d %s: makespan %v stall %v messages %d maxq %d (bits %#x %#x), pinned %v %v %d %d",
						tc.spec, tc.part, m, path, res.Makespan, res.ContentionStall, res.Messages, res.MaxEdgeQueue,
						got.makespan, got.stall, math.Float64frombits(tc.pins[i].makespan),
						math.Float64frombits(tc.pins[i].stall), tc.pins[i].messages, tc.pins[i].maxq)
				}
			}
		}
	}
}
