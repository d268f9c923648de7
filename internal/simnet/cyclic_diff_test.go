package simnet_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// hiddenShape is a compiled plan whose spans promise no Shape, so every
// window runs on the generic engine — the one a cyclic window ran on
// before the interpreter.
type hiddenShape struct {
	*exchange.CompiledPlan
	spans []simnet.PhaseSpan
}

func (h hiddenShape) PhaseSpans() []simnet.PhaseSpan { return h.spans }

// bareSource hides the phase structure too: every epoch on the generic
// engine, the oracle every phase-by-phase path is held to.
type bareSource struct{ simnet.Source }

// cyclicCase is one differential input: a plan on a fabric, replayed on a
// machine, with the knobs that change results.
type cyclicCase struct {
	spec    string
	part    partition.Partition
	m       int
	machine string
	jitter  float64
	cutoff  float64 // the bound as a fraction of the makespan; 0 for none
}

func (c cyclicCase) String() string {
	return fmt.Sprintf("%s %v m=%d %s jitter=%g cutoff=%g",
		c.spec, c.part, c.m, c.machine, c.jitter, c.cutoff)
}

// check replays the case three ways — the cyclic interpreter, the
// generic engine window, the bare oracle — unbounded and, when
// the case has a cutoff, bounded, and requires every Result field to
// agree. It reports false, checking nothing, for a fabric that cannot
// host the plan.
func (c cyclicCase) check(t *testing.T) bool {
	t.Helper()
	topo, err := topology.ParseSpec(c.spec)
	if err != nil {
		return false
	}
	plan, err := exchange.NewPlanOn(topo, c.m, c.part)
	if err != nil {
		return false
	}
	kernel := plan.Compile()
	generic := hiddenShape{CompiledPlan: kernel, spans: append([]simnet.PhaseSpan(nil), kernel.PhaseSpans()...)}
	cyclic := 0
	for i := range generic.spans {
		if generic.spans[i].Shape == simnet.ShapeCyclic {
			cyclic++
		}
		generic.spans[i].Shape = ""
	}
	net := func() *simnet.Network {
		n := simnet.New(topo, model.Machines()[c.machine])
		n.SetJitter(c.jitter, 7)
		return n
	}
	if got := simnet.CyclicWindows(net(), kernel); got != cyclic {
		t.Fatalf("%v: %d of %d cyclic windows keep the promise", c, got, cyclic)
	}
	compare := func(cutoff float64) simnet.Result {
		want, wantErr := net().RunSourceBounded(bareSource{kernel}, cutoff)
		for _, path := range []struct {
			name string
			src  simnet.Source
		}{{"cyclic interpreter", kernel}, {"generic engine", generic}} {
			got, err := net().RunSourceBounded(path.src, cutoff)
			switch {
			case (err == nil) != (wantErr == nil) || errors.Is(err, simnet.ErrCutoff) != errors.Is(wantErr, simnet.ErrCutoff):
				t.Fatalf("%v cutoff %v: %s returned %v, the oracle %v", c, cutoff, path.name, err, wantErr)
			case err == nil && !reflect.DeepEqual(simulated(got), simulated(want)):
				t.Fatalf("%v cutoff %v: %s differs from the oracle\n got  %+v\n want %+v", c, cutoff, path.name, got, want)
			}
		}
		kres, kerr := net().RunSourceBounded(kernel, cutoff)
		gres, gerr := net().RunSourceBounded(generic, cutoff)
		kres.Certificates, gres.Certificates = 0, 0 // the hidden shape certifies on every replay
		if (kerr == nil) != (gerr == nil) || kerr == nil && !reflect.DeepEqual(kres, gres) {
			t.Fatalf("%v cutoff %v: the interpreter and the generic engine differ\n interpreter %+v (%v)\n generic     %+v (%v)",
				c, cutoff, kres, kerr, gres, gerr)
		}
		return want
	}
	want := compare(math.Inf(1))
	if c.cutoff > 0 && want.Makespan > 0 {
		compare(want.Makespan * c.cutoff)
	}
	return true
}

// simulated strips the fields that say how a result was produced.
func simulated(r simnet.Result) simnet.Result {
	r.ClosedFormPhases, r.EnginePhases, r.DeclineReason, r.Certificates = 0, 0, "", 0
	return r
}

// cyclicCases cover the interpreter's inputs: one, two and three phases
// of it with and without a shuffle, radix-2 fields beside it (which are
// XOR phases), tori and meshes, every registered machine, jitter, dead
// and slow wires, an empty block, and cutoffs on both
// sides of the makespan.
var cyclicCases = []cyclicCase{
	{spec: "torus-4x4x4", part: partition.Partition{3}, m: 40, machine: "ipsc860"},
	{spec: "torus-4x4x4", part: partition.Partition{1, 1, 1}, m: 16, machine: "hypo"},
	{spec: "torus-3x5", part: partition.Partition{1, 1}, m: 8, machine: "ncube2"},
	{spec: "torus-6x6", part: partition.Partition{2}, m: 512, machine: "ipsc860-raw", cutoff: 0.9},
	{spec: "mesh-6x5", part: partition.Partition{1, 1}, m: 24, machine: "ipsc860-nosync"},
	{spec: "mesh-4x4x4", part: partition.Partition{2, 1}, m: 40, machine: "ipsc860", jitter: 0.05},
	{spec: "torus-2x6", part: partition.Partition{1, 1}, m: 8, machine: "hypo"},
	{spec: "torus-3x3x3x3", part: partition.Partition{2, 2}, m: 4, machine: "ipsc860", jitter: 0.08, cutoff: 1.2},
	{spec: "torus-5x5", part: partition.Partition{2}, m: 0, machine: "ipsc860"},
	{spec: "torus-4x4!dl=0-1", part: partition.Partition{2}, m: 32, machine: "ipsc860"},
	{spec: "torus-4x4!sl=0-1:3", part: partition.Partition{1, 1}, m: 32, machine: "ncube2"},
	{spec: "mesh-5x4!dl=0-1", part: partition.Partition{1, 1}, m: 100, machine: "hypo", jitter: 0.02, cutoff: 0.99},
	{spec: "mesh-3x6x2", part: partition.Partition{1, 2}, m: 60, machine: "ipsc860", cutoff: 0.5},
	{spec: "torus-6", part: partition.Partition{1}, m: 200, machine: "hypo"},
}

// The cyclic interpreter equals the generic engine window and the bare
// oracle in every Result field, on a seeded table.
func TestCyclicWindowMatchesEngine(t *testing.T) {
	for _, c := range cyclicCases {
		if !c.check(t) {
			t.Fatalf("%v: the fabric cannot host the plan", c)
		}
	}
}

// FuzzCyclicWindow draws the differential inputs: a torus or mesh of one
// to four dimensions of radix 2–6 (at most 256 nodes, radices clamped to
// 4 beyond that), a random partition of its dimensions, m in [0, 512],
// any registered machine, jitter, a dead or slow wire and a cutoff.
func FuzzCyclicWindow(f *testing.F) {
	f.Add(uint16(0o1234), uint8(2), false, uint8(0), uint16(40), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint16(0o4321), uint8(1), true, uint8(1), uint16(300), uint8(3), uint8(5), uint8(1), uint8(100))
	f.Add(uint16(0o7777), uint8(3), false, uint8(5), uint16(0), uint8(2), uint8(3), uint8(2), uint8(250))
	names := model.MachineNames()
	f.Fuzz(func(t *testing.T, radices uint16, dims uint8, mesh bool, cuts uint8, m uint16,
		machine, jitter, overlay, cutoff uint8) {
		nd := 1 + int(dims%4)
		rs := make([]int, nd)
		nodes := 1
		for i := range rs {
			rs[i] = 2 + int(radices>>(3*i)&7)%5
			nodes *= rs[i]
		}
		var spec strings.Builder
		spec.WriteString("torus-")
		if mesh {
			spec.Reset()
			spec.WriteString("mesh-")
		}
		part := partition.Partition{1}
		for i, r := range rs {
			if nodes > 256 {
				r = min(r, 4)
			}
			if i > 0 {
				spec.WriteString("x")
				if cuts>>i&1 != 0 {
					part = append(part, 1)
				} else {
					part[len(part)-1]++
				}
			}
			fmt.Fprint(&spec, r)
		}
		switch overlay % 3 {
		case 1:
			spec.WriteString("!dl=0-1")
		case 2:
			spec.WriteString("!sl=0-1:2.5")
		}
		c := cyclicCase{
			spec:    spec.String(),
			part:    part,
			m:       int(m % 513),
			machine: names[int(machine)%len(names)],
		}
		if jitter%4 != 0 {
			c.jitter = float64(jitter%8) / 100
		}
		if cutoff%3 != 0 {
			c.cutoff = 0.5 + float64(cutoff)/255
		}
		if !c.check(t) {
			t.Skipf("%v: the fabric cannot host the plan", c)
		}
	})
}
