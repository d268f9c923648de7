package simnet

import (
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
)

// A statically slow wire (Degraded overlay) stretches exactly the
// exchanges that cross it, by exactly the factor.
func TestStaticSlowLinkStretchesExchange(t *testing.T) {
	p := model.IPSC860()
	base := topology.MustParseSpec("torus-4x4")
	const factor = 3.0
	d, err := topology.Overlay(base, topology.FaultSet{
		SlowLinks: []topology.SlowLink{{Link: topology.Link{A: 0, B: 1}, Factor: factor}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := New(d, p)
	m := 100
	healthy := p.EffLambda() + p.Tau*float64(m) + p.EffDelta()*1

	progs := emptyPrograms(16)
	progs[0] = Program{Exchange(1, m)} // crosses the slow wire
	progs[1] = Program{Exchange(0, m)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if want := factor * healthy; !almost(res.Makespan, want, 1e-9) {
		t.Errorf("slow-wire exchange makespan = %v, want %v", res.Makespan, want)
	}

	progs = emptyPrograms(16)
	progs[2] = Program{Exchange(3, m)} // far from the slow wire
	progs[3] = Program{Exchange(2, m)}
	res, err = n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, healthy, 1e-9) {
		t.Errorf("healthy-wire exchange makespan = %v, want %v", res.Makespan, healthy)
	}
}

// Static slow wires compose with jitter deterministically: two runs with
// the same seed on the same degraded overlay agree bit-for-bit.
func TestFaultsComposeWithJitterDeterministically(t *testing.T) {
	p := model.IPSC860()
	base := topology.MustParseSpec("torus-4x4")
	d, err := topology.Overlay(base, topology.FaultSet{
		SlowLinks: []topology.SlowLink{{Link: topology.Link{A: 0, B: 1}, Factor: 2.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (Result, error) {
		n := New(d, p)
		n.SetJitter(0.05, 42)
		progs := emptyPrograms(16)
		for _, pair := range [][2]int{{0, 1}, {4, 5}, {8, 9}} {
			progs[pair[0]] = Program{Exchange(pair[1], 64), Exchange(pair[1], 64)}
			progs[pair[1]] = Program{Exchange(pair[0], 64), Exchange(pair[0], 64)}
		}
		return n.Run(progs)
	}
	r1, err1 := mk()
	r2, err2 := mk()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Makespan != r2.Makespan || r1.ContentionStall != r2.ContentionStall {
		t.Fatalf("jittered faulty runs diverge: %v vs %v", r1.Makespan, r2.Makespan)
	}
	// And the jittered slow exchange is genuinely ≠ the unjittered one.
	n := New(d, p)
	progs := emptyPrograms(16)
	progs[0] = Program{Exchange(1, 64)}
	progs[1] = Program{Exchange(0, 64)}
	r3, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.5 * (p.EffLambda() + p.Tau*64 + p.EffDelta()*1)
	if !almost(r3.Makespan, want, 1e-9) {
		t.Errorf("unjittered slow exchange = %v, want %v", r3.Makespan, want)
	}
}

// A faulty Degraded overlay with a dead wire detours circuits around it:
// the replay core never touches the dead wire's slots and the exchange
// still completes (at the longer detour distance).
func TestDegradedDeadWireDetoursInReplay(t *testing.T) {
	p := model.IPSC860()
	base := topology.MustParseSpec("torus-4x4")
	d, err := topology.Overlay(base, topology.FaultSet{
		DeadLinks: []topology.Link{{A: 0, B: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := New(d, p)
	m := 100
	progs := emptyPrograms(16)
	progs[0] = Program{Exchange(1, m)}
	progs[1] = Program{Exchange(0, m)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	h := d.Distance(0, 1) // detour length, > 1
	if h <= 1 {
		t.Fatalf("detour distance = %d, want > 1", h)
	}
	want := p.EffLambda() + p.Tau*float64(m) + p.EffDelta()*float64(h)
	if !almost(res.Makespan, want, 1e-9) {
		t.Errorf("detoured exchange makespan = %v, want %v", res.Makespan, want)
	}
}
