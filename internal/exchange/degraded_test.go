package exchange_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func overlay(t *testing.T, base topology.Network, fs topology.FaultSet) *topology.Degraded {
	t.Helper()
	d, err := topology.Overlay(base, fs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// defaultGroups returns the all-ones grouping (one dimension per phase)
// for any topology — valid on every shape.
func defaultGroups(net topology.Network) []int {
	g := make([]int, net.NumDims())
	for i := range g {
		g[i] = 1
	}
	return g
}

// Acceptance: a torus with one dead link produces a verified
// data-correct complete exchange on both fabrics (the Sim fabric moves
// and checks real payloads; the runtime fabric runs real goroutines).
func TestOneDeadLinkTorusExchangeBothFabrics(t *testing.T) {
	p := model.IPSC860()
	d := overlay(t, topology.MustParseSpec("torus-4x4"), topology.FaultSet{
		DeadLinks: []topology.Link{{A: 0, B: 1}},
	})
	if err := d.Operational(); err != nil {
		t.Fatal(err)
	}
	for _, groups := range [][]int{{1, 1}, {2}} {
		plan, err := exchange.NewPlanOn(d, 8, groups)
		if err != nil {
			t.Fatalf("exchange.NewPlanOn(%v): %v", groups, err)
		}
		// Sim fabric: Simulate verifies every payload landed correctly.
		if _, err := plan.Simulate(simnet.New(d, p)); err != nil {
			t.Fatalf("Simulate(%v): %v", groups, err)
		}
		// Runtime fabric: real goroutines, real data movement.
		if err := plan.RunData(30 * time.Second); err != nil {
			t.Fatalf("RunData(%v): %v", groups, err)
		}
	}
}

// A degraded fabric that cannot host a complete exchange fails plan
// construction with the typed unroutable error.
func TestPlanOnNonOperationalDegraded(t *testing.T) {
	dead := overlay(t, topology.MustParseSpec("torus-4x4"), topology.FaultSet{DeadNodes: []int{3}})
	if _, err := exchange.NewPlanOn(dead, 8, []int{1, 1}); !errors.Is(err, topology.ErrUnroutable) {
		t.Fatalf("NewPlanOn with dead node: %v, want ErrUnroutable", err)
	}
	severed := overlay(t, topology.MustParseSpec("mesh-6"), topology.FaultSet{
		DeadLinks: []topology.Link{{A: 2, B: 3}},
	})
	if _, err := exchange.NewPlanOn(severed, 8, []int{1}); !errors.Is(err, topology.ErrUnroutable) {
		t.Fatalf("NewPlanOn on severed mesh: %v, want ErrUnroutable", err)
	}
}
