package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"slices"
)

//go:embed golden.json
var goldenJSON []byte

// goldenTol is the relative agreement required with golden.json. The
// simulator is deterministic, so any drift beyond float formatting is a
// changed answer.
const goldenTol = 1e-9

// probe is one pinned request whose answer is known from the paper or
// from this repository's verified oracle values.
type probe struct {
	Name      string   `json:"name"`
	Workloads []string `json:"workloads"` // daemons the probe is valid against
	Path      string   `json:"path"`
	Body      string   `json:"body,omitempty"` // POST when set
	// Expectations; zero values are not checked.
	Partition   []int   `json:"partition,omitempty"`
	PredictedUS float64 `json:"predicted_us,omitempty"`
	SimulatedUS float64 `json:"simulated_us,omitempty"`
	TolUS       float64 `json:"tol_us,omitempty"`
}

// goldenFile is bench/golden.json: the pinned probes (written by hand)
// and the recorded deterministic answers (written by -write-golden).
type goldenFile struct {
	Probes []probe `json:"probes"`
	// CostSimulatedUS maps costKey → simulated_us of a /v1/cost answer.
	CostSimulatedUS map[string]float64 `json:"cost_simulated_us"`
	// Hulls maps hullKey(machine, topology) → the line's simulated-backend
	// hull on the cold_build sweep (0..256 step 16).
	Hulls map[string][]segment `json:"hulls"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	return &g, nil
}

func costKey(topo string, m int, part []int) string {
	return fmt.Sprintf("%s m=%d %v", topo, m, part)
}

// verify checks a probe's answer body against its expectations.
func (p *probe) verify(body []byte) error {
	var a struct {
		planAnswer
		SimulatedUS float64 `json:"simulated_us"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("probe %s: %w", p.Name, err)
	}
	if p.Partition != nil && !slices.Equal(a.Partition, p.Partition) {
		return fmt.Errorf("probe %s: partition %v, want %v", p.Name, a.Partition, p.Partition)
	}
	if p.PredictedUS != 0 && math.Abs(a.PredictedUS-p.PredictedUS) > p.TolUS {
		return fmt.Errorf("probe %s: predicted_us %v, want %v ± %v", p.Name, a.PredictedUS, p.PredictedUS, p.TolUS)
	}
	if p.SimulatedUS != 0 && math.Abs(a.SimulatedUS-p.SimulatedUS) > p.TolUS {
		return fmt.Errorf("probe %s: simulated_us %v, want %v ± %v", p.Name, a.SimulatedUS, p.SimulatedUS, p.TolUS)
	}
	return nil
}

// checkHull compares a /v1/hull answer with the recorded hull.
func (g *goldenFile) checkHull(key string, got []segment) error {
	want, ok := g.Hulls[key]
	if !ok {
		return fmt.Errorf("no golden hull for %s", key)
	}
	if len(got) != len(want) {
		return fmt.Errorf("hull %s has %d segments, golden has %d", key, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Partition, want[i].Partition) ||
			got[i].MinBlock != want[i].MinBlock || got[i].MaxBlock != want[i].MaxBlock {
			return fmt.Errorf("hull %s segment %d is %+v, golden %+v", key, i, got[i], want[i])
		}
	}
	return nil
}

// checkCost compares a /v1/cost answer's simulated time with the
// recorded one.
func (g *goldenFile) checkCost(key string, simulatedUS float64) error {
	want, ok := g.CostSimulatedUS[key]
	if !ok {
		return fmt.Errorf("no golden simulated_us for %s", key)
	}
	if relDiff(simulatedUS, want) > goldenTol {
		return fmt.Errorf("simulated_us for %s is %v, golden %v", key, simulatedUS, want)
	}
	return nil
}
