package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of the root BENCHMARK.json the benchmark
// itself reads: metric names, units, directions and regression bounds.
type benchmarkSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func (m metricSpec) worsening(a, b float64) float64 {
	if m.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// runAA runs every workload twice on the same build and seed and prints,
// per end-to-end metric, how much worse the second run read than the
// first against the metric's bound. It reports false if any exceeds it,
// or any operation failed: two runs of the same code must agree.
func runAA(ctx context.Context, cfg config) (bool, error) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	golden, err := loadGolden()
	if err != nil {
		return false, err
	}
	cfg.seconds, cfg.traced = spec.RunSeconds, false
	ok := true
	for _, w := range workloads {
		cfg.workload = w.name
		var docs [2]*document
		for i := range docs {
			if docs[i], err = run(ctx, cfg, golden); err != nil {
				return false, err
			}
			if r := docs[i].Result; !r.Correct || r.Failed > 0 {
				fmt.Printf("%-12s run %d: correct=%v failed=%d of %d\n", w.name, i+1, r.Correct, r.Failed, r.Attempted)
				ok = false
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := docs[0].Result.Metrics[m.Name].Value, docs[1].Result.Metrics[m.Name].Value
			worse := m.worsening(a, b)
			verdict := "ok"
			if worse > m.Bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Printf("%-12s %-22s %14.4f %14.4f %-5s worse by %+7.2f%%, bound %2.0f%%  %s\n",
				w.name, m.Name, a, b, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

// recordGolden regenerates the recorded part of bench/golden.json: every
// replay_cost partition at every block size, and every cold_build hull.
// The hand-pinned probes are kept as they are. The answers are simulated
// times and partitions, identical on any host.
func recordGolden(ctx context.Context, cfg config) error {
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	st := newRunState(&goldenFile{}) // record only; nothing to compare with yet
	// An unbounded window selects every item of a list workload.
	for _, w := range []*workload{replayCost, coldBuild} {
		f, err := startFleet(ctx, cfg.bin, w, false)
		if err != nil {
			return err
		}
		win, err := driveList(ctx, f, w.items(cfg.seed, math.Inf(1), st), st, nil)
		f.stop()
		if err != nil {
			return err
		}
		// Every check fails against the empty golden file; anything else
		// means the answer itself never arrived.
		if t := summarize(win); t.FailKinds[failWrong] != t.Failed {
			return fmt.Errorf("recording %s: %v; %v", w.name, t.FailKinds, st.failures)
		}
	}
	golden.CostSimulatedUS, golden.Hulls = st.costSeen, st.hullSeen
	fmt.Printf("recorded %d cost answers and %d hulls\n", len(st.costSeen), len(st.hullSeen))
	return writeJSONFile(filepath.Join("bench", "golden.json"), golden)
}
