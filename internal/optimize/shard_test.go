package optimize

import (
	"context"
	"math"
	"os"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// The simulated backend prices each input the way it should: the XOR
// phases of a healthy cube by certificate, in closed form with no engine
// phase and no decline; the cyclic phases of a torus on the event engine,
// declined as row-not-exchange. Every finished replay counts as serial,
// and the deprecated sharded count stays 0.
func TestSimulatedPricingModes(t *testing.T) {
	prm := model.IPSC860()
	for _, tc := range []struct {
		spec   string
		m      int
		cyclic bool
	}{
		{"hypercube-5", 8, false},
		{"hypercube-6", 40, false},
		{"hypercube-7", 200, false},
		{"torus-4x4x4", 40, true},
	} {
		o := NewSimulated(prm)
		// Exhaustive mode costs every candidate's fragments, so every
		// phase field of the input is priced.
		o.SetExhaustive(true)
		if _, err := o.BestOn(topology.MustParseSpec(tc.spec), tc.m); err != nil {
			t.Fatal(err)
		}
		st := o.Stats()
		if tc.cyclic {
			if st.PhasesEngine == 0 || st.PhasesClosedForm != 0 || st.Declines["row-not-exchange"] == 0 {
				t.Errorf("%s m=%d: cyclic phases must run on the engine: %+v", tc.spec, tc.m, st)
			}
		} else if st.PhasesEngine != 0 || st.PhasesClosedForm == 0 || len(st.Declines) != 0 {
			t.Errorf("%s m=%d: certified phases must be priced in closed form: %+v", tc.spec, tc.m, st)
		}
		if st.ReplaysSharded != 0 || st.ReplaysSerial == 0 {
			t.Errorf("%s m=%d: %d sharded and %d serial replays, want 0 and > 0",
				tc.spec, tc.m, st.ReplaysSharded, st.ReplaysSerial)
		}
	}
}

// The replay counters aggregate like the other Stats fields.
func TestStatsAddReplayCounters(t *testing.T) {
	a := Stats{ReplaysSerial: 3, ReplaysAborted: 1, PhasesClosedForm: 1, Declines: map[string]int64{"jitter": 1}}
	a.Add(Stats{ReplaysSerial: 7, ReplaysAborted: 2, PhasesClosedForm: 2, PhasesEngine: 4, Certificates: 3,
		Declines: map[string]int64{"jitter": 2, "trace": 1}})
	if a.ReplaysSerial != 10 || a.ReplaysAborted != 3 {
		t.Fatalf("Add: got serial=%d aborted=%d", a.ReplaysSerial, a.ReplaysAborted)
	}
	if a.PhasesClosedForm != 3 || a.PhasesEngine != 4 || a.Certificates != 3 || a.Declines["jitter"] != 3 || a.Declines["trace"] != 1 {
		t.Fatalf("Add: got %+v", a)
	}
}

// The acceptance case for the raised limit: the simulated optimizer
// accepts d = 18 (262144 nodes); a healthy cube's phases are certified
// and priced in closed form, never reaching the engine. The enumeration
// is still heavy, so it only runs when REPRO_HEAVY is set; the limit
// itself is pinned unconditionally in TestSimulatedBackendDimLimit.
func TestSimulatedBest18(t *testing.T) {
	if os.Getenv("REPRO_HEAVY") == "" {
		t.Skip("set REPRO_HEAVY=1 to run the full d=18 simulated enumeration")
	}
	prm := model.IPSC860()
	s, err := NewSimulated(prm).BestOn(topology.MustNew(18), 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(prm).BestOn(topology.MustNew(18), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Part.Canonical().Equal(s.Part.Canonical()) {
		t.Errorf("analytic %v vs compiled-simulated %v", a.Part, s.Part)
	}
}

// A certificate is a fact about the topology, not about a machine or a
// block size: over a 17-point sweep on three machines' optimizers (and
// their parallel workers, under -race) each (topology, phase field) is
// certified at most once in the process, a second optimizer of a machine
// already swept certifies nothing, and every machine's answers are still
// the event engine's to the last bit.
func TestCertificatesSharedAcrossMachines(t *testing.T) {
	topo := topology.MustParseSpec("hypercube-8")
	fields := topo.NumDims() * (topo.NumDims() + 1) / 2 // distinct (lo, w) bit fields
	machines := []model.Params{model.IPSC860(), model.Hypothetical(), model.Ncube2(), model.IPSC860()}
	var total Stats
	for i, prm := range machines {
		o := NewSimulated(prm)
		tbl, err := o.BuildTableOnCtx(context.Background(), topo, 0, 256, 16)
		if err != nil {
			t.Fatal(err)
		}
		st := o.Stats()
		if st.PhasesClosedForm == 0 || st.PhasesEngine != 0 {
			t.Fatalf("machine %d: %d closed-form and %d engine phases", i, st.PhasesClosedForm, st.PhasesEngine)
		}
		if i == len(machines)-1 && st.Certificates != 0 {
			t.Errorf("a second iPSC-860 optimizer ran %d certificate passes", st.Certificates)
		}
		total.Add(st)

		// The engine oracle: each hull segment's winner, replayed as bare
		// programs with no phase structure to price.
		for _, seg := range tbl.Segments {
			c, err := o.BestOn(topo, seg.MinBlock)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := exchange.NewPlanOn(topo, seg.MinBlock, c.Part)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := simnet.New(topo, prm).Run(plan.Compile().Programs())
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(c.TimeMicro) != math.Float64bits(oracle.Makespan) {
				t.Errorf("machine %d m=%d %v: %v µs, the engine says %v", i, seg.MinBlock, c.Part, c.TimeMicro, oracle.Makespan)
			}
		}
	}
	if total.Certificates > int64(fields) {
		t.Errorf("%d certificate passes for %d distinct fields", total.Certificates, fields)
	}
	if replays := total.ReplaysSerial; replays <= int64(fields) {
		t.Fatalf("only %d replays: the sweeps must outnumber the %d fields", replays, fields)
	}
}
