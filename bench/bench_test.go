package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The benchmark runs from the repository root (it builds ./cmd/pland and
// reads BENCHMARK.json there), so the tests do too. `go test -short`
// skips everything that starts a daemon.
func TestMain(m *testing.M) {
	// The benchmark starts its reference server by running its own binary
	// with -refserver; under test that binary is this one.
	if i := slices.Index(os.Args, "-refserver"); i >= 0 {
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
		defer stop()
		if err := runRefServer(ctx, os.Args[slices.Index(os.Args, "-addr")+1]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// smokeConfig is the smallest run of a workload: one set-up, a
// fraction of a second of warm-up and window, and for the list
// workloads the cheapest items only.
func smokeConfig(t *testing.T, workload string, seconds float64, traced bool) config {
	t.Helper()
	if testing.Short() {
		t.Skip("starts pland")
	}
	if err := os.MkdirAll(buildDir+"/out", 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := buildPland(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return config{
		workload: workload, seed: 1, seconds: seconds, traced: traced,
		bin: bin, warmup: 100 * time.Millisecond, minSetups: 1, maxSetups: 1, smoke: true,
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that got holds exactly the metrics want names,
// each once (a map cannot hold a name twice; set panics on a repeat)
// with the unit BENCHMARK.json gives it.
func checkMetrics(t *testing.T, got metricSet, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		if !metricName.MatchString(m.Name) {
			t.Errorf("BENCHMARK.json names %q, which is not a valid metric name", m.Name)
		}
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s named in BENCHMARK.json was not emitted", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s emitted with unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		names := map[string]bool{}
		for _, m := range want {
			names[m.Name] = true
		}
		for name := range got {
			if !names[name] {
				t.Errorf("metric %s emitted but not named in BENCHMARK.json", name)
			}
		}
	}
}

func TestWorkloadsEmitTheNamedMetrics(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			doc, err := run(context.Background(), smokeConfig(t, w.Name, 0.5, false), golden)
			if err != nil {
				t.Fatal(err)
			}
			if r := doc.Result; !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d; checks: %v", r.Correct, r.Attempted, r.Failed, doc.CheckErrors)
			}
			checkMetrics(t, doc.Result.Metrics, spec.EndToEnd)
		})
	}
	// The traced run emits the same per-layer names whatever the
	// workload; fleet_churn is the one that exercises every scraped
	// section, the cluster's included.
	t.Run("traced", func(t *testing.T) {
		doc, err := run(context.Background(), smokeConfig(t, "fleet_churn", 2, true), golden)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, doc.Result.Metrics, spec.PerLayer)
		if _, err := os.Stat(doc.TraceFile); err != nil {
			t.Errorf("no Chrome trace written: %v", err)
		}
	})
}

func TestWrongGoldenFailsTheRun(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	// One of the smoke list's partitions, so other operations still succeed.
	for key := range golden.CostSimulatedUS {
		if strings.HasPrefix(key, "mesh-16x16 ") {
			golden.CostSimulatedUS[key] *= 1.001
		}
	}
	doc, err := run(context.Background(), smokeConfig(t, "replay_cost", 0.2, false), golden)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Result.Correct || doc.Result.Failed == 0 || len(doc.CheckErrors) == 0 {
		t.Errorf("a wrong golden value left correct=%v failed=%d checks=%v", doc.Result.Correct, doc.Result.Failed, doc.CheckErrors)
	}
	if code := report(doc, io.Discard, io.Discard); code == 0 {
		t.Error("an incorrect run exits 0")
	}
}

func TestPercentileAndFailureArithmetic(t *testing.T) {
	// 100 successes of 1..100 µs, then a 400, a 503 and a transport error.
	var ops []op
	for i := 100; i >= 1; i-- {
		ops = append(ops, op{latency: time.Duration(i) * time.Microsecond, primary: true})
	}
	for _, fail := range []string{
		classify(nil, 400, nil),
		classify(nil, 503, nil),
		classify(errors.New("connection refused"), 0, nil),
	} {
		ops = append(ops, op{latency: time.Second, fail: fail, primary: true})
	}
	tl := tallyOps(ops)
	if tl.Attempted != 103 || tl.Failed != 3 || tl.succeeded() != 100 {
		t.Errorf("attempted=%d failed=%d succeeded=%d, want 103/3/100", tl.Attempted, tl.Failed, tl.succeeded())
	}
	for _, kind := range []string{failClient, failShed, failTransport} {
		if tl.FailKinds[kind] != 1 {
			t.Errorf("fail kind %s counted %d times, want 1", kind, tl.FailKinds[kind])
		}
	}
	if got, want := tl.failedShare(), 3.0/103; got != want {
		t.Errorf("failed share %v, want %v", got, want)
	}
	if len(tl.LatenciesUS) != 100 {
		t.Fatalf("%d latency samples, want 100: failed operations must miss the list", len(tl.LatenciesUS))
	}
	for _, c := range []struct {
		p, want float64
		beyond  int
	}{{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {100, 100, 0}} {
		got, beyond := percentile(tl.LatenciesUS, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}

	for _, c := range []struct {
		err    error
		status int
		check  error
		want   string
	}{
		{nil, 200, nil, ""},
		{nil, 200, errors.New("partition sums to 6"), failWrong},
		{nil, 500, nil, failServer},
		{nil, 499, nil, failClient},
	} {
		if got := classify(c.err, c.status, c.check); got != c.want {
			t.Errorf("classify(%v, %d, %v) = %q, want %q", c.err, c.status, c.check, got, c.want)
		}
	}
}

func TestReferenceArithmetic(t *testing.T) {
	// A closed-loop window on a box running at half the nominal speed:
	// every time reads half as long as measured, the rate twice as high.
	ops := []op{{latency: 300 * time.Microsecond, primary: true}, {latency: 500 * time.Microsecond, primary: true}}
	win := &window{ops: ops, refs: []float64{refNominalUS, 2 * refNominalUS, 3 * refNominalUS},
		workS: 4, cpuS: 1, closedLoop: true}
	s := summarize(win)
	if s.Speed != 0.5 || s.RefSamples != 3 {
		t.Errorf("speed %v from %d samples, want 0.5 from 3", s.Speed, s.RefSamples)
	}
	// The p99 is scaled by the reference's own p99, here 3 × its nominal mean.
	if want := 500 * refNominalP99US / (3 * refNominalUS); s.Raw.P50US != 300 || s.P50US != 150 || s.P99US != want {
		t.Errorf("p50 %v as measured, %v and p99 %v referenced; want 300, 150, %v", s.Raw.P50US, s.P50US, s.P99US, want)
	}
	if s.Raw.ReqPerS != 0.5 || s.ReqPerS != 1 || s.CPUUSPerReq != 250e3 {
		t.Errorf("rate %v as measured, %v referenced, CPU %v µs per request; want 0.5, 1, 250000", s.Raw.ReqPerS, s.ReqPerS, s.CPUUSPerReq)
	}
	// 100 000 requests at one a second and a quarter of a second's CPU each.
	if s.WallS != closedLoopWork || s.ServerCPUS != closedLoopWork/4 {
		t.Errorf("closed-loop wall %v s and CPU %v s for %d requests", s.WallS, s.ServerCPUS, closedLoopWork)
	}
	// The same on a list: the time to solution is a time the program took.
	win.closedLoop, win.refs = false, []float64{2 * refKernelNominalMS}
	if s := summarize(win); s.WallS != 2 || s.ServerCPUS != 0.5 || s.P99US != 250 {
		t.Errorf("list wall %v s, CPU %v s and p99 %v µs, want 2, 0.5 and 250", s.WallS, s.ServerCPUS, s.P99US)
	}

	// Reference phases are the last quarter of every 200 ms, warm-up included.
	for d, want := range map[time.Duration]bool{
		0: false, 149 * time.Millisecond: false, 150 * time.Millisecond: true, 199 * time.Millisecond: true,
		200 * time.Millisecond: false, -1 * time.Millisecond: true, -51 * time.Millisecond: false,
	} {
		if got := inRefPhase(d); got != want {
			t.Errorf("inRefPhase(%v) = %v, want %v", d, got, want)
		}
	}
	if got := workTime(time.Second + 180*time.Millisecond); got != 900*time.Millisecond {
		t.Errorf("workTime(1.18 s) = %v, want 900 ms", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses; utime=250 stime=50.
	const stat = "4242 (pl and) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 12345 1 1"
	got, err := parseStatCPU(stat)
	if err != nil || got != 3.0 {
		t.Errorf("parseStatCPU = %v, %v; want 3 s", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
}

func TestFitBudget(t *testing.T) {
	nominal := []float64{3, 0.5, 9, 1}
	for _, c := range []struct {
		seconds float64
		want    []int
	}{
		{0.1, []int{1}}, // never empty: the cheapest item
		{1.5, []int{1, 3}},
		{5, []int{0, 1, 3}},
		{100, []int{0, 1, 2, 3}},
	} {
		if got := fitBudget(nominal, c.seconds); !slices.Equal(got, c.want) {
			t.Errorf("fitBudget(%v s) = %v, want %v", c.seconds, got, c.want)
		}
	}
}
