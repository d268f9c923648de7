// Command bench is the repository's benchmark: it drives cmd/pland from
// outside, as a planner would, on four workloads, and prints every
// metric BENCHMARK.json names. See README.md in this directory.
//
// Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload serve_hit --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --aa
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

// set records a metric. Reporting a name twice is a bug in the benchmark.
func (ms metricSet) set(name string, value float64, unit string) {
	if _, dup := ms[name]; dup {
		panic("metric reported twice: " + name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		panic(fmt.Sprintf("metric %s is %v", name, value))
	}
	ms[name] = metric{Value: value, Unit: unit}
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// config is one run's settings. The flags fill the first four; the rest
// keep their defaults except where the self-test shrinks the run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool

	bin    string        // pland binary
	warmup time.Duration // discarded closed-loop traffic before the window
	// The fleet is set up at least minSetups times, and up to maxSetups
	// while the discarded ones stay within setupBudget, so setup_s is a
	// median: three of serve_hit's one-second warm-ups, fifteen of the
	// other workloads' bare process starts.
	minSetups, maxSetups int
	smoke                bool // walk the layers at their smallest sizes
}

// setupBudget bounds the time spent on discarded set-ups beyond minSetups.
const setupBudget = 1500 * time.Millisecond

// envInfo is recorded in every output document.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnv() envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown", // the driver's checkout is not a git repository
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// document is the full record of one run, written beside the trace.
type document struct {
	Env      envInfo `json:"env"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Result   result  `json:"result"`
	// SetupSamplesS are the set-up times as measured; setup_s is their
	// median × SetupSpeed, the reference speed around them.
	SetupSamplesS []float64 `json:"setup_samples_s"`
	SetupSpeed    float64   `json:"setup_speed,omitempty"`
	// Window describes the measured window: counts per failure kind, the
	// latency sample counts, the reference and the figures before it was
	// applied, and how idle the generator left the daemon.
	Window struct {
		Attempted        int            `json:"attempted"`
		Failed           int            `json:"failed"`
		FailKinds        map[string]int `json:"fail_kinds"`
		FailedShare      float64        `json:"failed_share"`
		LatencySamples   int            `json:"latency_samples"`
		BeyondP99        int            `json:"samples_beyond_p99"`
		RefSamples       int            `json:"reference_samples"`
		RefMean          float64        `json:"reference_mean"`
		Speed            float64        `json:"speed"`
		TailSpeed        float64        `json:"tail_speed"`
		Raw              figures        `json:"as_measured"`
		GeneratorGap     float64        `json:"generator_gap_share"`
		ClientCPUSeconds float64        `json:"client_cpu_s"`
	} `json:"window"`
	ModelErrMax float64  `json:"model_err_max"`
	CheckErrors []string `json:"check_errors,omitempty"`
	// FailureSamples are the first few operations that failed without an
	// answer to check (transport errors, refusals).
	FailureSamples []string `json:"failure_samples,omitempty"`
	TraceFile      string   `json:"trace_file,omitempty"`
	// A traced run's two daemon phases, whose difference is
	// bench.trace_overhead_share.
	UntracedReqPerS float64 `json:"untraced_req_per_s,omitempty"`
	TracedReqPerS   float64 `json:"traced_req_per_s,omitempty"`
}

func main() {
	var cfg config
	var trace int
	var aa, writeGolden bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve_hit, fleet_churn, cold_build or replay_cost")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated requests")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.BoolVar(&aa, "aa", false, "run every workload twice on this build and compare against the bounds")
	flag.BoolVar(&writeGolden, "write-golden", false, "record the deterministic answers into bench/golden.json")
	refServer := flag.Bool("refserver", false, "serve the reference answer on -addr (how the benchmark starts its reference server)")
	addr := flag.String("addr", "", "listen address for -refserver")
	flag.Parse()
	cfg.traced = trace != 0
	cfg.warmup = 3 * time.Second
	cfg.minSetups, cfg.maxSetups = 3, 15

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *refServer {
		if err := runRefServer(ctx, *addr); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(realMain(ctx, cfg, aa, writeGolden))
}

func realMain(ctx context.Context, cfg config, aa, writeGolden bool) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "out"), 0o755); err != nil {
		return fail(err)
	}
	bin, err := buildPland(ctx)
	if err != nil {
		return fail(err)
	}
	cfg.bin = bin
	switch {
	case aa:
		ok, err := runAA(ctx, cfg)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	case writeGolden:
		if err := recordGolden(ctx, cfg); err != nil {
			return fail(err)
		}
		return 0
	}
	golden, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	doc, err := run(ctx, cfg, golden)
	if err != nil {
		return fail(err)
	}
	return report(doc, os.Stdout, os.Stderr)
}

// report prints the result object as the last line of standard output
// and returns the exit code: non-zero when any answer check failed.
func report(doc *document, stdout, stderr io.Writer) int {
	line, err := json.Marshal(doc.Result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !doc.Result.Correct {
		for _, e := range doc.CheckErrors {
			fmt.Fprintln(stderr, "bench: check failed:", e)
		}
		return 1
	}
	return 0
}

// run performs one benchmark run and writes its output document.
func run(ctx context.Context, cfg config, golden *goldenFile) (*document, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	st := newRunState(golden)
	doc := &document{Env: readEnv(), Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced}
	doc.Result.Metrics = metricSet{}

	// Set-up is process start and, on serve_hit, warm-up builds: compute,
	// so its reference is refKernel, run before the first and after each.
	setupRefs := []float64{refKernel()}
	start := func(withDebug bool) (*fleet, error) {
		f, err := startFleet(ctx, cfg.bin, w, withDebug)
		if err == nil {
			doc.SetupSamplesS = append(doc.SetupSamplesS, f.setupS)
			setupRefs = append(setupRefs, refKernel(), refKernel())
		}
		return f, err
	}
	// Set-up is cheap next to the window, so repeat it and report the
	// median. The measured phases set up once more (twice when traced).
	spent := time.Now()
	for n := 1; n < cfg.maxSetups && (n < cfg.minSetups || time.Since(spent) < setupBudget); n++ {
		f, err := start(false)
		if err != nil {
			return nil, err
		}
		f.stop()
	}

	var win *window
	var rssMB float64
	if cfg.traced {
		win, err = runTraced(ctx, cfg, w, st, start, doc)
	} else {
		win, rssMB, err = runUntraced(ctx, cfg, w, st, start)
	}
	if err != nil {
		return nil, err
	}
	sum := summarize(win)

	doc.Window.Attempted, doc.Window.Failed = sum.Attempted, sum.Failed
	doc.Window.FailKinds, doc.Window.FailedShare = sum.FailKinds, sum.failedShare()
	doc.Window.LatencySamples, doc.Window.BeyondP99 = len(sum.LatenciesUS), sum.BeyondP99
	doc.Window.RefSamples, doc.Window.RefMean = sum.RefSamples, sum.RefMean
	doc.Window.Speed, doc.Window.TailSpeed, doc.Window.Raw = sum.Speed, sum.TailSpeed, sum.Raw
	doc.Window.GeneratorGap, doc.Window.ClientCPUSeconds = win.gapShare, win.clientCPUS
	doc.ModelErrMax = st.modelErrMax
	doc.CheckErrors, doc.FailureSamples = st.wrong, st.failures
	doc.Result.Attempted, doc.Result.Failed = sum.Attempted, sum.Failed
	doc.Result.Correct = len(doc.CheckErrors) == 0
	if sum.succeeded() == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v; %v", sum.FailKinds, st.failures)
	}

	if !cfg.traced {
		ms := doc.Result.Metrics
		doc.SetupSpeed = refKernelNominalMS / mean(setupRefs)
		ms.set("setup_s", median(doc.SetupSamplesS)*doc.SetupSpeed, "s")
		ms.set("req_per_s", sum.ReqPerS, "1/s")
		ms.set("p50_us", sum.P50US, "us")
		ms.set("p90_us", sum.P90US, "us")
		ms.set("p99_us", sum.P99US, "us")
		ms.set("server_cpu_us_per_req", sum.CPUUSPerReq, "us")
		ms.set("wall_s", sum.WallS, "s")
		ms.set("server_cpu_s", sum.ServerCPUS, "s")
		ms.set("server_rss_mb", rssMB, "MB")
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.seed, btoi(cfg.traced))
	return doc, writeJSONFile(filepath.Join(buildDir, "out", name), doc)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// measure runs one phase of the workload against a ready fleet.
func measure(ctx context.Context, w *workload, f *fleet, st *runState,
	seed int64, warm time.Duration, seconds float64, rec *recorder) (*window, error) {
	if w.newGen == nil {
		return driveList(ctx, f, w.items(seed, seconds*listShare, st), st, rec)
	}
	return driveClosed(ctx, f, w, seed, st, warm, time.Duration(seconds*float64(time.Second)), rec)
}

// listShare is the part of a list workload's window its requests' nominal
// costs may fill; refKernel's runs between them take the rest.
const listShare = 0.85

// runProbes asks the pinned probes that are valid against this
// workload's daemon. They run after set-up and before the window, so
// they are part of no metric.
func runProbes(ctx context.Context, w *workload, f *fleet, st *runState) error {
	c := newConn(ctx, f, st)
	defer c.close()
	for i := range st.golden.Probes {
		p := &st.golden.Probes[i]
		if !slices.Contains(p.Workloads, w.name) {
			continue
		}
		r := &request{path: p.Path}
		if p.Body != "" {
			r.body = []byte(p.Body)
		}
		status, body, _, err := c.do(r)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.Name, err)
		}
		if status != http.StatusOK {
			st.noteWrong(fmt.Errorf("probe %s: status %d: %s", p.Name, status, body))
			continue
		}
		if err := p.verify(body); err != nil {
			st.noteWrong(err)
		}
	}
	return nil
}

// runUntraced is the end-to-end run: one fleet, probes, warm-up, window.
func runUntraced(ctx context.Context, cfg config, w *workload, st *runState,
	start func(bool) (*fleet, error)) (*window, float64, error) {
	f, err := start(false)
	if err != nil {
		return nil, 0, err
	}
	defer f.stop()
	if err := runProbes(ctx, w, f, st); err != nil {
		return nil, 0, err
	}
	win, err := measure(ctx, w, f, st, cfg.seed, cfg.warmup, cfg.seconds, nil)
	if err != nil {
		return nil, 0, err
	}
	rss, err := f.peakRSSMB()
	return win, rss, err
}
