package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// startFleet execs the workload's daemons and waits until every replica
// is ready and the pre-touch requests are answered. The time that took
// is the fleet's setupS. withDebug adds each daemon's -debug-addr
// listener, which only traced phases need.
func startFleet(ctx context.Context, bin string, w *workload, withDebug bool) (_ *fleet, err error) {
	n := w.replicas
	ports, err := reservePorts(2 * n)
	if err != nil {
		return nil, err
	}
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", ports[i])
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	f := &fleet{}
	defer func() {
		if err != nil {
			f.stop() // whatever part of the fleet did start
		}
	}()
	if w.newGen != nil {
		// The reference server is the benchmark's own, so the set-up clock
		// starts after it is up.
		if f.ref, err = startRefServer(ctx, hc); err != nil {
			return nil, err
		}
	}
	begin := time.Now()
	for i := 0; i < n; i++ {
		debugPort := 0
		if withDebug {
			debugPort = ports[n+i]
		}
		logPath := filepath.Join(buildDir, fmt.Sprintf("pland-%s-%d.log", w.name, i))
		d, err := startDaemon(bin, ports[i], debugPort, logPath, w.flags(i, urls)...)
		if err != nil {
			return nil, err
		}
		f.daemons = append(f.daemons, d)
	}
	for _, d := range f.daemons {
		if err := d.waitReady(ctx, hc); err != nil {
			return nil, err
		}
	}
	for _, path := range w.pretouch {
		var a planAnswer
		if err := getJSON(ctx, hc, f.daemons[0].base+path, &a); err != nil {
			return nil, fmt.Errorf("pre-touch: %w", err)
		}
	}
	f.setupS = time.Since(begin).Seconds()
	return f, nil
}

// window is what one measured phase observed.
type window struct {
	ops []op // the workload's operations, in completion order
	// refs are the reference's samples, in the order taken: the reference
	// request's latencies in µs for a closed loop, refKernel's times in ms
	// for a list.
	refs []float64
	// workS is the time the workload had: the window less its reference
	// phases for a closed loop, the sum of the requests' latencies for a
	// list. cpuS is the fleet's CPU over the whole phase.
	workS, cpuS float64
	closedLoop  bool
	clientCPUS  float64 // the generator process's own CPU over the phase
	// gapShare is the part of the connections' time spent between
	// requests — generating the next one and checking the last answer —
	// during which a closed-loop connection offers the daemon no load.
	gapShare float64
}

// selfCPUSeconds is the benchmark process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// driveClosed runs the closed-loop phase: nproc connections, each
// sending its generator's next request as soon as the previous answer
// has been read — or, in the window's reference phases, the reference
// request. Traffic is continuous through the discarded warm-up into the
// measured window.
func driveClosed(ctx context.Context, f *fleet, w *workload, seed int64, st *runState,
	warm, dur time.Duration, rec *recorder) (*window, error) {

	workers := runtime.NumCPU()
	start := time.Now().Add(warm)
	end := start.Add(dur)
	perWorker := make([][]op, workers)
	gaps := make([]time.Duration, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newConn(ctx, f, st)
			defer c.close()
			gen := w.newGen(seed, i, st)
			track := fmt.Sprintf("client conn %d", i)
			var lastDone time.Time
			for ctx.Err() == nil {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				r := refRequest
				if !inRefPhase(now.Sub(start)) {
					r = gen.next()
					now = time.Now()
				}
				if now.Before(start) {
					c.run(r, start, nil, track) // warm-up: not recorded
					continue
				}
				if !lastDone.IsZero() {
					gaps[i] += now.Sub(lastDone)
				}
				o := c.run(r, start, rec, track)
				perWorker[i] = append(perWorker[i], o)
				lastDone = start.Add(o.done)
			}
		}(i)
	}

	select {
	case <-time.After(time.Until(start)):
	case <-ctx.Done():
	}
	win := &window{closedLoop: true}
	clientCPU0 := selfCPUSeconds()
	cpu0, err := f.cpuSeconds()
	wg.Wait()
	// The window closes when the last answer is in.
	win.workS = (time.Since(start) - (dur - workTime(dur))).Seconds()
	if err == nil {
		win.cpuS, err = f.cpuSeconds()
		win.cpuS -= cpu0
	}
	win.clientCPUS = selfCPUSeconds() - clientCPU0
	if err != nil {
		return nil, fmt.Errorf("reading daemon CPU: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var all []op
	var gapSum time.Duration
	for i, ops := range perWorker {
		all = append(all, ops...)
		gapSum += gaps[i]
	}
	sort.Slice(all, func(a, b int) bool { return all[a].done < all[b].done })
	for _, o := range all {
		switch {
		case !o.ref:
			win.ops = append(win.ops, o)
		case o.fail != "":
			return nil, fmt.Errorf("a reference request failed (%s); log: %s", o.fail, f.ref.logTail())
		default:
			win.refs = append(win.refs, float64(o.latency)/float64(time.Microsecond))
		}
	}
	if len(win.refs) == 0 {
		return nil, fmt.Errorf("no reference request completed in a window of %v", dur)
	}
	win.gapShare = float64(gapSum) / float64(dur*time.Duration(workers))
	return win, nil
}

// driveList sends the requests in order on one connection — the shape of
// a planner waiting for each answer before asking the next — with
// refKernel run once before the first and twice after each.
func driveList(ctx context.Context, f *fleet, reqs []*request, st *runState, rec *recorder) (*window, error) {
	c := newConn(ctx, f, st)
	defer c.close()
	win := &window{}
	clientCPU0 := selfCPUSeconds()
	cpu0, err := f.cpuSeconds()
	if err != nil {
		return nil, fmt.Errorf("reading daemon CPU: %w", err)
	}
	start := time.Now()
	win.refs = append(win.refs, refKernel())
	for _, r := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o := c.run(r, start, rec, "client conn 0")
		win.workS += o.latency.Seconds()
		win.ops = append(win.ops, o)
		win.refs = append(win.refs, refKernel(), refKernel())
	}
	total := time.Since(start).Seconds()
	cpu1, err := f.cpuSeconds()
	if err != nil {
		return nil, fmt.Errorf("reading daemon CPU: %w", err)
	}
	win.cpuS = cpu1 - cpu0
	win.clientCPUS = selfCPUSeconds() - clientCPU0
	win.gapShare = 1 - win.workS/total
	return win, nil
}

// summary is a window reduced to the end-to-end figures.
type summary struct {
	tally // over every operation of the window
	// RefMean is the mean reference sample (µs or ms) — the mean, because
	// a rate and a time to solution are sums, and slow-downs come in
	// bursts a median would not see — RefSamples how many there were, and
	// Speed the nominal reference time ÷ RefMean: below 1 when the box ran
	// slower than nominal.
	RefMean    float64
	RefSamples int
	Speed      float64
	// TailSpeed is what P99US is scaled by. Under a slow-down a closed
	// loop's latency tail stretches more than its body, and the reference
	// requests' with it, so there it is the nominal ÷ the measured p99 of
	// the reference requests; on a list it is Speed.
	TailSpeed float64
	// Raw is the unreferenced figures, kept in the output document.
	Raw figures
	figures
}

// figures are one window's end-to-end numbers. All but BeyondP99 are
// referenced in summary.figures.
type figures struct {
	ReqPerS     float64 `json:"req_per_s"` // successful requests ÷ the time the workload had
	P50US       float64 `json:"p50_us"`    // of the primary requests
	P90US       float64 `json:"p90_us"`
	P99US       float64 `json:"p99_us"`             // scaled by TailSpeed
	BeyondP99   int     `json:"samples_beyond_p99"` // latency samples beyond P99US
	CPUUSPerReq float64 `json:"server_cpu_us_per_req"`
	// WallS and ServerCPUS are the time to solution and the daemons' CPU
	// over it: for a list, as sent; for a closed loop, whose window has a
	// fixed length, for closedLoopWork requests at the window's rate and
	// CPU per request.
	WallS      float64 `json:"wall_s"`
	ServerCPUS float64 `json:"server_cpu_s"`
}

// closedLoopWork is the number of requests a closed loop's time to
// solution is stated for.
const closedLoopWork = 100_000

func summarize(win *window) summary {
	s := summary{tally: tallyOps(win.ops), RefSamples: len(win.refs)}
	nominal := refKernelNominalMS
	if win.closedLoop {
		nominal = refNominalUS
	}
	s.RefMean = mean(win.refs)
	s.Speed = nominal / s.RefMean
	s.TailSpeed = s.Speed
	if win.closedLoop {
		sorted := slices.Sorted(slices.Values(win.refs))
		p99, _ := percentile(sorted, 99)
		s.TailSpeed = refNominalP99US / p99
	}

	r := &s.Raw
	r.WallS, r.ServerCPUS = win.workS, win.cpuS
	if ok := s.succeeded(); ok > 0 {
		r.ReqPerS, r.CPUUSPerReq = float64(ok)/win.workS, win.cpuS*1e6/float64(ok)
		if win.closedLoop {
			r.WallS, r.ServerCPUS = closedLoopWork/r.ReqPerS, closedLoopWork*r.CPUUSPerReq/1e6
		}
	}
	if len(s.LatenciesUS) > 0 {
		r.P50US, _ = percentile(s.LatenciesUS, 50)
		r.P90US, _ = percentile(s.LatenciesUS, 90)
		r.P99US, r.BeyondP99 = percentile(s.LatenciesUS, 99)
	}

	s.figures = *r
	s.ReqPerS /= s.Speed
	s.P50US *= s.Speed
	s.P90US *= s.Speed
	s.P99US *= s.TailSpeed
	s.CPUUSPerReq *= s.Speed
	s.WallS *= s.Speed
	s.ServerCPUS *= s.Speed
	return s
}
