package main

import (
	"container/heap"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// This box is a two-vCPU slice of a shared host whose speed changes by
// 10–30 % for minutes at a time, and more for work that crosses the
// kernel than for arithmetic: ten runs of one build spread by a quarter
// of their median however long the window and whichever slice of it is
// read. So every run measures, interleaved with its workload, a
// reference that has the workload's shape and none of the program's
// code, and reports its times as they would read on a box where the
// reference takes its nominal time:
//
//	reported time = measured time × nominal reference ÷ measured reference
//
// Closed-loop workloads send a no-op request to the reference server
// below on the same connections for a quarter of every 200 ms; list
// workloads run refKernel between requests. Over ten runs through which
// the box moved by a third, serve_hit's p50 spread by 30 % of its median
// as measured and by 6 % referenced. README.md has the measurements.

const (
	// refPeriod and refShare cut a closed-loop window into alternating
	// workload and reference phases, the same for every connection.
	refPeriod = 200 * time.Millisecond
	refShare  = 50 * time.Millisecond
	// refNominalUS and refNominalP99US are the reference request's mean
	// and 99th-percentile latency, and refKernelNominalMS refKernel's mean
	// time, in this box's quiet regime. They fix the unit of every
	// reported time.
	refNominalUS       = 75.0
	refNominalP99US    = 300.0
	refKernelNominalMS = 20.0
)

// inRefPhase reports whether the instant d after the window opened
// (negative during warm-up) belongs to a reference phase.
func inRefPhase(d time.Duration) bool {
	d %= refPeriod
	if d < 0 {
		d += refPeriod
	}
	return d >= refPeriod-refShare
}

// workTime is how much of a closed-loop window of length dur lies outside
// its reference phases.
func workTime(dur time.Duration) time.Duration {
	return dur/refPeriod*(refPeriod-refShare) + min(dur%refPeriod, refPeriod-refShare)
}

// refBody is what the reference server answers: the size of a plan.
const refBody = `{"machine":"reference","topology":"hypercube-7","d":7,"m":40,"partition":[4,3],"predicted_us":16097.32,"phases":2,"note":"no program code runs for this answer"}` + "\n"

// runRefServer serves refBody on addr until ctx is cancelled: net/http
// and the kernel's loopback, as in pland, with nothing behind them.
func runRefServer(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(refBody))
	})}
	context.AfterFunc(ctx, func() { srv.Close() })
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// startRefServer runs this binary as the reference server on a free
// loopback port and waits until it answers.
func startRefServer(ctx context.Context, hc *http.Client) (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ports, err := reservePorts(1)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(self, ports[0], 0, filepath.Join(buildDir, "refserver.log"), "-refserver")
	if err != nil {
		return nil, err
	}
	if err := d.waitReady(ctx, hc); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// refReplica is the replica index requests to the reference server carry.
const refReplica = -1

var refRequest = &request{name: "reference", replica: refReplica, path: "/"}

// refEvent is one pending event of refKernel's queue.
type refEvent struct {
	at   float64
	node int
}

type refQueue []refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refSim is a small discrete-event loop: a binary heap of a few
// thousand pending events over 2 MB of scattered node state.
type refSim struct {
	rng   *rand.Rand
	q     refQueue
	state []float64
}

func newRefSim() *refSim {
	s := &refSim{rng: rand.New(rand.NewSource(7)), q: make(refQueue, 0, 4096), state: make([]float64, 1<<18)}
	for i := 0; i < cap(s.q); i++ {
		heap.Push(&s.q, refEvent{s.rng.Float64(), i})
	}
	return s
}

// run processes n events, each scheduling its successor.
func (s *refSim) run(n int) {
	for i := 0; i < n; i++ {
		e := heap.Pop(&s.q).(refEvent)
		k := (e.node*2654435761 + i) & (len(s.state) - 1)
		s.state[k] += e.at
		heap.Push(&s.q, refEvent{e.at + s.rng.Float64(), k})
	}
}

var kernelSim = newRefSim()

// refKernel is the list workloads' reference: 60 000 events of a refSim,
// which slow with the host's memory system the way the simulator and the
// optimizer's memo do. (An arithmetic loop does not: it read the same to
// 3 % while /v1/cost times moved by 20 %.) It returns the time they took,
// in milliseconds.
func refKernel() float64 {
	begin := time.Now()
	kernelSim.run(60_000)
	return float64(time.Since(begin)) / float64(time.Millisecond)
}
