package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, and how many samples lie beyond it. sorted must be ascending
// and non-empty.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

// median returns the middle value of vs (mean of the two middle values
// for an even count), or NaN for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of vs, or NaN for an empty slice.
func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Failure kinds. Every operation that does not end in a checked, correct
// answer is failed under exactly one of these, and contributes no latency
// sample.
const (
	failTransport = "transport"    // no HTTP response
	failShed      = "shed_503"     // the daemon refused the work
	failServer    = "http_5xx"     // any other 5xx
	failClient    = "http_4xx"     // the daemon rejected a request the generator built
	failWrong     = "wrong_answer" // 200 with a body that fails its check
)

// classify maps one operation's outcome to a failure kind, "" when it
// succeeded. checkErr is the answer check's verdict on a 200 body.
func classify(transportErr error, status int, checkErr error) string {
	switch {
	case transportErr != nil:
		return failTransport
	case status == 503:
		return failShed
	case status >= 500:
		return failServer
	case status >= 400:
		return failClient
	case checkErr != nil:
		return failWrong
	}
	return ""
}

// op is one completed operation as the generator saw it.
type op struct {
	done    time.Duration // completion, since the window opened
	latency time.Duration
	fail    string // failure kind, "" on success
	primary bool   // counts toward the latency percentiles
	ref     bool   // a reference request, not an operation of the workload
}

// tally is the arithmetic over a window's operations.
type tally struct {
	Attempted int
	Failed    int
	FailKinds map[string]int
	// LatenciesUS holds the successful primary operations' latencies,
	// ascending.
	LatenciesUS []float64
}

func tallyOps(ops []op) tally {
	t := tally{FailKinds: map[string]int{}}
	for _, o := range ops {
		t.Attempted++
		if o.fail != "" {
			t.Failed++
			t.FailKinds[o.fail]++
			continue
		}
		if o.primary {
			t.LatenciesUS = append(t.LatenciesUS, float64(o.latency)/float64(time.Microsecond))
		}
	}
	sort.Float64s(t.LatenciesUS)
	return t
}

// failedShare is failed ÷ attempted.
func (t tally) failedShare() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// succeeded is the number of operations that returned a checked answer.
func (t tally) succeeded() int { return t.Attempted - t.Failed }
