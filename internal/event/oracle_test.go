package event

import (
	"container/heap"
	"fmt"
)

// oracleEngine is the simplest engine that meets the ordering contract:
// container/heap over one *oracleEvent per scheduled callback, ordered by
// (time, seq). It is kept, test-only, as the reference the differential
// and fuzz tests compare the run queue against — simple enough that its
// firing order is the definition of the contract.
type oracleEngine struct {
	now     Time
	seq     uint64
	queue   oracleHeap
	nsteps  uint64
	stopped bool
}

type oracleEvent struct {
	time Time
	seq  uint64
	h    ArgHandler
	arg  int
}

func (g *oracleEngine) PostArg(t Time, h ArgHandler, arg int) {
	if !(t >= g.now) {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, g.now))
	}
	heap.Push(&g.queue, &oracleEvent{time: t, seq: g.seq, h: h, arg: arg})
	g.seq++
}

func (g *oracleEngine) step() bool {
	if len(g.queue) == 0 {
		return false
	}
	e := heap.Pop(&g.queue).(*oracleEvent)
	g.now = e.time
	g.nsteps++
	e.h(g.now, e.arg)
	return true
}

func (g *oracleEngine) Run() Time {
	for !g.stopped && g.step() {
	}
	return g.now
}

func (g *oracleEngine) RunLimit(n uint64) bool {
	for i := uint64(0); i < n && !g.stopped; i++ {
		if !g.step() {
			return true
		}
	}
	return len(g.queue) == 0
}

func (g *oracleEngine) Stop() { g.stopped = true }

func (g *oracleEngine) Reset() { *g = oracleEngine{} }

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(*oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
