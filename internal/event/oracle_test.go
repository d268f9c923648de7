package event

import (
	"container/heap"
	"fmt"
)

// oracleEngine is the engine this package shipped before the queue
// coalesced ties: container/heap over one *oracleEvent per scheduled
// callback, ordered by (time, seq), Cancel by heap.Remove. It is kept,
// test-only, as the reference the differential and fuzz tests compare the
// run queue against — simple enough that its firing order is the
// definition of the ordering contract.
type oracleEngine struct {
	now    Time
	seq    uint64
	queue  oracleHeap
	nsteps uint64
}

type oracleEvent struct {
	time    Time
	seq     uint64
	index   int // heap index, -1 when not queued
	handler Handler
	argh    ArgHandler
	arg     int
}

func (g *oracleEngine) push(t Time, e *oracleEvent) *oracleEvent {
	if !(t >= g.now) {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, g.now))
	}
	e.time, e.seq = t, g.seq
	g.seq++
	heap.Push(&g.queue, e)
	return e
}

func (g *oracleEngine) At(t Time, h Handler) *oracleEvent {
	return g.push(t, &oracleEvent{handler: h})
}

func (g *oracleEngine) PostArg(t Time, h ArgHandler, arg int) {
	g.push(t, &oracleEvent{argh: h, arg: arg})
}

func (g *oracleEngine) Cancel(e *oracleEvent) bool {
	if e == nil || e.index < 0 {
		return false
	}
	heap.Remove(&g.queue, e.index)
	e.index = -1
	return true
}

func (g *oracleEngine) Step() bool {
	if len(g.queue) == 0 {
		return false
	}
	e := heap.Pop(&g.queue).(*oracleEvent)
	g.now = e.time
	g.nsteps++
	if e.argh != nil {
		e.argh(g.now, e.arg)
	} else {
		e.handler(g.now)
	}
	return true
}

func (g *oracleEngine) RunUntil(deadline Time) Time {
	for len(g.queue) > 0 && g.queue[0].time <= deadline {
		g.Step()
	}
	if len(g.queue) > 0 && g.now < deadline {
		g.now = deadline
	}
	return g.now
}

func (g *oracleEngine) RunLimit(n uint64) bool {
	for i := uint64(0); i < n; i++ {
		if !g.Step() {
			return true
		}
	}
	return len(g.queue) == 0
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oracleHeap) Push(x any) {
	e := x.(*oracleEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
