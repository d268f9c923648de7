// Package event provides a deterministic discrete-event simulation engine:
// a virtual clock in microseconds and a queue of timestamped callbacks.
// The circuit-switched network simulator (package simnet) and its clients
// are built on it.
//
// The ordering contract is the whole interface: events fire in order of
// (time, scheduling order). An event scheduled for an earlier time fires
// first; among events scheduled for the same time, the one scheduled
// first fires first — including events a handler schedules for the
// current instant, which fire after everything already queued for it.
// Repeated runs of the same program therefore produce identical traces.
//
// How the queue meets the contract is an implementation detail. The
// simulated machines are synchronous — inside a phase every node finishes
// a step at the same instant — so almost every pending event ties with
// its neighbours, and a binary heap of single events pays a full-depth
// sift for each of them. The queue instead orders runs: a run is a
// maximal sequence of consecutively scheduled events with one timestamp,
// keyed by (time, sequence number of its first event) and drained first
// in, first out. Scheduling at the time of the run that received the
// previous event is an append; only a change of timestamp touches the
// heap. This is exact: two runs with the same time hold disjoint,
// ordered ranges of sequence numbers, so ordering runs by their first
// event orders every event.
package event

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Time is virtual simulation time in microseconds.
type Time float64

// Inf is an effectively infinite simulation time.
const Inf = Time(math.MaxFloat64)

// noLimit, as step's limit, lets every queued event fire.
var noLimit = Time(math.Inf(1))

// Handler is a callback fired when an event matures.
type Handler func(now Time)

// ArgHandler is a callback fired with the integer argument it was
// scheduled with. Passing one long-lived ArgHandler to many PostArg calls
// avoids the per-event closure allocation a plain Handler would need to
// capture its argument.
type ArgHandler func(now Time, arg int)

// Event identifies a callback scheduled by At or After, so the caller can
// cancel it.
type Event struct {
	time      Time
	seq       uint64
	cancelled bool
}

// Time returns the maturity time of the event.
func (e *Event) Time() Time { return e.time }

// item is one queued callback: exactly one of h and argh is set.
type item struct {
	h    Handler
	argh ArgHandler
	arg  int
}

// run is a maximal sequence of consecutively scheduled events sharing one
// timestamp. The first event is stored inline, so a run of one costs no
// more than a plain heap entry; the n after it fill a chain of chunks
// drawn from, and returned as they drain to, the engine's shared pool —
// so the queue's storage follows the number of events pending, whichever
// runs they fall into.
type run struct {
	first      item
	n          int32
	head, tail int32 // first and last chunk of the chain, valid when n > 0
}

// chunkLen is the number of events per chunk: small enough that the
// two-event runs of a contended machine waste little, large enough that
// the thousand-event runs of a synchronous one rarely change chunk.
const chunkLen = 16

type chunk struct {
	items [chunkLen]item
	next  int32 // the run's, or the free list's, following chunk; -1 at the end
}

// runKey is a run's heap entry: its events fire at time, the first of
// them was the seq-th event scheduled, and they live in runs[slot].
type runKey struct {
	time Time
	seq  uint64
	slot int32
}

func (a runKey) before(b runKey) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// Engine is a discrete-event scheduler.
type Engine struct {
	now     Time
	seq     uint64 // sequence number of the next event scheduled
	nsteps  uint64
	pending int // scheduled events neither fired nor cancelled

	heap      []runKey // 4-ary min-heap of the runs not yet draining
	runs      []run    // run storage, indexed by slot
	free      []int32  // retired slots
	chunks    []chunk  // chunk storage
	freeChunk int32    // head of the free chunk list, -1 when empty

	// The open run received the most recent event; scheduling at openTime
	// appends to it. openTime is NaN — equal to no time — when no run is
	// open.
	open     int32
	openTime Time

	// The draining run has left the heap; its remaining events all fire
	// at curKey.time, the next of them being number curKey.seq and the
	// curPos-th of the run (0 is first). curChunk is the chunk the
	// previous one came from. curKey.slot < 0 when no run is draining.
	curKey   runKey
	curPos   int
	curChunk int32

	// Cancelled events stay queued as tombstones, recognised by sequence
	// number when their turn comes. firedSeq is one past the sequence
	// number of the last event fired: events fire in (time, seq) order and
	// nothing is scheduled before now, so an uncancelled event has fired
	// exactly when (time, seq) is below (now, firedSeq).
	cancelled map[uint64]struct{}
	firedSeq  uint64

	stopped atomic.Bool // Stop was called since the last Reset
}

// New returns an engine with the clock at zero.
func New() *Engine {
	g := &Engine{}
	g.Reset()
	return g
}

// Reset returns the engine to the state New leaves it in — clock at zero,
// nothing queued — keeping its storage, so a simulator that runs many
// programs reuses one engine instead of growing a new queue each time.
func (g *Engine) Reset() {
	clear(g.runs) // drop the handlers the storage would otherwise pin
	clear(g.chunks)
	*g = Engine{
		heap: g.heap[:0], runs: g.runs[:0], free: g.free[:0],
		chunks: g.chunks[:0], freeChunk: -1,
		open: -1, openTime: Time(math.NaN()),
		curKey: runKey{slot: -1},
	}
}

// Now returns the current virtual time.
func (g *Engine) Now() Time { return g.now }

// Steps returns the number of events executed so far.
func (g *Engine) Steps() uint64 { return g.nsteps }

// Pending returns the number of queued events.
func (g *Engine) Pending() int { return g.pending }

// At schedules h to fire at absolute time t. Scheduling in the past
// (t < Now) or at a NaN time panics: it indicates a logic error in the
// caller.
func (g *Engine) At(t Time, h Handler) *Event {
	if h == nil {
		panic("event: nil handler")
	}
	e := &Event{time: t, seq: g.seq}
	g.schedule(t, item{h: h})
	return e
}

// Post schedules h to fire at absolute time t, like At, but returns no
// handle, so the event cannot be cancelled and scheduling it allocates
// nothing once the queue's storage is warm. Simulation hot loops use
// Post/PostArg.
func (g *Engine) Post(t Time, h Handler) {
	if h == nil {
		panic("event: nil handler")
	}
	g.schedule(t, item{h: h})
}

// PostArg schedules h(now, arg) to fire at absolute time t, like Post.
// The handler is stored as passed, so reusing one bound ArgHandler across
// calls makes scheduling allocation-free.
func (g *Engine) PostArg(t Time, h ArgHandler, arg int) {
	if h == nil {
		panic("event: nil handler")
	}
	g.schedule(t, item{argh: h, arg: arg})
}

// After schedules h to fire dt microseconds from now (dt ≥ 0).
func (g *Engine) After(dt Time, h Handler) *Event {
	if dt < 0 {
		panic(fmt.Sprintf("event: negative delay %v", dt))
	}
	return g.At(g.now+dt, h)
}

// schedule queues it as the next event in scheduling order: onto the open
// run when the time matches, else as a new run.
func (g *Engine) schedule(t Time, it item) {
	if !(t >= g.now) { // also catches NaN, which compares false with everything
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, g.now))
	}
	seq := g.seq
	g.seq++
	g.pending++
	if t == g.openTime {
		r := &g.runs[g.open]
		off := r.n % chunkLen
		if off == 0 {
			c := g.newChunk()
			if r.n == 0 {
				r.head = c
			} else {
				g.chunks[r.tail].next = c
			}
			r.tail = c
		}
		g.chunks[r.tail].items[off] = it
		r.n++
		return
	}
	var slot int32
	if n := len(g.free); n > 0 {
		slot, g.free = g.free[n-1], g.free[:n-1]
	} else {
		slot = int32(len(g.runs))
		g.runs = append(g.runs, run{})
	}
	g.runs[slot] = run{first: it}
	g.open, g.openTime = slot, t
	g.heap = append(g.heap, runKey{})
	g.siftUp(len(g.heap)-1, runKey{time: t, seq: seq, slot: slot})
}

// siftUp places k at or above heap index i, which must be a hole.
func (g *Engine) siftUp(i int, k runKey) {
	h := g.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

// popRun removes the earliest run from the heap and starts draining it.
func (g *Engine) popRun() {
	h := g.heap
	g.curKey, g.curPos = h[0], 0
	n := len(h) - 1
	k := h[n]
	g.heap = h[:n]
	if n == 0 {
		return
	}
	// Sift the former last entry down from the root hole.
	i := 0
	for {
		child := 4*i + 1
		if child >= n {
			break
		}
		best := child
		for c := child + 1; c < min(child+4, n); c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(k) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = k
}

// newChunk takes a chunk from the pool, growing it when empty.
func (g *Engine) newChunk() int32 {
	c := g.freeChunk
	if c >= 0 {
		g.freeChunk = g.chunks[c].next
	} else {
		c = int32(len(g.chunks))
		g.chunks = append(g.chunks, chunk{})
	}
	g.chunks[c].next = -1
	return c
}

// recycle returns a drained chunk to the pool, dropping the handlers it
// would otherwise pin.
func (g *Engine) recycle(c int32) {
	g.chunks[c] = chunk{next: g.freeChunk}
	g.freeChunk = c
}

// retire recycles the drained run's slot and its last chunk.
func (g *Engine) retire() {
	slot := g.curKey.slot
	if g.runs[slot].n > 0 {
		g.recycle(g.curChunk)
	}
	g.runs[slot].first = item{}
	g.free = append(g.free, slot)
	if g.open == slot {
		g.open, g.openTime = -1, Time(math.NaN())
	}
	g.curKey.slot = -1
}

// step fires the earliest event if it matures at or before limit.
func (g *Engine) step(limit Time) bool {
	for {
		if g.curKey.slot >= 0 && g.curPos > int(g.runs[g.curKey.slot].n) {
			g.retire()
		}
		if g.curKey.slot < 0 {
			if len(g.heap) == 0 || g.heap[0].time > limit {
				return false
			}
			g.popRun()
		} else if g.curKey.time > limit {
			return false
		}
		r := &g.runs[g.curKey.slot]
		it := r.first
		if g.curPos > 0 {
			off := (g.curPos - 1) % chunkLen
			if off == 0 {
				// Entering the run's first chunk, or leaving a drained one.
				if g.curPos == 1 {
					g.curChunk = r.head
				} else {
					next := g.chunks[g.curChunk].next
					g.recycle(g.curChunk)
					g.curChunk = next
				}
			}
			it = g.chunks[g.curChunk].items[off]
		}
		seq := g.curKey.seq
		g.curPos++
		g.curKey.seq++
		if len(g.cancelled) != 0 {
			if _, dead := g.cancelled[seq]; dead {
				delete(g.cancelled, seq)
				continue
			}
		}
		g.now, g.firedSeq = g.curKey.time, seq+1
		g.nsteps++
		g.pending--
		if it.argh != nil {
			it.argh(g.now, it.arg)
		} else {
			it.h(g.now)
		}
		return true
	}
}

// Cancel removes a scheduled event; cancelling an already-fired or
// already-cancelled event is a no-op. Reports whether the event was
// actually removed.
func (g *Engine) Cancel(e *Event) bool {
	if e == nil || e.cancelled || e.time < g.now || (e.time == g.now && e.seq < g.firedSeq) {
		return false
	}
	if g.cancelled == nil {
		g.cancelled = make(map[uint64]struct{})
	}
	e.cancelled = true
	g.cancelled[e.seq] = struct{}{}
	g.pending--
	return true
}

// Stop ends the Run, RunUntil or RunLimit in progress once the handler it
// is in returns, and makes every later one return at once, until Reset:
// the clock stays where it is and what is queued stays queued. A
// simulation that has learned all it needed stops instead of draining.
// Stop alone of the engine's methods may be called from another
// goroutine, so one of several engines run side by side can stop the rest.
func (g *Engine) Stop() { g.stopped.Store(true) }

// Step executes the single earliest event. It reports false when the
// queue is empty.
func (g *Engine) Step() bool { return g.step(noLimit) }

// Run executes events until the queue is empty and returns the final time.
func (g *Engine) Run() Time {
	for !g.stopped.Load() && g.step(noLimit) {
	}
	return g.now
}

// RunUntil executes events with time ≤ deadline; events beyond the
// deadline remain queued. Afterwards Now() is the deadline if any events
// remained and the clock had not passed it, else the time of the last
// event executed.
func (g *Engine) RunUntil(deadline Time) Time {
	for !g.stopped.Load() && g.step(deadline) {
	}
	if g.stopped.Load() {
		return g.now
	}
	if g.pending > 0 && g.now < deadline {
		g.now = deadline
	}
	return g.now
}

// RunLimit executes at most n events; useful as a watchdog against
// runaway simulations. It reports whether the queue drained.
func (g *Engine) RunLimit(n uint64) bool {
	for i := uint64(0); i < n && !g.stopped.Load(); i++ {
		if !g.step(noLimit) {
			return true
		}
	}
	return g.pending == 0
}
