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
// its neighbours. The queue therefore orders runs: a run is a maximal
// sequence of consecutively scheduled events with one timestamp, drained
// first in, first out. Scheduling at the time of the run that received
// the previous event is an append; only a change of timestamp queues a
// new run. Two runs with the same time hold disjoint, ordered ranges of
// the scheduling order, so firing runs by (time, queueing order) fires
// every event in contract order.
//
// The runs wait in a monotone radix queue keyed on the bit pattern of
// their time, which for the non-negative times the engine accepts is the
// numeric order. Bucket b holds the runs whose key first differs from the
// last popped key (the base) in bit b−1; bucket 0 holds the base's own
// runs. A push is one XOR and a bit count, appended to its bucket. A pop
// takes bucket 0's next run, or, when bucket 0 is empty, makes the least
// key of the lowest occupied bucket the base and moves that bucket's runs,
// in order, to the buckets below it; a key moves at most 64 times in all.
// Runs of one time always share a bucket, so their queueing order, which
// every push and move keeps, is the order they leave bucket 0 in: no
// sequence number is kept, and no float is compared. This is exact
// only because the queue is monotone: nothing is scheduled before the
// clock, which is the base, and nothing queued is ever withdrawn, so
// every key is at least the base whenever it is pushed or popped.
package event

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Time is virtual simulation time in microseconds.
type Time float64

// ArgHandler is a callback fired with the integer argument it was
// scheduled with. Passing one long-lived ArgHandler to many PostArg calls
// makes scheduling allocation-free: there is no closure per event.
type ArgHandler func(now Time, arg int)

// item is one queued callback.
type item struct {
	h   ArgHandler
	arg int
}

// run is a maximal sequence of consecutively scheduled events sharing one
// timestamp. The first event is stored inline, so a run of one costs no
// more than a plain queue entry; the n after it fill a chain of chunks
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

// runKey is a run's queue entry: its events fire at the time whose
// normalised bit pattern is key, and they live in runs[slot].
type runKey struct {
	key  uint64
	slot int32
}

// keyOf is t's bit pattern with −0 taken as +0, so that for t ≥ 0 the
// order of keys is the numeric order of times, +Inf last.
func keyOf(t Time) uint64 {
	k := math.Float64bits(float64(t))
	if k == 1<<63 {
		k = 0
	}
	return k
}

// Engine is a discrete-event scheduler.
type Engine struct {
	now    Time
	nsteps uint64

	// The radix queue of the runs not yet draining: base is the key of
	// the run popped last, buckets[b] the runs whose key first differs
	// from it in bit b−1, each in queueing order, and bit b−1 of mask is
	// set when buckets[b] is non-empty. buckets[0], the runs at base, pops
	// from head.
	base    uint64
	buckets [65][]runKey
	mask    uint64
	head    int

	runs      []run   // run storage, indexed by slot
	free      []int32 // retired slots
	chunks    []chunk // chunk storage
	freeChunk int32   // head of the free chunk list, -1 when empty

	// The open run received the most recent event; scheduling at openTime
	// appends to it. openTime is NaN — equal to no time — when no run is
	// open.
	open     int32
	openTime Time

	// The draining run has left the queue; its remaining events all fire
	// at now, the next of them being the curPos-th of the run (0 is
	// first). curChunk is the chunk the previous one came from. cur < 0
	// when no run is draining.
	cur      int32
	curPos   int
	curChunk int32

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
	buckets := g.buckets
	for b := range buckets {
		buckets[b] = buckets[b][:0]
	}
	*g = Engine{
		buckets: buckets,
		runs:    g.runs[:0], free: g.free[:0],
		chunks: g.chunks[:0], freeChunk: -1,
		open: -1, openTime: Time(math.NaN()),
		cur: -1,
	}
}

// Now returns the current virtual time.
func (g *Engine) Now() Time { return g.now }

// Steps returns the number of events executed so far.
func (g *Engine) Steps() uint64 { return g.nsteps }

// PostArg schedules h(now, arg) to fire at absolute time t. Scheduling in
// the past (t < Now), at a NaN time or with a nil handler panics: it
// indicates a logic error in the caller.
func (g *Engine) PostArg(t Time, h ArgHandler, arg int) {
	if h == nil {
		panic("event: nil handler")
	}
	if !(t >= g.now) { // also catches NaN, which compares false with everything
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, g.now))
	}
	it := item{h: h, arg: arg}
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
	k := keyOf(t)
	b := bits.Len64(k ^ g.base)
	g.buckets[b] = append(g.buckets[b], runKey{key: k, slot: slot})
	if b > 0 {
		g.mask |= 1 << (b - 1)
	}
}

// popRun takes the earliest queued run and starts draining it at its
// time. It reports false when no run is queued.
func (g *Engine) popRun() bool {
	if len(g.buckets[0]) == 0 {
		if g.mask == 0 {
			return false
		}
		g.redistribute(bits.TrailingZeros64(g.mask) + 1)
	}
	b0 := g.buckets[0]
	g.cur, g.curPos = b0[g.head].slot, 0
	if g.head++; g.head == len(b0) {
		g.buckets[0], g.head = b0[:0], 0
	}
	g.now = Time(math.Float64frombits(g.base))
	return true
}

// redistribute makes the least key of bucket b the base and moves every
// run of the bucket, in order, to the bucket its key now falls in, which
// is below b. The buckets above b keep their runs: their keys differ from
// the new base first in the same bit as from the old one.
func (g *Engine) redistribute(b int) {
	rs := g.buckets[b]
	base := rs[0].key
	for _, k := range rs[1:] {
		base = min(base, k.key)
	}
	g.base = base
	g.mask &^= 1 << (b - 1)
	for _, k := range rs {
		to := bits.Len64(k.key ^ base)
		if to > 0 {
			g.mask |= 1 << (to - 1)
		}
		g.buckets[to] = append(g.buckets[to], k)
	}
	g.buckets[b] = rs[:0]
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
	slot := g.cur
	if g.runs[slot].n > 0 {
		g.recycle(g.curChunk)
	}
	g.runs[slot].first = item{}
	g.free = append(g.free, slot)
	if g.open == slot {
		g.open, g.openTime = -1, Time(math.NaN())
	}
	g.cur = -1
}

// step fires the earliest event. It reports false when nothing is queued.
func (g *Engine) step() bool {
	if g.cur >= 0 && g.curPos > int(g.runs[g.cur].n) {
		g.retire()
	}
	if g.cur < 0 && !g.popRun() {
		return false
	}
	r := &g.runs[g.cur]
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
	g.curPos++
	g.nsteps++
	it.h(g.now, it.arg)
	return true
}

// empty reports whether no event is queued.
func (g *Engine) empty() bool {
	return (g.cur < 0 || g.curPos > int(g.runs[g.cur].n)) && len(g.buckets[0]) == 0 && g.mask == 0
}

// Stop ends the Run or RunLimit in progress once the handler it is in
// returns, and makes every later one return at once, until Reset: the
// clock stays where it is and what is queued stays queued. A simulation
// that has learned all it needed stops instead of draining. Stop alone of
// the engine's methods may be called from another goroutine, so one of
// several engines run side by side can stop the rest.
func (g *Engine) Stop() { g.stopped.Store(true) }

// Run executes events until the queue is empty and returns the final time.
func (g *Engine) Run() Time {
	for !g.stopped.Load() && g.step() {
	}
	return g.now
}

// RunLimit executes at most n events; useful as a watchdog against
// runaway simulations. It reports whether the queue drained.
func (g *Engine) RunLimit(n uint64) bool {
	for i := uint64(0); i < n && !g.stopped.Load(); i++ {
		if !g.step() {
			return true
		}
	}
	return g.empty()
}
