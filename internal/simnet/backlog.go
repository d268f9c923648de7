package simnet

import (
	"math"
	"runtime"
)

// The link-backlog accounting computes Result.MaxEdgeQueue and nothing
// else: no time a replay decides depends on it. The replay loop therefore
// keeps only each link's busy time (which reserve needs) and appends every
// contended hop to a log; the accounting is the log's one consumer and
// reads its records in the order they were made, so MaxEdgeQueue is what
// the loop itself would have counted. Where the consumer runs is all that
// varies: a window's first helperAfter contended hops are counted inline,
// and on a process with more than one core a helper goroutine counts the
// rest. The log is flushed, and any helper joined, at the end of every
// engine run (drain), so no goroutine outlives the window that started it.

// holdQueue is the cold part of one directed link's state: the finish
// times, ascending, of older holds that were still outstanding when newer
// ones were placed behind them. Entries that have finished since may
// linger (see push). It is a circular buffer, inline until more than
// edgeRing circuits are outstanding on the link at once and a doubled
// heap buffer after that.
type holdQueue struct {
	head, n uint32
	ring    [edgeRing]float64
	spill   []float64 // replaces ring once non-nil; len is a power of two
}

const edgeRing = 4 // a power of two

// push appends finish, the newest hold still outstanding when a new one
// is placed at time now, and returns the queue's length. The new hold's
// depth is at most the length before the push + 2 (the stored holds,
// finish and the new hold). push drops the holds finished by now only when
// that bound exceeds seen, the deepest depth counted so far, or when the
// buffer is full; the returned length + 1 is then the exact depth.
// Otherwise finished entries linger and the length + 1 is at most seen,
// so it cannot raise it. Virtual time never moves back, so an entry
// finished by now stays finished and falls out at a later prune.
func (q *holdQueue) push(now, finish float64, seen int32) int32 {
	buf := q.ring[:]
	if q.spill != nil {
		buf = q.spill
	}
	mask := uint32(len(buf) - 1)
	if int32(q.n)+2 > seen || q.n == uint32(len(buf)) {
		for q.n > 0 && buf[q.head&mask] <= now {
			q.head++
			q.n--
		}
	}
	if q.n == uint32(len(buf)) {
		grown := make([]float64, 2*len(buf))
		for i := uint32(0); i < q.n; i++ {
			grown[i] = buf[(q.head+i)&mask]
		}
		q.spill, q.head = grown, 0
		buf, mask = grown, uint32(len(grown)-1)
	}
	buf[(q.head+q.n)&mask] = finish
	q.n++
	return int32(q.n)
}

// hold reserves every link in slots until finish, for a circuit placed
// at time now, and logs each hop that lands behind an unfinished hold.
//
// Holds on a link never overlap (each reservation starts at or after the
// previous finish), so a link's outstanding holds are an ascending queue
// of finish times whose newest member is busy[slot] itself. That is the
// hot/cold invariant: busy alone answers "when is the link free", and
// prev = busy[slot] ≤ now proves every earlier hold has finished — the
// new hold is alone on the link — without reading anything else. Only a
// hold placed behind an unfinished one (prev > now) is a record for the
// backlog accounting, which keeps the older holds (prev joins them)
// instead of scheduling a release event per link per hold.
func (st *runState) hold(slots []int, now, finish float64) {
	if !st.held && len(slots) > 0 {
		st.held = true
	}
	for _, slot := range slots {
		prev := st.busy[slot]
		st.busy[slot] = finish
		if prev > now {
			st.log.add(now, slot, prev)
		}
	}
}

// edgeQueue is Result.MaxEdgeQueue once the log is flushed: 0 before any
// circuit held a link, 1 while none waited behind another.
func (st *runState) edgeQueue() int {
	if !st.held {
		return 0
	}
	return int(st.log.acct.max)
}

// backlog is the link-backlog accounting of one replay state.
type backlog struct {
	of     []int32     // per directed link: 1 + index into queues, 0 until the link is first contended
	queues []holdQueue // the older holds still outstanding, per contended link
	// max is the deepest holding-or-waiting count seen on any link: 1,
	// a hold alone on its link, until a record says otherwise. The
	// backlog is pruned lazily: a link's depth is at most its queue's
	// length + 2 (the stored holds, prev and the new one), so while that
	// cannot exceed max no finished hold needs dropping to keep max exact.
	max     int32
	now     float64 // the placement time of the hops being applied
	applied int     // hops applied since the state was reset: a dropped hop shows here
}

// reset empties the accounting for a machine of links directed links.
func (b *backlog) reset(links int) {
	b.of = resized(b.of, links)
	b.queues, b.max, b.now, b.applied = b.queues[:0], 1, 0, 0
}

// drop forgets every outstanding hold. A window opens at a barrier
// release, by which every earlier hold has finished, so none can be
// counted again.
func (b *backlog) drop() {
	if len(b.queues) > 0 {
		b.queues = b.queues[:0]
		clear(b.of)
	}
}

// record counts one contended hop.
func (b *backlog) record(now, prev float64, slot int32) {
	bi := b.of[slot]
	if bi == 0 {
		if k := len(b.queues); k < cap(b.queues) {
			// Reuse a queue an earlier replay or window dropped, with
			// the spill storage it grew.
			b.queues = b.queues[:k+1]
			b.queues[k].head, b.queues[k].n = 0, 0
		} else {
			b.queues = append(b.queues, holdQueue{})
		}
		bi = int32(len(b.queues))
		b.of[slot] = bi
	}
	if depth := b.queues[bi-1].push(now, prev, b.max) + 1; depth > b.max {
		b.max = depth
	}
	b.applied++
}

// apply counts the hops of chunk c, in order.
func (b *backlog) apply(c *holdChunk) {
	now := b.now
	for i, slot := range c.slot[:c.n] {
		if slot < 0 {
			now = c.at[i]
			continue
		}
		b.record(now, c.at[i], slot)
	}
	b.now = now
}

// holdChunk is one chunk of a hold log. Entry i is a contended hop on
// link slot[i] behind a hold that frees it at at[i], placed at the time
// the latest entry with slot −1 set in its at. On a contended cyclic
// phase virtual time moves once per ten or so contended hops, so a hop
// costs about 13 bytes, not 24.
type holdChunk struct {
	n    int
	at   [logChunk]float64
	slot [logChunk]int32
}

const (
	logChunk  = 4096 // entries per chunk handed to a helper: 48 KiB
	logChunks = 4    // chunks one log may fill before its helper catches up
)

// helperAfter is how many of a window's contended hops are counted inline
// before a helper takes the rest over: starting a goroutine and handing
// it chunks costs more than counting a smaller window. Tests set it to 1,
// a helper from a window's first contended hop, or to 0, never.
var helperAfter = 256

// holdLog carries contended hops from the replay loop to the backlog
// accounting. Without a helper, each hop is counted as it is logged:
// writing hops out only to read them back on the same core costs more
// than counting them. Once a helper runs, the loop fills chunks and
// hands each full one over; the helper returns it once applied.
type holdLog struct {
	// The replay goroutine's side.
	cur     *holdChunk
	now     float64 // the placement time cur's entries last set
	inline  int     // contended hops this window counted inline
	helping bool    // a helper is applying this window's chunks
	chunks  int     // chunks allocated, cur included
	full    chan *holdChunk
	empty   chan *holdChunk
	done    chan struct{}
	consume func() // the helper's loop, bound once so starting it allocates nothing

	// The consumer's side, a cache line away from either neighbour: the
	// two sides run on different cores while a helper applies.
	_        [64]byte
	acct     backlog
	panicked any // what a helper's apply panicked with, for flush to raise
	_        [64]byte
}

// init sets up a log's hand-off channels, once per pooled state. Its
// chunks are allocated when a helper first needs them.
func (l *holdLog) init() {
	l.full = make(chan *holdChunk, logChunks+1) // the chunks and the stop marker
	l.empty = make(chan *holdChunk, logChunks)  // every chunk: returning one never blocks the helper
	l.done = make(chan struct{})
	l.consume = func() {
		for c := range l.full {
			if c == nil {
				l.done <- struct{}{}
				return
			}
			if l.panicked == nil {
				l.apply(c)
			}
			c.n = 0
			l.empty <- c
		}
	}
}

// apply counts chunk c on the helper. A panic is kept for flush to raise
// on the replay goroutine, where the caller's recovery sees it; the
// helper goes on returning chunks, so the loop never waits for one.
func (l *holdLog) apply(c *holdChunk) {
	defer func() {
		if p := recover(); p != nil {
			l.panicked = p
		}
	}()
	l.acct.apply(c)
}

// add logs one contended hop. The window's helperAfter-th hop counted
// inline starts a helper for the rest of the window if the process has a
// core for it; a helper's first chunk opens with the placement time, and
// every later change of it is an entry of its own.
func (l *holdLog) add(now float64, slot int, prev float64) {
	if !l.helping {
		l.acct.record(now, prev, int32(slot))
		if l.inline++; l.inline == helperAfter && runtime.GOMAXPROCS(0) > 1 {
			if l.cur == nil {
				l.cur, l.chunks = new(holdChunk), 1
			}
			l.helping, l.now = true, math.NaN()
			go l.consume()
		}
		return
	}
	if now != l.now {
		l.now = now
		l.put(now, -1)
	}
	l.put(prev, int32(slot))
}

func (l *holdLog) put(at float64, slot int32) {
	c := l.cur
	c.at[c.n], c.slot[c.n] = at, slot
	if c.n++; c.n == logChunk {
		l.ship()
	}
}

// ship hands the full chunk cur to the helper and takes an empty one.
func (l *holdLog) ship() {
	l.full <- l.cur
	select {
	case l.cur = <-l.empty:
	default:
		if l.chunks < logChunks {
			l.chunks++
			l.cur = new(holdChunk)
		} else {
			l.cur = <-l.empty
		}
	}
}

// flush ends the window's log: it hands over what the helper, if one
// runs, has not applied yet and joins it. Afterwards the accounting
// belongs to the replay goroutine again, and counts every hop logged; a
// panic of the helper's is raised here.
func (l *holdLog) flush() {
	l.inline = 0
	if !l.helping {
		return
	}
	l.full <- l.cur
	l.full <- nil
	<-l.done
	l.helping = false
	l.cur = <-l.empty
	if p := l.panicked; p != nil {
		l.panicked = nil
		panic(p)
	}
}
