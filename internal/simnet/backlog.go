package simnet

// The link-backlog count computes Result.MaxEdgeQueue and nothing else:
// no time a replay decides depends on it. The replay loop therefore keeps
// only each link's busy time, which reserve needs, and counts a hop placed
// behind an unfinished hold only on a Network that counts backlogs
// (SetEdgeQueue); with the count off, hold pays one branch per contended
// hop and MaxEdgeQueue stays 0.

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
// at time now, and counts each hop that lands behind an unfinished hold
// when the network counts link backlogs.
//
// Holds on a link never overlap (each reservation starts at or after the
// previous finish), so a link's outstanding holds are an ascending queue
// of finish times whose newest member is busy[slot] itself. That is the
// hot/cold invariant: busy alone answers "when is the link free", and
// prev = busy[slot] ≤ now proves every earlier hold has finished — the
// new hold is alone on the link — without reading anything else. Only a
// hold placed behind an unfinished one (prev > now) is a record for the
// backlog count, which keeps the older holds (prev joins them) instead
// of scheduling a release event per link per hold.
func (st *runState) hold(slots []int, now, finish float64) {
	if !st.held && len(slots) > 0 {
		st.held = true
	}
	for _, slot := range slots {
		prev := st.busy[slot]
		st.busy[slot] = finish
		if prev > now && st.counting {
			st.acct.record(now, prev, int32(slot))
		}
	}
}

// backlog is the link-backlog count of one replay state.
type backlog struct {
	of     []int32     // per directed link: 1 + index into queues, 0 until the link is first contended
	queues []holdQueue // the older holds still outstanding, per contended link
	// max is the deepest holding-or-waiting count seen on any link: 1,
	// a hold alone on its link, until a record says otherwise. The
	// backlog is pruned lazily: a link's depth is at most its queue's
	// length + 2 (the stored holds, prev and the new one), so while that
	// cannot exceed max no finished hold needs dropping to keep max exact.
	max int32
}

// reset empties the count for a machine of links directed links.
func (b *backlog) reset(links int) {
	b.of = resized(b.of, links)
	b.queues, b.max = b.queues[:0], 1
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

// record counts one contended hop on link slot, placed at now behind a
// hold that frees it at prev.
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
}
