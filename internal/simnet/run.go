package simnet

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/event"
)

// jitter perturbs a transmission duration by the network's configured
// measurement noise (a no-op at the default frac = 0). The draw comes
// from node p's private stream: p is the node computing the transfer (the
// sender of a send, the second arriver of an exchange rendezvous), which
// is deterministic for a given program, so the noise sequence does not
// depend on how unrelated nodes' events interleave — the bits the pinned
// replay digests record.
func (st *runState) jitter(p int, dur float64) float64 {
	f := st.net.jitterFrac
	if f == 0 {
		return dur
	}
	// Each float64(…) rounds a product before it is added, so that no
	// GOARCH fuses the two into one multiply-add and moves the pinned bits.
	u := float64(nextJitter(&st.rngs[p]))
	return dur * (1 + float64(f*(2*u-1)))
}

// seedJitterStreams builds one splitmix64 state per node from the network
// seed. Each node's stream is decorrelated from its neighbours' by the
// splitmix64 finalizer over (seed, node id).
func seedJitterStreams(seed int64, nodes int) []uint64 {
	s := make([]uint64, nodes)
	for p := range s {
		s[p] = splitmix(uint64(seed) + 0x9e3779b97f4a7c15*uint64(p+1))
	}
	return s
}

// nextJitter advances one node's splitmix64 state and returns a uniform
// draw in [0, 1) with the full 53 bits of float64 precision.
func nextJitter(state *uint64) float64 {
	*state += 0x9e3779b97f4a7c15
	return float64(splitmix(*state)>>11) * 0x1p-53
}

// splitmix is the splitmix64 finalizer.
func splitmix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// chanScanMax is the number of destinations a source's channel list may
// hold before lookups switch from scanning it to the source's
// destination-indexed table: a node of a multiphase XOR schedule talks
// to a handful of peers, a node of a cyclic {k} phase to every other
// node of its sub-block.
const chanScanMax = 8

// appendRoute appends the directed-link slots of the dimension-ordered
// route src→dst to the circuit being reserved: the e-cube bit walk on
// the hypercube, the topology's one-pass walk elsewhere.
func (st *runState) appendRoute(src, dst int) {
	if st.cube != nil {
		st.slots = st.cube.AppendRouteSlots(st.slots, src, dst)
	} else {
		st.slots = st.topo.AppendRouteSlots(st.slots, src, dst)
	}
}

// reserve acquires the circuit in st.slots — one route, or both
// directions of a pairwise exchange, which start together and hold for
// the same duration — for a transmission wanting to start no earlier
// than t and lasting dur µs. It returns the actual start time (delayed
// while any link is busy — edge contention) and the duration on this
// fabric: a degraded overlay's slow wires stretch the transmission by the
// worst per-hop factor. The wait is charged to owner's
// per-node stall account (summed in node order at run end) so the
// reported total is independent of the global event interleaving; owner
// is the sender, or the second arriver of an exchange, which is
// deterministic per program.
func (st *runState) reserve(owner int, t, dur float64) (start, adjDur float64, err error) {
	start = t
	for _, slot := range st.slots {
		if b := st.busy[slot]; b > start {
			start = b
		}
	}
	if st.degr != nil {
		// The worst per-hop factor limits the circuit's throughput.
		factor := 1.0
		for _, slot := range st.slots {
			factor = max(factor, st.degr.SlowFactor(slot))
		}
		dur *= factor
	}
	finish := start + dur
	if !(finish >= start && finish <= math.MaxFloat64) {
		// NaN, infinite or negative: a machine parameter or jitter
		// fraction no real machine has. It must not become a timestamp.
		return 0, 0, fmt.Errorf("transmission of %v µs is not a finite non-negative duration", dur)
	}
	st.hold(st.slots, float64(st.eng.Now()), finish)
	st.stall[owner] += start - t
	return start, dur, nil
}

// enterExchange implements OpExchange via a rendezvous: the first node to
// arrive parks in the exPeer/exBytes/exReady slots; the second computes
// the circuit timing for both.
//
// Timing (§7.2, §7.4): from the instant both parties are ready,
//
//	with pairwise sync:    a zero-byte sync round (λ0 + δh), then both
//	                       transfers run concurrently: λ + τm + δh;
//	without pairwise sync: the two transfers serialize (the iPSC-860
//	                       behaviour Seidel et al. measured when the
//	                       transmissions do not start simultaneously):
//	                       2·(λ + τm + δh).
//
// The circuits in both directions hold their links for the whole exchange.
func (st *runState) enterExchange(p int, op Op) {
	q := op.Peer
	if q == p {
		st.advance(p, st.ready[p]) // self-exchange is a no-op
		return
	}
	if q < 0 || q >= st.n {
		st.fail(fmt.Errorf("simnet: node %d: exchange with nonexistent node %d", p, q))
		return
	}
	if st.exPeer[q] != int32(p) {
		// First to arrive: park until the partner shows up.
		st.exPeer[p] = int32(q)
		st.exBytes[p] = op.Bytes
		st.exReady[p] = st.ready[p]
		return // parked: the partner's arrival advances both
	}
	firstBytes, firstReady := st.exBytes[q], st.exReady[q]
	st.exPeer[q] = -1
	if firstBytes != op.Bytes {
		st.fail(fmt.Errorf("simnet: exchange size mismatch between %d (%dB) and %d (%dB)",
			q, firstBytes, p, op.Bytes))
		return
	}

	// Both directed circuits, p's first; the routed distance is the hop
	// count of either.
	st.slots = st.slots[:0]
	st.appendRoute(p, q)
	h := len(st.slots)
	st.appendRoute(q, p)
	both := st.ready[p]
	if firstReady > both {
		both = firstReady
	}
	dur := st.jitter(p, st.net.params.ExchangeTime(op.Bytes, h))
	start, dur, err := st.reserve(p, both, dur)
	if err != nil {
		st.fail(fmt.Errorf("simnet: exchange %d↔%d at t=%g µs: %w", p, q, both, err))
		return
	}
	finish := start + dur
	st.res.Messages += 2
	st.res.BytesMoved += 2 * op.Bytes
	st.advance(p, finish)
	st.advance(q, finish)
}

// channel returns the index into st.chans of the ordered pair src→dst,
// creating it on first contact. A short per-source list is scanned — it
// beats any map and allocates only when a new pair first communicates;
// a source with more than chanScanMax destinations is looked up in its
// destination-indexed table instead.
func (st *runState) channel(src, dst int) int {
	tab := st.chanTab[src]
	if len(tab) != 0 {
		if ci := tab[dst]; ci != 0 {
			return int(ci - 1)
		}
	} else {
		for _, r := range st.outIdx[src] {
			if int(r.dst) == dst {
				return int(r.ch)
			}
		}
	}
	ci := len(st.chans)
	if ci == cap(st.chans) {
		// Double, rather than append's 1.25× for large slices: every
		// regrowth copies and clears the whole table.
		grown := make([]msgChan, ci, max(2*ci, 64))
		copy(grown, st.chans)
		st.chans = grown
	}
	st.chans = st.chans[:ci+1]
	// Recycle the slot storage a previous replay left here.
	st.chans[ci] = msgChan{dst: int32(dst), rest: st.chans[ci].rest[:0]}
	switch {
	case len(tab) != 0:
		tab[dst] = int32(ci + 1)
	case len(st.outIdx[src]) < chanScanMax:
		st.outIdx[src] = append(st.outIdx[src], chanRef{dst: int32(dst), ch: int32(ci)})
	default:
		tab = resized(tab, st.n)
		for _, r := range st.outIdx[src] {
			tab[r.dst] = r.ch + 1
		}
		tab[dst] = int32(ci + 1)
		st.chanTab[src] = tab
	}
	return ci
}

// slot returns the flags of channel ci's i-th message slot, extending
// the list as posts/waits/sends run ahead of each other.
func (st *runState) slot(ci, i int) *uint8 {
	ch := &st.chans[ci]
	if i == 0 {
		return &ch.first
	}
	for len(ch.rest) < i {
		ch.rest = append(ch.rest, 0)
	}
	return &ch.rest[i-1]
}

// doSend implements OpSend: the sender owns the circuit for the message
// duration; delivery is recorded in the receiver's channel.
func (st *runState) doSend(p int, op Op) {
	q := op.Peer
	if q < 0 || q >= st.n {
		st.fail(fmt.Errorf("simnet: node %d: send to nonexistent node %d", p, q))
		return
	}
	ci := st.channel(p, q)
	ch := &st.chans[ci]
	s := st.slot(ci, int(ch.sent))
	ch.sent++
	if op.Type == Forced {
		*s |= slotForced
	}
	if q == p {
		st.deliverAt(ci, st.ready[p]) // local delivery is free
		st.advance(p, st.ready[p])
		return
	}
	prm := st.net.params
	st.slots = st.slots[:0]
	st.appendRoute(p, q)
	h := len(st.slots)
	var dur float64
	if op.Type == Unforced {
		dur = prm.UnforcedMessageTime(op.Bytes, h)
	} else {
		dur = prm.RawMessageTime(op.Bytes, h)
	}
	dur = st.jitter(p, dur)
	start, dur, err := st.reserve(p, st.ready[p], dur)
	if err != nil {
		st.fail(fmt.Errorf("simnet: send %d→%d at t=%g µs: %w", p, q, st.ready[p], err))
		return
	}
	finish := start + dur
	st.res.Messages++
	st.res.BytesMoved += op.Bytes
	st.eng.PostArg(event.Time(finish), st.deliverH, ci)
	st.advance(p, finish)
}

// deliverAt records arrival of the next message on channel ci at time t
// and wakes a parked waiter. Per-channel deliveries arrive in send order
// (a sender's transmissions to one destination have increasing finish
// times), so the arrival cursor walks the slots FIFO.
func (st *runState) deliverAt(ci int, t float64) {
	ch := &st.chans[ci]
	s := st.slot(ci, int(ch.arr))
	ch.arr++
	*s |= slotArrived
	if *s&slotForced != 0 && *s&slotPosted == 0 {
		st.res.DroppedForced++
	}
	if *s&slotWaiting != 0 {
		*s &^= slotWaiting
		st.wake(int(ch.dst), t)
	}
}

// wake resumes node q, parked in a receive wait, on a delivery at time t.
// A parked node's ready time is the time it parked: only its own wake
// moves it.
func (st *runState) wake(q int, t float64) {
	if st.ready[q] > t {
		t = st.ready[q]
	}
	st.advance(q, t)
}

// doPostRecv implements OpPostRecv for the next unposted message slot from
// peer.
func (st *runState) doPostRecv(p, peer int) {
	ci := st.channel(peer, p)
	i := int(st.chans[ci].post)
	st.chans[ci].post++
	*st.slot(ci, i) |= slotPosted
}

// doWaitRecv implements OpWaitRecv: blocks until the next unconsumed
// message from peer has arrived. A message that has arrived did so no
// later than now, node p's ready time, so the wait ends at once.
func (st *runState) doWaitRecv(p, peer int) {
	ci := st.channel(peer, p)
	i := int(st.chans[ci].wait)
	st.chans[ci].wait++
	s := st.slot(ci, i)
	if *s&slotArrived != 0 {
		st.advance(p, st.ready[p])
		return
	}
	*s |= slotWaiting // parked: the delivery wakes it
}

// cyclicWindow is the state of an engine window whose rows keep
// ShapeCyclic's promise (PhaseSpan.Shape): span−1 receive posts, then
// span−1 send/wait pairs in which step j sends to field f+j and waits for
// the message from field f−j, then an optional shuffle. The promise fixes
// which message each wait matches — the one its node's step-j sender
// addressed to it — so the window needs no channels: a message is one
// byte of a flat inbox indexed by (destination, step). The posts cost no
// events either: they touch no link and no clock, and every one of them
// precedes every send, so a node's first event is its first send, fired
// in node order as the posts' round-robin left them.
type cyclicWindow struct {
	// first is the row of the window's first send and end the row after
	// its last wait: rows [first, end) are interpreted here, the rest by
	// step. end is 0 outside a cyclic window.
	first, end int32
	span       int
	stride     int
	shift      uint    // an inbox row holds 1<<shift ≥ span−1 steps
	bytes      []int   // per step j−1, the byte count of its send row
	field      []int32 // per node: its digit f in the phase field
	base       []int32 // per node: its label with that digit zeroed
	inbox      []uint8 // per destination<<shift + j−1: msgArrived, msgParked or 0
}

const (
	msgArrived uint8 = 1 + iota // the message is in; its wait returns at once
	msgParked                   // its receiver waits for it
)

// openCyclic sets st up to interpret the window opening at row winLo of
// a span that keeps the cyclic promise, and reports whether it could:
// every send row must also have one byte count on every node.
func (st *runState) openCyclic(src Phased, sp PhaseSpan, winLo int) bool {
	c := &st.cyc
	steps := sp.Span - 1
	first := winLo + steps
	c.bytes = c.bytes[:0]
	for j := 0; j < steps; j++ {
		kind, b, ok := src.UniformRow(first + 2*j)
		if !ok || kind != OpSend {
			return false
		}
		c.bytes = append(c.bytes, b)
	}
	c.first, c.end = int32(first), int32(first+2*steps)
	c.span, c.stride = sp.Span, sp.Stride
	c.shift = uint(bits.Len(uint(steps - 1)))
	c.field = resized(c.field, st.n)
	c.base = resized(c.base, st.n)
	for p := range c.field {
		f := p / sp.Stride % sp.Span
		c.field[p], c.base[p] = int32(f), int32(p-f*sp.Stride)
	}
	c.inbox = resized(c.inbox, st.n<<c.shift)
	return true
}

// stepCyclic interprets row pc of node p in a cyclic window: an even
// offset from the first send is a step's send, an odd one its wait. A
// send is doSend's, with the partner from the node's digits and the
// delivery addressed to the receiver's inbox; a wait returns at once if
// its message is in, as doWaitRecv's does, and parks otherwise.
func (st *runState) stepCyclic(p int, pc int32) {
	c := &st.cyc
	k := int(pc - c.first)
	j := k >> 1 // step j+1
	if k&1 != 0 {
		i := p<<c.shift + j
		if c.inbox[i] == msgArrived {
			st.advance(p, st.ready[p])
			return
		}
		c.inbox[i] = msgParked // its delivery wakes it
		return
	}
	g := int(c.field[p]) + j + 1
	if g >= c.span {
		g -= c.span
	}
	q := int(c.base[p]) + g*c.stride
	bytes := c.bytes[j]
	st.slots = st.slots[:0]
	st.appendRoute(p, q)
	dur := st.jitter(p, st.net.params.RawMessageTime(bytes, len(st.slots)))
	start, dur, err := st.reserve(p, st.ready[p], dur)
	if err != nil {
		st.fail(fmt.Errorf("simnet: send %d→%d at t=%g µs: %w", p, q, st.ready[p], err))
		return
	}
	finish := start + dur
	st.res.Messages++
	st.res.BytesMoved += bytes
	st.eng.PostArg(event.Time(finish), st.cycDeliverH, q<<c.shift+j)
	st.advance(p, finish)
}

// deliverCyclic records the arrival of inbox message i at time t, waking
// its receiver if it is parked on it.
func (st *runState) deliverCyclic(i int, t float64) {
	c := &st.cyc
	if c.inbox[i] == msgParked {
		st.wake(i>>c.shift, t)
		return
	}
	c.inbox[i] = msgArrived
}
