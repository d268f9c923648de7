package simnet

import "testing"

// FuzzHoldQueue holds the lazily pruned link backlog to a naive oracle
// that keeps every hold placed on every link and counts, at each new
// hold, the ones still outstanding. The backlog is driven directly, as
// hold drives it: each link's busy time is kept here, and a hop placed
// behind an unfinished hold is recorded. After every hold the deepest
// count seen so far must equal the backlog's maximum exactly: a prune
// skipped because it could not change the answer must never hide a new
// maximum. The input drives three links: per hold one byte picks the
// links (all three when its low bits are zero) and how far virtual time
// advances, one byte the duration; the start is the latest of now and the
// links' busy times, as reserve places it, so now is monotone and each
// link's finish times ascend. Long runs of holds at one instant stack up
// far beyond edgeRing and make a link's queue spill, and grow again.
func FuzzHoldQueue(f *testing.F) {
	stack := make([]byte, 0, 160)
	for range 80 {
		stack = append(stack, 1, 3) // link 0, time still, 3 µs each
	}
	f.Add(stack)
	// Holds at t = 1 (finishing at 4) and t = 2 (waiting until 4,
	// finishing at 52), then one at t = 4 on link 0: the first has
	// finished, so the true depth is 2, and a queue that skipped one
	// prune too many would count 3.
	f.Add([]byte{0x30, 3, 0x30, 48, 0x41, 48})
	f.Add([]byte{7, 10, 1, 10, 2, 10, 4, 10, 9, 200, 1, 1, 255, 0, 7, 5, 64, 9})
	f.Add([]byte{1, 50, 8, 0, 1, 50, 8, 0, 1, 50, 2, 50, 3, 7, 200, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		const links = 3
		var b backlog
		b.reset(links)
		busy := make([]float64, links)
		placed := make([][]float64, links) // the oracle: every finish time, per link
		var now float64
		want := int32(0)
		slots := make([]int, 0, links)
		for i := 0; i+1 < len(in); i += 2 {
			pick, dur := in[i], float64(in[i+1])
			now += float64(pick >> 5)
			slots = slots[:0]
			for l := range links {
				if pick&7 == 0 || pick&(1<<l) != 0 {
					slots = append(slots, l)
				}
			}
			start := now
			for _, l := range slots {
				start = max(start, busy[l])
			}
			finish := start + dur
			for _, l := range slots {
				if busy[l] > now {
					b.record(now, busy[l], int32(l))
				}
				busy[l] = finish
				depth := int32(1) // the new hold
				for _, fin := range placed[l] {
					if fin > now {
						depth++
					}
				}
				want = max(want, depth)
				placed[l] = append(placed[l], finish)
			}
			if got := b.max; got != want {
				t.Fatalf("hold %d (now %v, finish %v, links %v): backlog max %d, oracle %d",
					i/2, now, finish, slots, got, want)
			}
		}
	})
}
