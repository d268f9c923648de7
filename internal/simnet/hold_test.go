package simnet

import (
	"runtime"
	"slices"
	"testing"
)

// FuzzHoldQueue holds the lazily pruned link backlog to a naive oracle
// that keeps every hold placed on every link and counts, at each new
// hold, the ones still outstanding. After every hold the deepest count
// seen so far must equal the accounting's maximum exactly: a prune skipped because it
// could not change the answer must never hide a new maximum. The input
// drives three links: per hold one byte picks the links (all three when
// its low bits are zero) and how far virtual time advances, one byte the
// duration; the start is the latest of now and the links' busy times, as
// reserve places it, so now is monotone and each link's finish times
// ascend. Long runs of holds at one instant stack up far beyond edgeRing
// and make a link's queue spill, and grow again.
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
		st := &runState{busy: make([]float64, links)}
		st.log.init()
		st.log.acct.reset(links)
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
				start = max(start, st.busy[l])
			}
			finish := start + dur
			st.hold(slots, now, finish)
			st.log.flush()
			for _, l := range slots {
				depth := int32(1) // the new hold
				for _, fin := range placed[l] {
					if fin > now {
						depth++
					}
				}
				want = max(want, depth)
				placed[l] = append(placed[l], finish)
			}
			if got := int32(st.edgeQueue()); got != want {
				t.Fatalf("hold %d (now %v, finish %v, links %v): maxQueue %d, oracle %d",
					i/2, now, finish, slots, got, want)
			}
		}
	})
}

// The hold log fissions the backlog accounting off the replay loop; where
// its consumer runs must change nothing it counts. One stream of holds —
// many windows of them, each long enough to fill several helper chunks on
// some links and to spill the inline ring — is replayed through hold with
// the consumer forced inline and forced onto a helper, the log flushed at
// each window's end as drain flushes it. Both must apply exactly the hops
// that landed behind an unfinished hold, which the test counts itself, and
// reach the naive oracle's deepest backlog.
func TestHoldLogFission(t *testing.T) {
	const links, windows, holds = 24, 6, 10000
	type outcome struct {
		applied int
		deepest int
	}
	run := func(helper bool) (got, want outcome) {
		defer forceHelper(helper)()
		st := &runState{busy: make([]float64, links)}
		st.log.init()
		st.log.acct.reset(links)
		rng := uint64(12345)
		next := func(n uint64) uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return (rng >> 33) % n
		}
		placed := make([][]float64, links)
		var now float64
		slots := make([]int, 0, 4)
		for w := 0; w < windows; w++ {
			for range holds {
				now += float64(next(8)) // ties and a loaded fabric: deep backlogs
				slots = slots[:0]
				for range 1 + next(4) {
					if s := int(next(links)); !slices.Contains(slots, s) {
						slots = append(slots, s)
					}
				}
				start := now
				for _, s := range slots {
					start = max(start, st.busy[s])
				}
				finish := start + float64(1+next(12))
				for _, s := range slots {
					if st.busy[s] > now {
						want.applied++
					}
					// Virtual time never moves back: a finished hold
					// never counts again.
					placed[s] = slices.DeleteFunc(placed[s], func(fin float64) bool { return fin <= now })
					want.deepest = max(want.deepest, 1+len(placed[s]))
					placed[s] = append(placed[s], finish)
				}
				st.hold(slots, now, finish)
			}
			st.log.flush()
			if st.log.helping {
				t.Fatalf("window %d: the helper outlived its flush", w)
			}
		}
		if helper && st.log.chunks == 0 {
			t.Fatal("no helper applied the forced helper's log")
		}
		return outcome{st.log.acct.applied, st.edgeQueue()}, want
	}
	inline, want := run(false)
	helper, _ := run(true)
	if inline != want || helper != want {
		t.Fatalf("applied hops and deepest backlog: inline %+v, helper %+v, oracle %+v", inline, helper, want)
	}
	if want.applied < 4*logChunk || want.deepest <= edgeRing {
		t.Fatalf("the stream logs %d hops with a deepest backlog of %d: too few to fill the helper's chunks or spill a ring",
			want.applied, want.deepest)
	}
}

// forceHelper sets helperAfter so that a window's hold log is applied on
// a helper from its first contended hop, or never, and returns the
// function that restores it. On a one-core process a forced helper is
// given a second P (GOMAXPROCS 2) until then.
func forceHelper(helper bool) (restore func()) {
	prev, procs := helperAfter, runtime.GOMAXPROCS(0)
	helperAfter = 0
	if helper {
		helperAfter = 1
		runtime.GOMAXPROCS(max(2, procs))
	}
	return func() {
		helperAfter = prev
		runtime.GOMAXPROCS(procs)
	}
}

// A panic of the accounting on a helper is raised by the flush that joins
// it, on the replay goroutine, where a caller's recovery sees it: here a
// hop on a link the accounting was not sized for, logged after the
// helper took over.
func TestHoldLogHelperPanic(t *testing.T) {
	defer forceHelper(true)()
	st := &runState{busy: make([]float64, 3)}
	st.log.init()
	st.log.acct.reset(2)
	st.hold([]int{0, 2}, 0, 10)
	st.hold([]int{0}, 1, 20) // link 0's first contended hop, counted inline, starts the helper
	st.hold([]int{2}, 2, 30) // logged for the helper, which panics on it
	if !st.log.helping {
		t.Fatal("no helper took the log over")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("flush returned, want the helper's panic")
			}
		}()
		st.log.flush()
	}()
	if st.log.helping {
		t.Fatal("the helper outlived the flush that raised its panic")
	}
}
