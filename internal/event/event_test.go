package event

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestFIFOAmongTies(t *testing.T) {
	g := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		g.At(5, func(Time) { order = append(order, i) })
	}
	g.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	g := New()
	var fired []Time
	times := []Time{9, 3, 7, 1, 3, 8, 0}
	for _, tm := range times {
		tm := tm
		g.At(tm, func(now Time) {
			if now != tm {
				t.Errorf("fired at %v, scheduled %v", now, tm)
			}
			fired = append(fired, now)
		})
	}
	end := g.Run()
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Errorf("events out of order: %v", fired)
	}
	if end != 9 {
		t.Errorf("final time %v, want 9", end)
	}
	if g.Steps() != uint64(len(times)) {
		t.Errorf("steps = %d", g.Steps())
	}
}

func TestAfter(t *testing.T) {
	g := New()
	var hit Time
	g.At(10, func(Time) {
		g.After(5, func(now Time) { hit = now })
	})
	g.Run()
	if hit != 15 {
		t.Errorf("After fired at %v, want 15", hit)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	g := New()
	g.At(10, func(Time) {})
	g.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past must panic")
		}
	}()
	g.At(5, func(Time) {})
}

func TestNegativeAfterPanics(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay must panic")
		}
	}()
	g.After(-1, func(Time) {})
}

func TestNilHandlerPanics(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Error("nil handler must panic")
		}
	}()
	g.At(1, nil)
}

func TestCancel(t *testing.T) {
	g := New()
	fired := false
	e := g.At(5, func(Time) { fired = true })
	if !g.Cancel(e) {
		t.Error("first cancel must succeed")
	}
	if g.Cancel(e) {
		t.Error("second cancel must be a no-op")
	}
	if g.Cancel(nil) {
		t.Error("cancel(nil) must be a no-op")
	}
	g.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	g := New()
	var fired []int
	var evs []*Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, g.At(Time(i), func(Time) { fired = append(fired, i) }))
	}
	// Cancel all odd events.
	for i := 1; i < 20; i += 2 {
		g.Cancel(evs[i])
	}
	g.Run()
	if len(fired) != 10 {
		t.Fatalf("fired %v", fired)
	}
	for _, v := range fired {
		if v%2 != 0 {
			t.Fatalf("odd event %d fired", v)
		}
	}
}

func TestRunUntil(t *testing.T) {
	g := New()
	var fired []Time
	for _, tm := range []Time{1, 5, 10, 15} {
		tm := tm
		g.At(tm, func(now Time) { fired = append(fired, now) })
	}
	g.RunUntil(10)
	if len(fired) != 3 {
		t.Errorf("fired %v, want 3 events", fired)
	}
	if g.Now() != 10 {
		t.Errorf("now = %v, want 10", g.Now())
	}
	if g.Pending() != 1 {
		t.Errorf("pending = %d", g.Pending())
	}
	g.Run()
	if len(fired) != 4 {
		t.Error("remaining event must fire on Run")
	}
}

func TestRunLimit(t *testing.T) {
	g := New()
	count := 0
	for i := 0; i < 10; i++ {
		g.At(Time(i), func(Time) { count++ })
	}
	if g.RunLimit(4) {
		t.Error("queue must not drain in 4 steps")
	}
	if count != 4 {
		t.Errorf("count = %d", count)
	}
	if !g.RunLimit(100) {
		t.Error("queue must drain")
	}
}

// Stop ends the run in progress after the handler that called it, leaves
// the rest queued and the clock where it was, holds until Reset, and may
// come from another goroutine.
func TestStop(t *testing.T) {
	g := New()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		g.At(Time(i), func(Time) {
			fired = append(fired, i)
			if i == 3 {
				g.Stop()
			}
		})
	}
	if g.RunLimit(100) {
		t.Error("a stopped RunLimit must not report the queue drained")
	}
	if len(fired) != 4 || g.Now() != 3 || g.Pending() != 6 {
		t.Errorf("after Stop at t=3: fired %v, now %v, %d pending", fired, g.Now(), g.Pending())
	}
	if g.Run(); len(fired) != 4 {
		t.Errorf("Run after Stop fired %v", fired)
	}
	if g.RunUntil(100); len(fired) != 4 || g.Now() != 3 {
		t.Errorf("RunUntil after Stop fired %v and moved the clock to %v", fired, g.Now())
	}

	g.Reset()
	n := 0
	var h Handler
	h = func(now Time) {
		n++
		g.Post(now+1, h)
	}
	g.Post(0, h)
	ran := make(chan Time)
	go func() { ran <- g.Run() }() // endless, but for Stop
	g.Stop()
	if end := <-ran; n != int(end)+1 && n != 0 {
		t.Errorf("stopped from outside at t=%v after %d events", end, n)
	}
	if g.Pending() > 1 {
		t.Errorf("%d events pending after an outside Stop", g.Pending())
	}
}

func TestEventTimeAccessor(t *testing.T) {
	g := New()
	e := g.At(7, func(Time) {})
	if e.Time() != 7 {
		t.Errorf("Time() = %v", e.Time())
	}
}

func TestDeterministicUnderRandomLoad(t *testing.T) {
	run := func(seed int64) []Time {
		g := New()
		rng := rand.New(rand.NewSource(seed))
		var trace []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 3 {
				return
			}
			g.After(Time(rng.Intn(100)), func(now Time) {
				trace = append(trace, now)
				spawn(depth + 1)
				spawn(depth + 1)
			})
		}
		spawn(0)
		g.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("nondeterministic trace length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic trace")
		}
	}
}

func TestEmptyRun(t *testing.T) {
	g := New()
	if g.Run() != 0 {
		t.Error("empty run must end at time 0")
	}
	if g.Step() {
		t.Error("Step on empty queue must be false")
	}
}

func TestPostAndPostArgPooling(t *testing.T) {
	g := New()
	var order []string
	g.Post(2, func(Time) { order = append(order, "post@2") })
	g.PostArg(1, func(_ Time, arg int) { order = append(order, fmt.Sprintf("arg%d@1", arg)) }, 7)
	g.At(1, func(Time) { order = append(order, "at@1") })
	g.Run()
	want := []string{"arg7@1", "at@1", "post@2"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}

	// Queue storage is recycled: a chain of sequential Posts — one run of
	// one event after another — reuses a retired run's slot instead of
	// allocating per step.
	g2 := New()
	count := 0
	var tick Handler
	tick = func(now Time) {
		count++
		if count < 100 {
			g2.Post(now+1, tick)
		}
	}
	g2.Post(0, tick)
	allocs := testing.AllocsPerRun(1, func() {
		count = 0
		g2.Post(g2.Now(), tick)
		g2.Run()
	})
	if count != 100 {
		t.Fatalf("chain ran %d steps", count)
	}
	// One warm-up run has grown the queue; steady-state scheduling must
	// not allocate per event (allow slack for the heap slice).
	if allocs > 5 {
		t.Errorf("pooled Post allocated %.0f times per run", allocs)
	}

	// Cancellable At events coexist with pooled ones.
	g3 := New()
	fired := false
	e := g3.At(5, func(Time) { fired = true })
	g3.PostArg(5, func(Time, int) {}, 0)
	if !g3.Cancel(e) {
		t.Error("cancel must succeed")
	}
	g3.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestScheduleNaNPanics(t *testing.T) {
	nan := Time(math.NaN())
	for name, schedule := range map[string]func(g *Engine){
		"At":      func(g *Engine) { g.At(nan, func(Time) {}) },
		"Post":    func(g *Engine) { g.Post(nan, func(Time) {}) },
		"PostArg": func(g *Engine) { g.PostArg(nan, func(Time, int) {}, 0) },
		"After":   func(g *Engine) { g.After(nan, func(Time) {}) },
	} {
		func() {
			g := New()
			defer func() {
				if recover() == nil {
					t.Errorf("%s at a NaN time must panic", name)
				}
				if g.Pending() != 0 {
					t.Errorf("%s at a NaN time left %d events queued", name, g.Pending())
				}
			}()
			schedule(g)
		}()
	}
}

func TestCancelFiredAndTombstones(t *testing.T) {
	g := New()
	var fired []int
	note := func(i int) Handler { return func(Time) { fired = append(fired, i) } }
	a := g.At(5, note(0))
	b := g.At(5, note(1))
	c := g.At(9, note(2))
	if !g.Cancel(b) || g.Pending() != 2 {
		t.Fatalf("cancel of a queued event: pending = %d", g.Pending())
	}
	if !g.Step() || g.Cancel(a) {
		t.Error("an event that has fired cannot be cancelled")
	}
	// The clock must not move to a cancelled event's time, and an event
	// scheduled earlier than a tombstone at the head still fires first.
	if !g.Cancel(c) || g.Step() || g.Now() != 5 || g.Pending() != 0 {
		t.Fatalf("queue of one tombstone: now = %v, pending = %d", g.Now(), g.Pending())
	}
	d := g.At(7, note(3))
	if g.Cancel(c) {
		t.Error("second cancel after the tombstone was dropped must be a no-op")
	}
	if !g.Cancel(d) {
		t.Error("an event scheduled before a dropped tombstone's time is still queued")
	}
	g.At(6, note(4))
	if end := g.Run(); end != 6 || fmt.Sprint(fired) != "[0 4]" {
		t.Errorf("fired %v, ended at %v", fired, end)
	}
	if g.Steps() != 2 {
		t.Errorf("steps = %d, tombstones must not count", g.Steps())
	}
}

func TestRunUntilBoundaries(t *testing.T) {
	g := New()
	var fired []Time
	h := func(now Time) { fired = append(fired, now) }
	for i := 0; i < 3; i++ {
		g.Post(10, h) // one run of three
	}
	g.Post(20, h)
	if g.RunUntil(9.5) != 9.5 || len(fired) != 0 {
		t.Fatalf("nothing matures by 9.5: fired %v", fired)
	}
	if g.RunLimit(1) || g.Now() != 10 || g.Pending() != 3 {
		t.Fatalf("one step into the run: now = %v, pending = %d", g.Now(), g.Pending())
	}
	// A deadline behind the clock fires nothing, even mid-run.
	if g.RunUntil(5) != 10 || len(fired) != 1 {
		t.Fatalf("deadline behind the clock: fired %v", fired)
	}
	// Events scheduled at the deadline itself fire, after those queued.
	g.Post(10, func(now Time) { fired = append(fired, -now) })
	if g.RunUntil(10) != 10 || fmt.Sprint(fired) != "[10 10 10 -10]" {
		t.Fatalf("deadline on the run's own time: fired %v", fired)
	}
	if g.RunUntil(15) != 15 || g.Pending() != 1 {
		t.Fatalf("clock must advance to the deadline while events remain: now = %v", g.Now())
	}
	if g.RunUntil(30) != 20 {
		t.Fatalf("clock must stop at the last event once drained: now = %v", g.Now())
	}
}

func TestResetKeepsStorage(t *testing.T) {
	g := New()
	count := 0
	var h ArgHandler = func(Time, int) { count++ }
	load := func() {
		for i := 0; i < 64; i++ {
			g.PostArg(Time(i%4), h, i)
			g.PostArg(Time(i%4), h, i)
		}
	}
	load()
	g.RunLimit(10) // leave events queued and a run half drained
	e := g.At(3, func(Time) {})
	g.Cancel(e)
	g.Reset()
	if g.Now() != 0 || g.Pending() != 0 || g.Steps() != 0 || g.Step() {
		t.Fatalf("reset engine: now = %v, pending = %d, steps = %d", g.Now(), g.Pending(), g.Steps())
	}
	count = 0
	allocs := testing.AllocsPerRun(5, func() {
		g.Reset()
		load()
		g.Run()
	})
	if count != 6*128 {
		t.Fatalf("ran %d events", count)
	}
	if allocs != 0 {
		t.Errorf("a reset engine allocated %.0f times re-running the same load", allocs)
	}
}
