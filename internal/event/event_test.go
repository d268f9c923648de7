package event

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// queued counts the events g holds, walking the queue's storage.
func queued(g *Engine) int {
	n := 0
	if g.cur >= 0 {
		n += int(g.runs[g.cur].n) + 1 - g.curPos
	}
	for b, ks := range g.buckets {
		if b == 0 {
			ks = ks[g.head:]
		}
		for _, k := range ks {
			n += int(g.runs[k.slot].n) + 1
		}
	}
	return n
}

// recorder is an ArgHandler that logs (now, arg) per firing.
type recorder struct {
	times []Time
	args  []int
}

func (r *recorder) h(now Time, arg int) {
	r.times = append(r.times, now)
	r.args = append(r.args, arg)
}

func TestFIFOAmongTies(t *testing.T) {
	g := New()
	var r recorder
	for i := 0; i < 40; i++ { // more than one chunk
		g.PostArg(5, r.h, i)
	}
	g.Run()
	for i, v := range r.args {
		if v != i {
			t.Fatalf("tie order = %v", r.args)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	g := New()
	var r recorder
	times := []Time{9, 3, 7, 1, 3, 8, 0}
	for i, tm := range times {
		g.PostArg(tm, r.h, i)
	}
	end := g.Run()
	if !sort.SliceIsSorted(r.times, func(i, j int) bool { return r.times[i] < r.times[j] }) {
		t.Errorf("events out of order: %v", r.times)
	}
	for i, arg := range r.args {
		if r.times[i] != times[arg] {
			t.Errorf("event %d fired at %v, scheduled %v", arg, r.times[i], times[arg])
		}
	}
	if end != 9 {
		t.Errorf("final time %v, want 9", end)
	}
	if g.Steps() != uint64(len(times)) {
		t.Errorf("steps = %d", g.Steps())
	}
}

// Equal-time runs that one redistribution moves into bucket 0 must leave
// it in the order they were queued. Runs at 10 and 20 alternate, so every
// one is a run of its own, all in the top bucket of the base 0; the pop of
// the first 10 sends the three runs at 10 to bucket 0 together.
func TestRedistributedTiesKeepOrder(t *testing.T) {
	g := New()
	var r recorder
	for i := 0; i < 6; i++ {
		tm := Time(10 + 10*(i%2))
		g.PostArg(tm, r.h, 2*i)
		g.PostArg(tm, r.h, 2*i+1)
	}
	g.Run()
	want := "[0 1 4 5 8 9 2 3 6 7 10 11]"
	if got := fmt.Sprint(r.args); got != want {
		t.Errorf("fired %v, want %v", got, want)
	}
}

// The key order is the numeric order over every kind of non-negative
// time: −0 with +0, subnormal, normal, huge and infinite.
func TestExtremeTimes(t *testing.T) {
	negZero := Time(math.Copysign(0, -1))
	times := []Time{Time(math.Inf(1)), 1, 1e300, 0, 5e-324, negZero, 1, 5e-324, 0}
	g, o := New(), &oracleEngine{}
	var got, want recorder
	for i, tm := range times {
		g.PostArg(tm, got.h, i)
		o.PostArg(tm, want.h, i)
	}
	if g.Run() != Time(math.Inf(1)) {
		t.Errorf("run ended at %v, want +Inf", g.Now())
	}
	o.Run()
	if fmt.Sprint(got.args) != fmt.Sprint(want.args) {
		t.Errorf("fired %v, oracle %v", got.args, want.args)
	}
	for i := range got.times {
		if got.times[i] != want.times[i] {
			t.Errorf("event %d fired at %v, oracle at %v", got.args[i], got.times[i], want.times[i])
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	g := New()
	g.PostArg(10, func(Time, int) {}, 0)
	g.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past must panic")
		}
	}()
	g.PostArg(5, func(Time, int) {}, 0)
}

func TestNilHandlerPanics(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Error("nil handler must panic")
		}
	}()
	g.PostArg(1, nil, 0)
}

func TestScheduleNaNPanics(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Error("scheduling at a NaN time must panic")
		}
		if n := queued(g); n != 0 {
			t.Errorf("scheduling at a NaN time left %d events queued", n)
		}
	}()
	g.PostArg(Time(math.NaN()), func(Time, int) {}, 0)
}

func TestRunLimit(t *testing.T) {
	g := New()
	var r recorder
	for i := 0; i < 10; i++ {
		g.PostArg(Time(i), r.h, i)
	}
	if g.RunLimit(4) {
		t.Error("queue must not drain in 4 steps")
	}
	if len(r.args) != 4 {
		t.Errorf("fired %v", r.args)
	}
	if !g.RunLimit(100) {
		t.Error("queue must drain")
	}

	// Stopping inside a run leaves the rest of it queued; an event posted
	// at the run's own time joins it, after those queued.
	g.Reset()
	r = recorder{}
	for i := 0; i < 3; i++ {
		g.PostArg(10, r.h, i) // one run of three
	}
	g.PostArg(20, r.h, 3)
	if g.RunLimit(1) || g.Now() != 10 || queued(g) != 3 {
		t.Fatalf("one step into the run: now = %v, %d queued", g.Now(), queued(g))
	}
	g.PostArg(10, r.h, 4)
	if g.RunLimit(3) || fmt.Sprint(r.args) != "[0 1 2 4]" || queued(g) != 1 {
		t.Fatalf("fired %v, %d queued", r.args, queued(g))
	}
	if !g.RunLimit(1) || g.Now() != 20 {
		t.Fatalf("last event: now = %v", g.Now())
	}
}

// Stop ends the run in progress after the handler that called it, leaves
// the rest queued and the clock where it was, holds until Reset, and may
// come from another goroutine.
func TestStop(t *testing.T) {
	g := New()
	var fired []int
	stopAt3 := func(_ Time, i int) {
		fired = append(fired, i)
		if i == 3 {
			g.Stop()
		}
	}
	for i := 0; i < 10; i++ {
		g.PostArg(Time(i), stopAt3, i)
	}
	if g.RunLimit(100) {
		t.Error("a stopped RunLimit must not report the queue drained")
	}
	if len(fired) != 4 || g.Now() != 3 || queued(g) != 6 {
		t.Errorf("after Stop at t=3: fired %v, now %v, %d queued", fired, g.Now(), queued(g))
	}
	if g.Run(); len(fired) != 4 || g.Now() != 3 {
		t.Errorf("Run after Stop fired %v and moved the clock to %v", fired, g.Now())
	}

	g.Reset()
	n := 0
	var h ArgHandler
	h = func(now Time, _ int) {
		n++
		g.PostArg(now+1, h, 0)
	}
	g.PostArg(0, h, 0)
	ran := make(chan Time)
	go func() { ran <- g.Run() }() // endless, but for Stop
	g.Stop()
	if end := <-ran; n != int(end)+1 && n != 0 {
		t.Errorf("stopped from outside at t=%v after %d events", end, n)
	}
	if queued(g) != 1 {
		t.Errorf("%d events queued after an outside Stop", queued(g))
	}
}

func TestDeterministicUnderRandomLoad(t *testing.T) {
	run := func(seed int64) []Time {
		g := New()
		rng := rand.New(rand.NewSource(seed))
		var trace []Time
		var spawn ArgHandler
		spawn = func(now Time, depth int) {
			trace = append(trace, now)
			if depth < 4 {
				g.PostArg(now+Time(rng.Intn(100)), spawn, depth+1)
				g.PostArg(now+Time(rng.Intn(100)), spawn, depth+1)
			}
		}
		g.PostArg(Time(rng.Intn(100)), spawn, 0)
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
	if !g.RunLimit(1) || g.Steps() != 0 {
		t.Error("RunLimit on an empty queue must fire nothing and report it drained")
	}
}

// A Reset after the clock, and so the queue's base, has moved far ahead
// must take the base back to zero: the reused engine orders times below
// the old base as a new one does.
func TestResetAfterBaseMoved(t *testing.T) {
	g := New()
	var r recorder
	g.PostArg(1000, r.h, 0)
	g.PostArg(1000, r.h, 1)
	g.PostArg(3000, r.h, 2)
	g.PostArg(2000, r.h, 3)
	if g.RunLimit(3) || g.Now() != 2000 {
		t.Fatalf("clock at %v, want 2000", g.Now())
	}
	g.Reset()
	r = recorder{}
	for i, tm := range []Time{5, 3, 7, 3, 1500, 0} {
		g.PostArg(tm, r.h, i)
	}
	if end := g.Run(); end != 1500 || fmt.Sprint(r.args) != "[5 1 3 0 2 4]" {
		t.Errorf("after Reset: fired %v, ended at %v", r.args, end)
	}
}

// A reset engine re-running a load it has run before keeps every
// structure it needs — runs, chunks and radix buckets — and allocates
// nothing, on a mixed load, on a synchronous one where every event ties
// and on a contended one where no two times are equal.
func TestResetKeepsStorage(t *testing.T) {
	g := New()
	count := 0
	left := 0
	const nodes = 512
	chain := func(next func(now Time, node int) Time) ArgHandler {
		var h ArgHandler
		h = func(now Time, node int) {
			count++
			if left > 0 {
				left--
				g.PostArg(next(now, node), h, node)
			}
		}
		return h
	}
	ties := chain(func(now Time, _ int) Time { return now + 1 })
	distinct := chain(func(now Time, node int) Time { return now + 1 + Time(node)/8192 })
	mixed := func(Time, int) { count++ }
	loads := []struct {
		name   string
		events int
		load   func()
	}{
		{"mixed", 128, func() {
			for i := 0; i < 64; i++ {
				g.PostArg(Time(i%4), mixed, i)
				g.PostArg(Time(i%4), mixed, i)
			}
		}},
		{"ties", 8 * nodes, func() {
			left = 7 * nodes
			for p := 0; p < nodes; p++ {
				g.PostArg(0, ties, p)
			}
		}},
		{"distinct", 8 * nodes, func() {
			left = 7 * nodes
			for p := 0; p < nodes; p++ {
				g.PostArg(Time(p)/nodes, distinct, p)
			}
		}},
	}
	for _, l := range loads {
		g.Reset()
		l.load()
		g.RunLimit(10) // leave events queued and a run half drained
		g.Reset()
		if g.Now() != 0 || queued(g) != 0 || g.Steps() != 0 || !g.RunLimit(1) {
			t.Fatalf("%s: reset engine: now = %v, %d queued, steps = %d", l.name, g.Now(), queued(g), g.Steps())
		}
		count = 0
		allocs := testing.AllocsPerRun(5, func() {
			g.Reset()
			l.load()
			g.Run()
		})
		if count != 6*l.events {
			t.Fatalf("%s: ran %d events, want %d", l.name, count, 6*l.events)
		}
		if allocs != 0 {
			t.Errorf("%s: a reset engine allocated %v times re-running the same load", l.name, allocs)
		}
	}
}
