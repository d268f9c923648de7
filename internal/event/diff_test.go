package event

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// queue is the scheduling surface an op script drives, bound to either
// the Engine or the oracle.
type queue struct {
	now      func() Time
	postArg  func(t Time, h ArgHandler, arg int)
	run      func() Time
	runLimit func(uint64) bool
	stop     func()
	reset    func()
	pending  func() int
	steps    func() uint64
}

func engineQueue() queue {
	g := New()
	return queue{
		now: g.Now, postArg: g.PostArg,
		run: g.Run, runLimit: g.RunLimit, stop: g.Stop, reset: g.Reset,
		pending: func() int { return queued(g) }, steps: g.Steps,
	}
}

func oracleQueue() queue {
	g := &oracleEngine{}
	return queue{
		now: func() Time { return g.now }, postArg: g.PostArg,
		run: g.Run, runLimit: g.RunLimit, stop: g.Stop, reset: g.Reset,
		pending: func() int { return len(g.queue) },
		steps:   func() uint64 { return g.nsteps },
	}
}

// maxScriptEvents bounds the events one script may schedule, so a script
// whose handlers keep re-arming themselves still terminates.
const maxScriptEvents = 1 << 14

// scriptRun interprets an op script against one queue and logs everything
// observable: each fired (time, id), and the result of every Run,
// RunLimit, Stop and Reset with the clock and the pending count after it.
// Handlers read the script too — a fired event decides from the next byte
// whether to schedule children at the current instant, at a shared later
// time (appends to the open run, which may be the one draining), as a
// burst, or to stop the engine — so the two interpreters stay in step
// exactly as long as the two queues fire in the same order.
type scriptRun struct {
	q      queue
	script []byte
	pos    int
	mode   byte // delay profile, from the script's first byte
	nextID int
	log    strings.Builder
}

func (r *scriptRun) next() (byte, bool) {
	if r.pos >= len(r.script) {
		return 0, false
	}
	b := r.script[r.pos]
	r.pos++
	return b, true
}

// delay decodes one byte into a non-negative delay. Mode 1 draws from
// three values, so nearly everything ties; mode 2 makes every delay
// distinct; mode 0 mixes zero delays, small integers and fractions.
func (r *scriptRun) delay() Time {
	b, _ := r.next()
	switch r.mode {
	case 1:
		return Time(b % 3)
	case 2:
		return 1 + Time(r.nextID)/1024 + Time(b)
	}
	switch b % 8 {
	case 0, 1, 2:
		return 0
	case 3:
		return 1
	case 4:
		return 2.5
	case 5:
		return Time(b>>3) / 4
	case 6:
		return Time(b) / 3
	default:
		return 1 + Time(r.nextID)/1024
	}
}

// special decodes one byte into a time at or after now that stresses the
// key order: −0 beside +0, the least subnormal, the next float up, a huge
// finite time and, rarely, +Inf.
func (r *scriptRun) special(now Time) Time {
	b, _ := r.next()
	switch b % 8 {
	case 0:
		if now == 0 {
			return Time(math.Copysign(0, -1))
		}
		return now
	case 1:
		return now + 5e-324
	case 2:
		return Time(math.Nextafter(float64(now), math.Inf(1)))
	case 3:
		return 2*now + 1
	case 4:
		return max(now, 1e300)
	case 5:
		if b>>3 == 0 {
			return Time(math.Inf(1))
		}
	}
	return now + 1.0/3
}

func (r *scriptRun) postArg(t Time) {
	if r.nextID >= maxScriptEvents {
		return
	}
	r.q.postArg(t, r.fired, r.nextID)
	r.nextID++
}

func (r *scriptRun) burst(t Time, n byte) {
	for ; n > 0; n-- {
		r.postArg(t)
	}
}

// show prints a time with −0 as 0: a run fires every event at the time it
// was opened with, the oracle each at its own, and −0 == +0.
func show(t Time) string {
	if t == 0 {
		t = 0
	}
	return fmt.Sprint(t)
}

func (r *scriptRun) fired(now Time, id int) {
	if now != r.q.now() {
		fmt.Fprintf(&r.log, "handler saw %v, clock says %v\n", show(now), show(r.q.now()))
	}
	fmt.Fprintf(&r.log, "fire %v #%d\n", show(now), id)
	b, ok := r.next()
	if !ok {
		return
	}
	switch b % 8 {
	case 2:
		r.postArg(now + r.delay())
	case 3:
		t := now + r.delay()
		r.postArg(t)
		r.postArg(t)
	case 4:
		r.postArg(now)
		r.postArg(now + r.delay())
		r.postArg(now)
	case 5:
		t := now + r.delay()
		n, _ := r.next()
		r.burst(t, n%8)
	case 6:
		r.postArg(now)
	case 7:
		if b == 7 {
			fmt.Fprintf(&r.log, "handler stops\n")
			r.q.stop()
		}
	}
}

func (r *scriptRun) state(what string) {
	fmt.Fprintf(&r.log, "%s now=%v pending=%d steps=%d\n", what, show(r.q.now()), r.q.pending(), r.q.steps())
}

func (r *scriptRun) run() string {
	if b, ok := r.next(); ok {
		r.mode = b % 3
	}
	for {
		op, ok := r.next()
		if !ok {
			break
		}
		now := r.q.now()
		switch op % 8 {
		case 0:
			r.postArg(now + r.delay())
		case 1:
			t := now + r.delay()
			n, _ := r.next()
			r.burst(t, n%16)
		case 2:
			r.state(fmt.Sprintf("runlimit(1)=%v", r.q.runLimit(1)))
		case 3:
			b, _ := r.next()
			r.state(fmt.Sprintf("runlimit(%d)=%v", b%8, r.q.runLimit(uint64(b%8))))
		case 4:
			if b, _ := r.next(); b%4 == 0 {
				r.state(fmt.Sprintf("run=%v", show(r.q.run())))
			} else {
				r.postArg(now)
			}
		case 5:
			if b, _ := r.next(); b%4 == 0 {
				r.q.reset()
				r.state("reset")
			} else {
				r.postArg(now + r.delay())
			}
		case 6:
			if b, _ := r.next(); b%16 == 0 {
				r.q.stop()
				r.state("stop")
			} else {
				r.postArg(r.special(now))
			}
		case 7:
			r.postArg(r.special(now))
		}
	}
	r.state("script end")
	r.state(fmt.Sprintf("drain=%v", r.q.runLimit(4*maxScriptEvents)))
	return r.log.String()
}

// diffScript runs one script on both queues and reports the first line at
// which their logs part.
func diffScript(t *testing.T, script []byte) {
	t.Helper()
	got := (&scriptRun{q: engineQueue(), script: script}).run()
	want := (&scriptRun{q: oracleQueue(), script: script}).run()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("script %x: logs part at line %d:\n  engine %q\n  oracle %q", script, i, g[i], w[i])
		}
	}
	t.Fatalf("script %x: engine logged %d lines, oracle %d", script, len(g), len(w))
}

// TestEngineMatchesOracle drives the run queue and the container/heap
// oracle with the same random op scripts — tie-heavy, all-distinct and
// mixed delay profiles; zero-delay posts from inside handlers; posts into
// the draining run; bursts at one time; −0, subnormal, huge and infinite
// times; RunLimit stopping mid-run; Stop from a handler and from outside;
// Reset mid-drain — and demands identical logs.
func TestEngineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		script := make([]byte, 1+rng.Intn(400))
		rng.Read(script)
		script[0] = byte(i) // every delay profile in turn
		diffScript(t, script)
	}
}

// FuzzEngineOrder is TestEngineMatchesOracle with the fuzzer writing the
// scripts.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 0, 5, 1, 1, 9, 2, 2, 2, 3, 2, 2, 3, 6})              // bursts of ties, then steps
	f.Add([]byte{0, 7, 0, 7, 1, 7, 4, 7, 5, 3, 7, 2, 5, 0, 7, 0, 3, 7})     // −0, subnormal, huge and infinite times
	f.Add([]byte{2, 0, 9, 0, 200, 3, 3, 0, 17, 3, 1, 4, 0, 3, 7})           // distinct times, partial drains between them
	f.Add([]byte{0, 1, 8, 6, 2, 4, 16, 3, 8, 2, 0, 4, 4, 5, 3, 2, 2, 3, 4}) // handlers appending to the draining run
	f.Add([]byte{0, 1, 4, 8, 3, 3, 5, 0, 0, 1, 3, 9, 3, 6, 0, 2, 4, 0})     // reset mid-drain, stop, reuse
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip()
		}
		diffScript(t, script)
	})
}
