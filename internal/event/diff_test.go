package event

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// queue is the scheduling surface an op script drives, bound to either
// the Engine or the oracle.
type queue struct {
	now      func() Time
	at       func(t Time, h Handler) (cancel func() bool)
	post     func(t Time, h Handler)
	postArg  func(t Time, h ArgHandler, arg int)
	step     func() bool
	runUntil func(Time) Time
	runLimit func(uint64) bool
	pending  func() int
	steps    func() uint64
}

func engineQueue() queue {
	g := New()
	return queue{
		now: g.Now,
		at: func(t Time, h Handler) func() bool {
			e := g.At(t, h)
			return func() bool { return g.Cancel(e) }
		},
		post: g.Post, postArg: g.PostArg,
		step: g.Step, runUntil: g.RunUntil, runLimit: g.RunLimit,
		pending: g.Pending, steps: g.Steps,
	}
}

func oracleQueue() queue {
	g := &oracleEngine{}
	return queue{
		now: func() Time { return g.now },
		at: func(t Time, h Handler) func() bool {
			e := g.At(t, h)
			return func() bool { return g.Cancel(e) }
		},
		post:    func(t Time, h Handler) { g.At(t, h) },
		postArg: g.PostArg,
		step:    g.Step, runUntil: g.RunUntil, runLimit: g.RunLimit,
		pending: func() int { return len(g.queue) },
		steps:   func() uint64 { return g.nsteps },
	}
}

// maxScriptEvents bounds the events one script may schedule, so a script
// whose handlers keep re-arming themselves still terminates.
const maxScriptEvents = 1 << 14

// scriptRun interprets an op script against one queue and logs everything
// observable: each fired (time, id), and the result of every Cancel, Step,
// RunUntil and RunLimit with the clock and the pending count after it.
// Handlers read the script too — a fired event decides from the next byte
// whether to schedule children at the current instant, at a shared later
// time (appends to the open run, which may be the one draining) or as a
// cancellable event — so the two interpreters stay in step exactly as
// long as the two queues fire in the same order.
type scriptRun struct {
	q       queue
	script  []byte
	pos     int
	mode    byte // delay profile, from the script's first byte
	nextID  int
	cancels []func() bool
	log     strings.Builder
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

func (r *scriptRun) id() (int, bool) {
	if r.nextID >= maxScriptEvents {
		return 0, false
	}
	r.nextID++
	return r.nextID - 1, true
}

func (r *scriptRun) postArg(t Time) {
	if id, ok := r.id(); ok {
		r.q.postArg(t, r.fired, id)
	}
}

func (r *scriptRun) at(t Time, pooled bool) {
	id, ok := r.id()
	if !ok {
		return
	}
	h := func(now Time) { r.fired(now, id) }
	if pooled {
		r.q.post(t, h)
	} else {
		r.cancels = append(r.cancels, r.q.at(t, h))
	}
}

func (r *scriptRun) fired(now Time, id int) {
	if now != r.q.now() {
		fmt.Fprintf(&r.log, "handler saw %v, clock says %v\n", now, r.q.now())
	}
	fmt.Fprintf(&r.log, "fire %v #%d\n", now, id)
	b, ok := r.next()
	if !ok {
		return
	}
	switch b % 6 {
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
		r.at(now+r.delay(), false)
	}
}

func (r *scriptRun) state(what string) {
	fmt.Fprintf(&r.log, "%s now=%v pending=%d steps=%d\n", what, r.q.now(), r.q.pending(), r.q.steps())
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
			r.at(now+r.delay(), false)
		case 2:
			r.at(now+r.delay(), true)
		case 3:
			if b, _ := r.next(); len(r.cancels) > 0 {
				i := int(b) % len(r.cancels)
				r.state(fmt.Sprintf("cancel[%d]=%v", i, r.cancels[i]()))
			}
		case 4:
			r.state(fmt.Sprintf("step=%v", r.q.step()))
		case 5:
			r.state(fmt.Sprintf("rununtil=%v", r.q.runUntil(now+r.delay())))
		case 6:
			b, _ := r.next()
			r.state(fmt.Sprintf("runlimit=%v", r.q.runLimit(uint64(b%8))))
		case 7:
			t := now + r.delay()
			for b, _ := r.next(); b%16 > 0; b-- {
				r.postArg(t)
			}
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
// mixed delay profiles; zero-delay pushes from inside handlers; pushes
// into the draining run; RunUntil and RunLimit stopping mid-run; Cancel of
// queued, fired and already-cancelled events — and demands identical logs.
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
	f.Add([]byte{1, 7, 0, 5, 7, 1, 9, 4, 4, 4, 5, 2, 4, 6, 3})                // bursts of ties, then steps
	f.Add([]byte{0, 1, 3, 1, 3, 0, 4, 3, 0, 3, 0, 4, 4, 1, 11, 3, 1, 5, 8})   // cancel queued, fired, twice
	f.Add([]byte{2, 0, 9, 0, 200, 5, 40, 0, 17, 6, 1, 5, 3, 6, 7})            // distinct times, RunUntil between them
	f.Add([]byte{0, 7, 8, 6, 4, 4, 16, 3, 8, 4, 0, 4, 4, 5, 3, 4, 4, 4, 4})   // handlers appending to the draining run
	f.Add([]byte{0, 1, 4, 3, 0, 0, 3, 4, 1, 3, 3, 1, 4, 4, 3, 1, 3, 2, 4, 4}) // cancel the head, schedule before it
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip()
		}
		diffScript(t, script)
	})
}
