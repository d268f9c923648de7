package cluster

import (
	"testing"
	"time"
)

// fakeClock is an adjustable time source for breaker tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func TestBreakerTripsAfterThreshold(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(3, time.Minute, clk.now)

	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused fetch %d", i)
		}
		b.failure()
	}
	if state, fails, trips := b.snapshot(); state != breakerClosed || fails != 2 || trips != 0 {
		t.Fatalf("below threshold: got (%s, %d, %d)", state, fails, trips)
	}
	b.failure() // third consecutive failure: trip
	if state, _, trips := b.snapshot(); state != breakerOpen || trips != 1 {
		t.Fatalf("at threshold: got state %s, trips %d", state, trips)
	}
	if b.allow() {
		t.Fatal("open breaker admitted a fetch before cooldown")
	}
}

func TestBreakerHalfOpenProbeLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(1, time.Minute, clk.now)
	b.failure()
	if state, _, _ := b.snapshot(); state != breakerOpen {
		t.Fatalf("threshold-1 breaker not open after one failure: %s", state)
	}

	clk.advance(59 * time.Second)
	if b.allow() {
		t.Fatal("breaker admitted a probe before cooldown elapsed")
	}
	clk.advance(2 * time.Second)
	if !b.allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.allow() {
		t.Fatal("second concurrent half-open probe admitted")
	}

	// Failed probe: straight back to open, another full cooldown.
	b.failure()
	if state, _, trips := b.snapshot(); state != breakerOpen || trips != 2 {
		t.Fatalf("failed probe: got state %s, trips %d", state, trips)
	}
	clk.advance(2 * time.Minute)
	if !b.allow() {
		t.Fatal("breaker refused probe after second cooldown")
	}
	b.success()
	if state, fails, _ := b.snapshot(); state != breakerClosed || fails != 0 {
		t.Fatalf("successful probe: got state %s, fails %d", state, fails)
	}
	if !b.allow() {
		t.Fatal("re-closed breaker refused a fetch")
	}
}

func TestBreakerAbandonBooksNothing(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(2, time.Minute, clk.now)
	b.failure()
	b.abandon()
	if state, fails, _ := b.snapshot(); state != breakerClosed || fails != 1 {
		t.Fatalf("abandoned fetch on a closed breaker: got (%s, %d), want (closed, 1)", state, fails)
	}

	// An abandoned half-open probe hands the probe to the next caller at
	// once: no new cooldown, no new trip.
	b.failure()
	clk.advance(2 * time.Minute)
	if !b.allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	b.abandon()
	if state, _, trips := b.snapshot(); state != breakerOpen || trips != 1 {
		t.Fatalf("abandoned probe: got state %s, trips %d, want open, 1", state, trips)
	}
	if !b.allow() {
		t.Fatal("the next caller was refused the probe an abandoned one left")
	}
}
