package cluster

import (
	"sync"
	"time"
)

// Breaker states. The JSON spellings are part of the /metrics and
// /readyz wire formats.
const (
	// breakerClosed: the peer is trusted; fetches flow.
	breakerClosed = "closed"
	// breakerOpen: too many consecutive failures; fetches are refused
	// locally (fast fallback to a local build) until the cooldown ends.
	breakerOpen = "open"
	// breakerHalfOpen: the cooldown ended and exactly one probe call is
	// allowed through; its outcome closes or re-opens the breaker.
	breakerHalfOpen = "half-open"
)

// breaker is one peer's circuit breaker and the fleet's only failure
// detector: consecutive failed calls — line fetches and fault forwards
// alike — trip it open, a cooldown later a single half-open probe is let
// through, and that probe's outcome decides between closed and another
// open period. While open, every would-be fetch fails instantly — the
// caller pays a local build instead of a deadline wait on a peer that
// has been failing anyway. A restarted peer is readmitted the same way:
// by the first half-open call after the cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injected for tests

	mu       sync.Mutex
	state    string
	fails    int // consecutive failures
	openedAt time.Time
	trips    int64
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       now,
		state:     breakerClosed,
	}
}

// allow reports whether a call may proceed. An open breaker whose
// cooldown has elapsed transitions to half-open and admits this one
// caller as the probe; further callers are refused until the probe
// reports back.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

// success records a completed call: the breaker closes and the failure
// streak resets.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
}

// failure records a failed call: a failed half-open probe re-opens
// immediately, a closed breaker opens once the streak reaches the
// threshold.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= b.threshold) {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.trips++
	}
}

// abandon records a call its caller gave up on: it says nothing about
// the peer, so the streak is left alone. An abandoned half-open probe
// returns the breaker to open without restarting the cooldown, so the
// next call is admitted as the probe instead of being refused forever.
func (b *breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
	}
}

// snapshot returns the state, consecutive-failure count, and trip total.
func (b *breaker) snapshot() (state string, fails int, trips int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// An open breaker past its cooldown is reported open until a call
	// actually probes it; that is the truthful serving state.
	return b.state, b.fails, b.trips
}
