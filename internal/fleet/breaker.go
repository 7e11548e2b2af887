package fleet

import (
	"sync"
	"time"
)

// breaker is a consecutive-failure circuit breaker, one per replica.
// Consecutive hard failures open the circuit; while open, the router skips
// the replica instead of piling onto it. After a cooldown one attempt is
// admitted as a probe (half-open): success closes the circuit, failure
// re-opens it for a fresh cooldown. Every Allow that returns true must be
// matched by exactly one OnSuccess or OnFailure for the attempt it
// admitted — the half-open probe slot is reserved by Allow and released
// only by that report.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	failures int
	open     bool
	openedAt time.Time
	probing  bool
}

// Allow reports whether a call may proceed: always while closed, never
// inside the cooldown, and for exactly one probe per cooldown window once
// it has elapsed — under concurrency, one caller wins the probe slot and
// the rest are refused.
func (b *breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if now.Sub(b.openedAt) < b.cooldown || b.probing {
		return false
	}
	b.probing = true // half-open: this caller is the probe
	return true
}

// OnSuccess reports a successful attempt: the circuit closes and the
// failure count resets.
func (b *breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.open = false
	b.probing = false
}

// OnFailure reports a hard failure. A failed half-open probe re-opens the
// circuit for a fresh cooldown; threshold consecutive failures open it.
func (b *breaker) OnFailure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing {
		b.probing = false
		b.openedAt = now
		return
	}
	b.failures++
	if b.failures >= b.threshold && !b.open {
		b.open = true
		b.openedAt = now
	}
}
