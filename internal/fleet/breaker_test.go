package fleet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCircuitBreaker: consecutive hard failures open the circuit (calls are
// refused), the cooldown admits exactly one probe, and a probe success
// closes it again.
func TestCircuitBreaker(t *testing.T) {
	b := &breaker{threshold: 3, cooldown: 10 * time.Second}
	clock := time.Unix(1000, 0)

	for i := 0; i < 3; i++ {
		if !b.Allow(clock) {
			t.Fatalf("closed circuit refused call %d", i)
		}
		b.OnFailure(clock)
	}
	if b.Allow(clock) {
		t.Fatal("open circuit let a call through")
	}

	// Cooldown elapses: exactly one probe goes through and closes the
	// circuit on success.
	clock = clock.Add(11 * time.Second)
	if !b.Allow(clock) {
		t.Fatal("half-open probe was not admitted")
	}
	if b.Allow(clock) {
		t.Fatal("a second caller got through while the probe was out")
	}
	b.OnSuccess()
	if !b.Allow(clock) {
		t.Fatal("closed circuit refused a call")
	}

	// A success resets the count: threshold-1 failures, a success, then
	// threshold-1 more must not open the circuit.
	b.OnSuccess()
	for i := 0; i < 2; i++ {
		b.OnFailure(clock)
	}
	b.OnSuccess()
	for i := 0; i < 2; i++ {
		b.OnFailure(clock)
	}
	if !b.Allow(clock) {
		t.Fatal("non-consecutive failures opened the circuit")
	}
}

// TestProbeFailureReopens: a failing half-open probe re-opens the circuit
// for a fresh cooldown.
func TestProbeFailureReopens(t *testing.T) {
	b := &breaker{threshold: 2, cooldown: 10 * time.Second}
	clock := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		b.OnFailure(clock)
	}
	clock = clock.Add(11 * time.Second)
	if !b.Allow(clock) {
		t.Fatal("probe was not admitted after cooldown")
	}
	b.OnFailure(clock)
	// Probe failed → open again, immediately and after half the cooldown.
	if b.Allow(clock) {
		t.Fatal("circuit not re-opened after failed probe")
	}
	if b.Allow(clock.Add(5 * time.Second)) {
		t.Fatal("circuit opened by failed probe did not hold its cooldown")
	}
}

// TestHalfOpenProbeRace: with the circuit open and the cooldown elapsed,
// concurrent callers race for the half-open slot — exactly one escapes as
// the probe, every loser is refused. Run under -race: the breaker's mutex
// is the only thing standing between "one probe" and a thundering herd onto
// a replica that just fell over.
func TestHalfOpenProbeRace(t *testing.T) {
	b := &breaker{threshold: 1, cooldown: 10 * time.Second}
	now := time.Unix(1000, 0)
	b.OnFailure(now) // threshold 1: open immediately
	if b.Allow(now.Add(time.Second)) {
		t.Fatal("open circuit admitted a call inside the cooldown")
	}

	after := now.Add(11 * time.Second)
	const callers = 64
	var admitted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.Allow(after) {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("%d probes escaped the half-open circuit, want exactly 1", got)
	}

	// The probe's failure re-opens; its success closes for everyone.
	b.OnFailure(after)
	if b.Allow(after.Add(time.Second)) {
		t.Fatal("failed probe did not re-open the circuit")
	}
	if !b.Allow(after.Add(12 * time.Second)) {
		t.Fatal("second cooldown refused its probe")
	}
	b.OnSuccess()
	for i := 0; i < 4; i++ {
		if !b.Allow(after.Add(13 * time.Second)) {
			t.Fatalf("closed circuit refused call %d", i)
		}
	}
}
