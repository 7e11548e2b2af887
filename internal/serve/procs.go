package serve

import (
	"runtime"
	"sync"

	"scaltool/internal/obs"
)

// gov is the process's one P governor. Every Server in a process shares
// GOMAXPROCS, so the count of executing analyses is process-wide: one idle
// Server must not lower it under another's campaign.
var gov governor

// governor makes the process's P count follow its work. The HTTP front end
// (response-cache hits, refusals, queue waits, decode, validate and price)
// runs on one P: on an otherwise idle host a second P only adds the
// scheduler's cost of waking and parking it for every request. An analysis
// borrows the whole CPU budget, the ceiling, from when it takes a worker slot
// until the last executing analysis in the process finishes; its campaign,
// fit, diagnose overlay and encode all run inside that span.
//
// The ceiling is the GOMAXPROCS the governor finds when the first Server is
// built. A GOMAXPROCS it did not set itself, an operator's or a test's
// runtime.GOMAXPROCS call, becomes the new ceiling the next time it looks.
// A call that happens to set the value the governor last set goes unseen.
// With a ceiling of 1 the governor never changes GOMAXPROCS.
type governor struct {
	mu        sync.Mutex
	ceiling   int
	set       int // the GOMAXPROCS the governor last set or adopted; 0 before it first looks
	executing int // analyses holding a worker slot, across every Server
}

// track moves the count of executing analyses by delta (New passes 0,
// admit 1 when an analysis takes a worker slot and -1 when it gives the slot
// back). It adopts an outside GOMAXPROCS as the ceiling, sets GOMAXPROCS to
// the ceiling while any analysis executes and to 1 otherwise, publishes the
// result on gauge, and returns the ceiling, which sizes a Server's default
// worker counts.
func (g *governor) track(delta int, gauge *obs.Gauge) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n := runtime.GOMAXPROCS(0); n != g.set {
		g.ceiling, g.set = n, n
	}
	g.executing += delta
	n := 1
	if g.executing > 0 {
		n = g.ceiling
	}
	if n != g.set {
		runtime.GOMAXPROCS(n)
		g.set = n
	}
	gauge.Set(float64(n))
	return g.ceiling
}
