// Package admission is the serving path's resource gate: it decides, before
// any simulation starts, whether a request's predicted cost fits the
// server's budgets — and refuses with a machine-readable, correctly-typed
// rejection when it does not.
//
// The threat model is untrusted traffic (DESIGN.md §13). A hostile client
// can ask for an enormous processor count, a dataset that dwarfs memory, or
// a user-submitted program whose build alone would allocate gigabytes.
// Shedding that work *before* it is admitted is what keeps the daemon on the
// scalable part of its own curve: under overload, queueing unbounded work
// converts throughput into retrograde latency (Gunther's USL), and one
// admitted OOM kills every in-flight request with it.
//
// Three layers, cheapest first:
//
//  1. Shape — hard caps on the request document itself (processor count,
//     dataset bytes, program-spec sizes). Violations are semantic: 422.
//  2. Per-request cost — a cost estimator predicts the simulated cycles,
//     allocation footprint, and retained timeline bytes of the full 2n−1-run
//     campaign the request implies (regions × processors × dataset
//     fraction). A request over its budget is too large: 413.
//  3. Per-server cost — a ledger tracks the predicted cost of everything
//     admitted and still executing. A request that fits its own budget but
//     would push the server past its aggregate budget is shed: 429, and
//     worth retrying once the ledger drains.
//
// The estimates are deliberately pessimistic upper bounds (every memory
// access charged as an L2 hit, every barrier charged its hot-spot
// serialization). Budgets are calibrated against the same estimator, so the
// slack is consistent: the default budgets admit every built-in application
// at the default machine with an order of magnitude to spare.
package admission

import (
	"fmt"
	"net/http"
	"sync"
)

// Rejection is a machine-readable admission refusal. Status is the HTTP
// status the refusal maps to: 413 (request over its own budget), 422
// (semantically invalid shape), or 429 (server budget exhausted; retryable).
type Rejection struct {
	Status int    `json:"-"`
	Code   string `json:"code"`   // stable machine-readable cause, e.g. "cost_cycles"
	Detail string `json:"detail"` // human-readable explanation
}

// Error implements error.
func (r *Rejection) Error() string { return r.Detail }

// Reject builds a rejection.
func Reject(status int, code, format string, args ...any) *Rejection {
	return &Rejection{Status: status, Code: code, Detail: fmt.Sprintf(format, args...)}
}

// Cost is the predicted resource footprint of admitting one request — the
// unit both budgets and the ledger account in.
type Cost struct {
	// Cycles is the predicted simulated-cycle total across every run of the
	// request's campaign, summed over processors (an upper bound; this is
	// the unit CPU time scales with).
	Cycles float64
	// AllocBytes is the predicted peak allocation footprint: simulator cache
	// and directory state, gather address lists, and retained results.
	AllocBytes int64
	// TimelineBytes is the retained per-region × per-processor timeline and
	// counter data of the campaign's results (what the run cache will hold).
	TimelineBytes int64
	// Runs counts the campaign's planned simulation runs.
	Runs int
}

// Budget bounds what one request may cost and what the server will hold in
// flight. Zero fields select the defaults.
type Budget struct {
	// MaxProcs caps the processor count a request may analyze: the campaign
	// is 2n−1 runs and 2^n+n−2 simulated processors, so this is the
	// steepest-growing knob a client controls.
	MaxProcs int
	// MaxS0Bytes caps the requested dataset size, checked before anything is
	// built — program builders allocate address lists proportional to the
	// dataset, so this bound is what makes cost estimation itself safe.
	MaxS0Bytes uint64
	// MaxRequestCycles caps one request's predicted simulated cycles.
	MaxRequestCycles float64
	// MaxRequestBytes caps one request's predicted allocation footprint.
	MaxRequestBytes int64
	// MaxServerCycles caps the predicted cycles of all admitted in-flight
	// requests together.
	MaxServerCycles float64
	// MaxServerBytes caps the predicted allocation footprint of all admitted
	// in-flight requests together — the daemon's memory budget.
	MaxServerBytes int64
}

// Default budgets: every built-in application at the default (scaled)
// machine and ≤ 64 processors fits its request budget with ≥ 10× headroom,
// and the server comfortably holds a handful of worst-case requests.
const (
	DefaultMaxProcs         = 64
	DefaultMaxS0Bytes       = 1 << 28 // 256 MiB dataset
	DefaultMaxRequestCycles = 4e12
	DefaultMaxRequestBytes  = 512 << 20
	DefaultMaxServerCycles  = 16e12
	DefaultMaxServerBytes   = 2 << 30
)

// DefaultBudget returns the default budgets.
func DefaultBudget() Budget {
	return Budget{
		MaxProcs:         DefaultMaxProcs,
		MaxS0Bytes:       DefaultMaxS0Bytes,
		MaxRequestCycles: DefaultMaxRequestCycles,
		MaxRequestBytes:  DefaultMaxRequestBytes,
		MaxServerCycles:  DefaultMaxServerCycles,
		MaxServerBytes:   DefaultMaxServerBytes,
	}
}

// withDefaults fills zero fields.
func (b Budget) withDefaults() Budget {
	d := DefaultBudget()
	if b.MaxProcs <= 0 {
		b.MaxProcs = d.MaxProcs
	}
	if b.MaxS0Bytes == 0 {
		b.MaxS0Bytes = d.MaxS0Bytes
	}
	if b.MaxRequestCycles <= 0 {
		b.MaxRequestCycles = d.MaxRequestCycles
	}
	if b.MaxRequestBytes <= 0 {
		b.MaxRequestBytes = d.MaxRequestBytes
	}
	if b.MaxServerCycles <= 0 {
		b.MaxServerCycles = d.MaxServerCycles
	}
	if b.MaxServerBytes <= 0 {
		b.MaxServerBytes = d.MaxServerBytes
	}
	return b
}

// CheckShape is the cheap pre-build gate: processor count and dataset size
// against their hard caps. procs must already be validated as a power of two
// by the request decoder; s0 == 0 means "the application's default" and is
// checked by the caller once resolved.
func (b Budget) CheckShape(procs int, s0 uint64) *Rejection {
	b = b.withDefaults()
	if procs > b.MaxProcs {
		return Reject(http.StatusUnprocessableEntity, "procs_cap",
			"procs %d exceeds this server's limit of %d", procs, b.MaxProcs)
	}
	if s0 > b.MaxS0Bytes {
		return Reject(http.StatusRequestEntityTooLarge, "s0_budget",
			"dataset size %d exceeds this server's per-request budget of %d bytes", s0, b.MaxS0Bytes)
	}
	return nil
}

// CheckRequest gates one request's predicted cost against the per-request
// budget: over-budget work is 413, too large for this server by policy.
func (b Budget) CheckRequest(c Cost) *Rejection {
	b = b.withDefaults()
	if c.Cycles > b.MaxRequestCycles {
		return Reject(http.StatusRequestEntityTooLarge, "cost_cycles",
			"predicted %.3g simulated cycles exceed the per-request budget of %.3g", c.Cycles, b.MaxRequestCycles)
	}
	if c.AllocBytes > b.MaxRequestBytes {
		return Reject(http.StatusRequestEntityTooLarge, "cost_bytes",
			"predicted %d-byte allocation footprint exceeds the per-request budget of %d", c.AllocBytes, b.MaxRequestBytes)
	}
	return nil
}

// Ledger tracks the predicted cost of admitted, still-executing requests
// against the server-wide budget. Safe for concurrent use.
type Ledger struct {
	budget Budget

	mu     sync.Mutex
	cycles float64
	bytes  int64
	n      int
}

// NewLedger builds a ledger for a budget (zero fields take defaults).
func NewLedger(b Budget) *Ledger {
	return &Ledger{budget: b.withDefaults()}
}

// Budget returns the ledger's effective (default-filled) budget.
func (l *Ledger) Budget() Budget { return l.budget }

// TryAdmit reserves a request's cost against the server budget, or rejects
// with a 429-shaped refusal — the request is fine, the server is full, and a
// retry after the ledger drains will succeed. Callers must Release exactly
// once per successful TryAdmit.
func (l *Ledger) TryAdmit(c Cost) *Rejection {
	l.mu.Lock()
	defer l.mu.Unlock()
	// n == 0 bypasses the aggregate check so a single request within its own
	// per-request budget is never livelocked by an over-tight server budget.
	if l.n > 0 {
		if l.cycles+c.Cycles > l.budget.MaxServerCycles {
			return Reject(http.StatusTooManyRequests, "server_cycles",
				"admitting %.3g predicted cycles would exceed the server budget (%.3g of %.3g in flight)",
				c.Cycles, l.cycles, l.budget.MaxServerCycles)
		}
		if l.bytes+c.AllocBytes > l.budget.MaxServerBytes {
			return Reject(http.StatusTooManyRequests, "server_bytes",
				"admitting a %d-byte footprint would exceed the server budget (%d of %d bytes in flight)",
				c.AllocBytes, l.bytes, l.budget.MaxServerBytes)
		}
	}
	l.cycles += c.Cycles
	l.bytes += c.AllocBytes
	l.n++
	return nil
}

// Release returns an admitted request's cost to the ledger.
func (l *Ledger) Release(c Cost) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cycles -= c.Cycles
	l.bytes -= c.AllocBytes
	l.n--
	if l.n < 0 || l.cycles < 0 || l.bytes < 0 { // release without admit is a caller bug; clamp, don't corrupt
		l.cycles, l.bytes, l.n = 0, 0, 0
	}
}

// InFlight reports the ledger's current occupancy.
func (l *Ledger) InFlight() (cycles float64, bytes int64, requests int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cycles, l.bytes, l.n
}
