// Package obs is the repo's observability layer: spans, metrics, and
// structured logging for the campaign → sim → model pipeline, built only on
// the standard library.
//
// Scal-Tool's whole point is attributing lost cycles, and its own pipeline
// deserves the same treatment. An Observer bundles three independent
// facilities, any of which may be nil:
//
//   - Trace — a span tracer exporting Chrome trace_event JSON, loadable in
//     chrome://tracing and Perfetto. Campaign → run form nested spans,
//     beside sim.run and model.fit; internal/sim additionally exports
//     per-processor busy/sync/imb region timelines into the same file.
//   - Metrics — a registry of counters, gauges, and fixed-bucket histograms,
//     serializable as Prometheus text format.
//   - Logger — a log/slog logger; run identity is threaded via context so a
//     failed run is attributable while the campaign is still running.
//
// The Observer travels in a context.Context (NewContext/FromContext) and
// every entry point is nil-safe: code instrumented with StartSpan, Meter,
// and Log runs unchanged — and with negligible overhead — when no observer
// is installed. Instrumentation sits at run/region/fit granularity, never
// inside the simulator's per-access hot loop (see the Obs benchmark and
// BENCH_obs.json for the measured overhead).
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"time"
)

// Observer bundles the three observability facilities. Any field may be nil;
// all consumers are nil-safe.
type Observer struct {
	Trace   *Tracer
	Metrics *Metrics
	Logger  *slog.Logger
}

type ctxKey int

const (
	observerKey ctxKey = iota
	spanKey
	loggerKey
	requestIDKey
)

// NewContext installs an observer in a context.
func NewContext(ctx context.Context, o *Observer) context.Context {
	return context.WithValue(ctx, observerKey, o)
}

// FromContext returns the context's observer, or nil.
func FromContext(ctx context.Context) *Observer {
	o, _ := ctx.Value(observerKey).(*Observer)
	return o
}

// Meter returns the context's metrics registry, or nil (whose methods are
// all no-ops).
func Meter(ctx context.Context) *Metrics {
	if o := FromContext(ctx); o != nil {
		return o.Metrics
	}
	return nil
}

// Log returns the logger for a context: a logger installed with WithLogger
// wins, then the observer's, then a no-op logger. Never nil.
func Log(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok && l != nil {
		return l
	}
	if o := FromContext(ctx); o != nil && o.Logger != nil {
		return o.Logger
	}
	return nopLogger
}

// WithLogger overrides the context's logger — the campaign uses it to thread
// run identity (logger.With("run", id)) into everything a run touches.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey, l)
}

// WithRequestID threads an end-to-end request identity through a context:
// every span opened under it (including on detached worker lanes — Detach
// keeps context values) carries a "req_id" attribute, so one serve request
// links to the campaign, sim, and diagnose spans it caused. The serving
// layer pairs this with WithLogger so log lines carry the same field.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// ValidRequestID reports whether a client-supplied X-Request-Id may be
// honored: 1 to 64 characters from [0-9a-zA-Z_-]. Anything else is replaced
// with a freshly minted id, never reflected into headers or logs.
func ValidRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '-' || c == '_') {
			return false
		}
	}
	return true
}

// ResolveRequestID returns a request's end-to-end trace identity from its
// X-Request-Id header value: a valid client-supplied id is honored (so a
// caller can correlate across services), anything else is replaced by a
// fresh random one. scaltoold and scalrouter both resolve ids this way, so
// an id minted by the router is one the replica honors.
func ResolveRequestID(header string) string {
	if ValidRequestID(header) {
		return header
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r0000000000000000"
	}
	return "r" + hex.EncodeToString(b[:])
}

// RequestIDFrom returns the context's request identity, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value any
}

// A builds an attribute.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Span is one live span. A nil *Span is valid and inert, so callers never
// branch on whether tracing is enabled.
type Span struct {
	tr    *Tracer
	name  string
	tid   int64
	start time.Time
	attrs []Attr
	ended bool
}

// StartSpan opens a span named name. The span nests under the context's
// current span (same trace lane); a context with no span starts a new lane.
// The returned context carries the new span; End emits the trace event.
// With no tracer in the context it returns (ctx, nil).
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	o := FromContext(ctx)
	if o == nil || o.Trace == nil {
		return ctx, nil
	}
	if id := RequestIDFrom(ctx); id != "" {
		// Build a fresh slice: appending to the caller's variadic slice
		// could share a backing array across sibling spans.
		withID := make([]Attr, 0, len(attrs)+1)
		withID = append(withID, attrs...)
		attrs = append(withID, Attr{Key: "req_id", Value: id})
	}
	s := &Span{tr: o.Trace, name: name, start: time.Now(), attrs: attrs}
	if parent, ok := ctx.Value(spanKey).(*Span); ok && parent != nil {
		s.tid = parent.tid
	} else {
		s.tid = o.Trace.Lane()
	}
	return context.WithValue(ctx, spanKey, s), s
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Detach drops the current span from the context while keeping the
// observer. Work handed to another goroutine detaches first, so its spans
// open a fresh trace lane instead of interleaving with the parent's.
func Detach(ctx context.Context) context.Context {
	if SpanFromContext(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, (*Span)(nil))
}

// SetAttr adds an attribute to the span. Safe on nil.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// TID returns the span's trace lane (0 for nil spans).
func (s *Span) TID() int64 {
	if s == nil {
		return 0
	}
	return s.tid
}

// End closes the span and emits its trace event. Safe on nil; idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	var args map[string]any
	if len(s.attrs) > 0 {
		args = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			args[a.Key] = a.Value
		}
	}
	s.tr.Emit(TracePID, s.tid, "span", s.name, s.tr.since(s.start), durMicros(time.Since(s.start)), args)
}

// durMicros converts a duration to trace microseconds.
func durMicros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
