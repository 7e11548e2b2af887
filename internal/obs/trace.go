package obs

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// TracePID is the trace_event process id of the real-time span timeline
// (campaign → run, sim.run, model.fit). Simulated-time timelines (per-processor
// sim region attribution) get their own process ids via NewProcess, so wall
// clocks and cycle clocks never share an axis.
const TracePID = 1

// traceEvent is one Chrome trace_event record. Timestamps and durations are
// microseconds; for simulated timelines the convention is 1 cycle = 1 µs.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the exported JSON object — the format chrome://tracing and
// ui.perfetto.dev load directly.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Tracer collects trace events. All methods are safe for concurrent use.
type Tracer struct {
	start time.Time
	lanes atomic.Int64
	pids  atomic.Int64

	mu     sync.Mutex
	events []traceEvent
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer {
	t := &Tracer{start: time.Now()}
	t.pids.Store(TracePID)
	t.NameProcess(TracePID, "scaltool")
	return t
}

// Lane allocates a fresh thread id on the span process.
func (t *Tracer) Lane() int64 { return t.lanes.Add(1) }

// NewProcess allocates a trace process id and names it — one per simulated
// run timeline.
func (t *Tracer) NewProcess(name string) int64 {
	pid := t.pids.Add(1)
	t.NameProcess(pid, name)
	return pid
}

// since returns the trace timestamp (µs from tracer start) of a wall time.
func (t *Tracer) since(tm time.Time) float64 { return durMicros(tm.Sub(t.start)) }

// Emit appends one complete ("X") event. Safe on nil.
func (t *Tracer) Emit(pid, tid int64, cat, name string, ts, dur float64, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X", TS: ts, Dur: dur, PID: pid, TID: tid, Args: args,
	})
	t.mu.Unlock()
}

// NameProcess emits the process_name metadata record. Safe on nil.
func (t *Tracer) NameProcess(pid int64, name string) {
	t.meta("process_name", pid, 0, name)
}

// NameThread emits the thread_name metadata record. Safe on nil.
func (t *Tracer) NameThread(pid, tid int64, name string) {
	t.meta("thread_name", pid, tid, name)
}

func (t *Tracer) meta(kind string, pid, tid int64, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, traceEvent{
		Name: kind, Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name},
	})
	t.mu.Unlock()
}

// Len returns the number of collected events (metadata included).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON emits the trace_event file.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	out := traceFile{TraceEvents: append([]traceEvent{}, t.events...), DisplayTimeUnit: "ms"}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFileAtomic writes the trace via a temporary file in the target's
// directory, fsyncs it, and renames it into place. A reader never observes
// a truncated or half-written JSON document at path — either the previous
// complete trace or the new one. This is the flush the daemon's signal
// handlers use: a SIGTERM arriving mid-write must not destroy the trace a
// crash investigation depends on.
func (t *Tracer) WriteFileAtomic(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".trace-*.json.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) //scalvet:ignore best-effort cleanup; no-op after the rename succeeds
	if err := t.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
