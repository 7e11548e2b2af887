package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Everything must be inert with no observer installed.
	ctx := context.Background()
	ctx2, span := StartSpan(ctx, "x", A("k", 1))
	if span != nil {
		t.Fatal("StartSpan without an observer returned a live span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without an observer rewrote the context")
	}
	span.SetAttr("a", 2)
	span.End()
	span.End() // idempotent
	if got := span.TID(); got != 0 {
		t.Fatalf("nil span TID = %d", got)
	}
	if Meter(ctx) != nil {
		t.Fatal("Meter on empty context not nil")
	}
	Meter(ctx).Counter("c", "h").Inc()
	Meter(ctx).Gauge("g", "h").Set(1)
	Meter(ctx).Histogram("h", "h", CycleBuckets).Observe(1)
	if Log(ctx) == nil {
		t.Fatal("Log returned nil")
	}
	Log(ctx).Info("discarded")
	var tr *Tracer
	tr.Emit(1, 1, "c", "n", 0, 1, nil)
	tr.NameThread(1, 1, "x")
	if tr.Len() != 0 {
		t.Fatal("nil tracer held events")
	}
	var m *Metrics
	if err := m.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestSpanNestingAndLanes(t *testing.T) {
	o := &Observer{Trace: NewTracer()}
	ctx := NewContext(context.Background(), o)

	ctx1, root := StartSpan(ctx, "campaign", A("app", "swim"))
	ctx2, child := StartSpan(ctx1, "run")
	if root.TID() != child.TID() {
		t.Fatalf("child lane %d != parent lane %d", child.TID(), root.TID())
	}
	if SpanFromContext(ctx2) != child {
		t.Fatal("context does not carry the child span")
	}
	// Detached work starts a fresh lane.
	dctx := Detach(ctx1)
	_, other := StartSpan(dctx, "run")
	if other.TID() == root.TID() {
		t.Fatal("detached span reused the parent lane")
	}
	child.End()
	root.End()
	other.End()

	var buf bytes.Buffer
	if err := o.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int64          `json:"pid"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	byName := map[string]int{}
	for _, e := range got.TraceEvents {
		byName[e.Name]++
		if e.Ph == "X" && e.PID != TracePID {
			t.Fatalf("span event on pid %d", e.PID)
		}
	}
	if byName["campaign"] != 1 || byName["run"] != 2 {
		t.Fatalf("span events = %v", byName)
	}
	for _, e := range got.TraceEvents {
		if e.Name == "campaign" {
			if e.Args["app"] != "swim" {
				t.Fatalf("campaign args = %v", e.Args)
			}
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	o := &Observer{Trace: NewTracer()}
	ctx := NewContext(context.Background(), o)
	_, span := StartSpan(ctx, "once")
	span.End()
	span.End()
	n := 0
	var buf bytes.Buffer
	if err := o.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"once"} {
		n += strings.Count(buf.String(), `"name":"`+line+`"`)
	}
	if n != 1 {
		t.Fatalf("span emitted %d times", n)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lane := tr.Lane()
			for k := 0; k < 100; k++ {
				tr.Emit(TracePID, lane, "c", "e", float64(k), 1, nil)
			}
		}(i)
	}
	wg.Wait()
	// 8 lanes × 100 events + the tracer's own process_name record.
	if got := tr.Len(); got != 801 {
		t.Fatalf("events = %d, want 801", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent trace is not valid JSON")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	tr := NewTracer()
	tr.Emit(TracePID, tr.Lane(), "test", "span", 0, 5, nil)
	path := filepath.Join(t.TempDir(), "trace.json")
	// A stale partial document must be replaced wholesale, never appended
	// to or left half-overwritten.
	if err := os.WriteFile(path, []byte(`{"traceEvents":[{"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteFileAtomic(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatalf("atomic write left invalid JSON: %.100s", raw)
	}
	// No temp files may linger next to the target.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files in target dir: %v", entries)
	}
}

func TestLoggerContext(t *testing.T) {
	var buf bytes.Buffer
	base := NewLogger(&buf, slog.LevelInfo, false)
	o := &Observer{Logger: base}
	ctx := NewContext(context.Background(), o)
	Log(ctx).Info("from observer")
	runCtx := WithLogger(ctx, Log(ctx).With("run", "base_p01_s64"))
	Log(runCtx).Warn("retrying")
	out := buf.String()
	if !strings.Contains(out, "from observer") {
		t.Fatalf("observer logger unused: %q", out)
	}
	if !strings.Contains(out, "run=base_p01_s64") || !strings.Contains(out, "retrying") {
		t.Fatalf("run identity not threaded: %q", out)
	}
	if Log(context.Background()) != nopLogger {
		t.Fatal("empty context did not yield the nop logger")
	}
}

func TestLoggerJSONAndLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelWarn, true)
	l.Info("dropped")
	l.Warn("kept", "k", 7)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("lines = %v", lines)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v", err)
	}
	if rec["msg"] != "kept" || rec["k"] != float64(7) {
		t.Fatalf("record = %v", rec)
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("bad level accepted")
	}
	for s, want := range map[string]slog.Level{"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn, "error": slog.LevelError} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
}
