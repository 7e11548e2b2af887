package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// nopLogger swallows everything — what Log returns when no observer (or
// logger) is installed, so instrumented code never branches on logging
// being enabled.
var nopLogger = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// ParseLevel maps a -log-level flag value to a slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds a text or JSON-lines logger at the given level.
func NewLogger(w io.Writer, level slog.Level, jsonOut bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if jsonOut {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}
