package obs

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"time"
)

// Logger writes one JSON object per line through log/slog: ts (UTC RFC
// 3339), level, msg, the caller's key/value fields in call order, then the
// trace and span ids of the span carried by ctx (when any). Records below
// info are dropped. A nil *Logger discards everything, so call sites never
// guard.
type Logger struct{ sl *slog.Logger }

// NewLogger returns a Logger writing to w.
func NewLogger(w io.Writer) *Logger {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{ReplaceAttr: renameBuiltins})
	return &Logger{sl: slog.New(spanHandler{h})}
}

// Info logs at info level.
func (l *Logger) Info(ctx context.Context, msg string, kv ...any) { l.at(ctx, slog.LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(ctx context.Context, msg string, kv ...any) { l.at(ctx, slog.LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(ctx context.Context, msg string, kv ...any) {
	l.at(ctx, slog.LevelError, msg, kv)
}

func (l *Logger) at(ctx context.Context, level slog.Level, msg string, kv []any) {
	if l != nil {
		l.sl.Log(ctx, level, msg, kv...)
	}
}

// renameBuiltins writes slog's time as "ts" in UTC RFC 3339 and its level
// in lower case. The caller's fields pass through here too, so the value's
// type, not only its key, picks out the built-ins.
func renameBuiltins(_ []string, a slog.Attr) slog.Attr {
	if a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime {
		return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
	}
	if a.Key == slog.LevelKey && a.Value.Kind() == slog.KindAny {
		if lv, ok := a.Value.Any().(slog.Level); ok {
			return slog.String(slog.LevelKey, strings.ToLower(lv.String()))
		}
	}
	return a
}

// spanHandler adds the trace and span ids of the span ctx carries to each
// record. Logger derives no handler, so WithAttrs and WithGroup stay the
// JSON handler's.
type spanHandler struct{ slog.Handler }

func (h spanHandler) Handle(ctx context.Context, r slog.Record) error {
	if sp := FromContext(ctx); sp != nil {
		r.AddAttrs(slog.String("trace_id", sp.TraceID()), slog.String("span_id", sp.SpanID()))
	}
	return h.Handler.Handle(ctx, r)
}
