package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Level is a log severity.
type Level int

// Severities, lowest to highest.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "info"
	}
}

// Logger writes one JSON object per line: ts, level, msg, the trace and
// span ids of the span carried by ctx (when any), then the caller's
// key/value fields in call order. A nil *Logger discards everything, so
// call sites never guard.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
}

// NewLogger returns a Logger writing to w at LevelInfo and above.
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: w, min: LevelInfo}
}

// Info logs at LevelInfo.
func (l *Logger) Info(ctx context.Context, msg string, kv ...any) { l.log(LevelInfo, ctx, msg, kv...) }

// Error logs at LevelError.
func (l *Logger) Error(ctx context.Context, msg string, kv ...any) {
	l.log(LevelError, ctx, msg, kv...)
}

func (l *Logger) log(level Level, ctx context.Context, msg string, kv ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	min := l.min
	l.mu.Unlock()
	if level < min {
		return
	}

	buf := make([]byte, 0, 256)
	buf = append(buf, `{"ts":`...)
	buf = appendJSON(buf, time.Now().UTC().Format(time.RFC3339Nano))
	buf = append(buf, `,"level":`...)
	buf = appendJSON(buf, level.String())
	buf = append(buf, `,"msg":`...)
	buf = appendJSON(buf, msg)
	if sp := FromContext(ctx); sp != nil {
		buf = append(buf, `,"trace_id":`...)
		buf = appendJSON(buf, sp.TraceID())
		buf = append(buf, `,"span_id":`...)
		buf = appendJSON(buf, sp.SpanID())
	}
	for i := 0; i < len(kv); i += 2 {
		key, ok := "", false
		if i+1 < len(kv) {
			key, ok = kv[i].(string)
		}
		if !ok {
			buf = append(buf, `,"!badkey":`...)
			buf = appendJSON(buf, fmt.Sprint(kv[i:]))
			break
		}
		buf = append(buf, ',')
		buf = appendJSON(buf, key)
		buf = append(buf, ':')
		buf = appendJSON(buf, kv[i+1])
	}
	buf = append(buf, '}', '\n')

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w != nil {
		l.w.Write(buf)
	}
}

// appendJSON appends v marshaled as JSON, falling back to the quoted
// fmt rendering for values encoding/json rejects.
func appendJSON(buf []byte, v any) []byte {
	if err, ok := v.(error); ok {
		v = err.Error()
	}
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprint(v))
	}
	return append(buf, b...)
}
