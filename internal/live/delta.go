package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
)

// Format selects the wire encoding of a delta stream.
type Format int

// Format values.
const (
	// CSV is a header row matching the schema followed by append rows. CSV
	// deltas are append-only; use NDJSON for updates and deletes.
	CSV Format = iota
	// NDJSON is one JSON object per line:
	//
	//	{"op":"append","row":{"id":7,"x":1.5}}
	//	{"op":"update","key":3,"row":{"id":3,"x":2.0}}
	//	{"op":"delete","key":5}
	//
	// "op" defaults to "append" when omitted. Rows must bind every schema
	// column exactly once; unknown fields are errors.
	NDJSON Format = iota
)

// ParseFormat converts a wire name ("csv" or "ndjson") to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "csv":
		return CSV, nil
	case "ndjson", "jsonl":
		return NDJSON, nil
	}
	return CSV, fmt.Errorf("live: unknown delta format %q (want csv or ndjson)", s)
}

func (f Format) String() string {
	if f == NDJSON {
		return "ndjson"
	}
	return "csv"
}

// DefaultChunk is the batch size ParseDelta uses when the caller passes 0:
// large enough to amortize per-batch locking and version bumps, small
// enough that ingestion memory stays bounded by the chunk, not the stream.
const DefaultChunk = 4096

// maxLine bounds one NDJSON line (1 MiB), keeping per-line memory bounded
// for arbitrary input.
const maxLine = 1 << 20

// ParseDelta stream-parses a delta in the given format against the schema,
// accumulating at most chunk rows (0 means DefaultChunk) before invoking
// apply with a batch. The whole stream is never buffered: memory use is
// bounded by one chunk. Batches handed to apply before an error are already
// applied — a mid-stream failure reports what was committed via the
// returned summary alongside the error, mirroring how a durable ingest
// endpoint behaves.
func ParseDelta(schema dataset.Schema, format Format, r io.Reader, chunk int, apply func(*Batch) error) (Summary, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	var (
		total Summary
		rows  []Row
	)
	flush := func() error {
		if len(rows) == 0 {
			return nil
		}
		b := &Batch{Rows: rows}
		err := apply(b)
		rows = nil
		if err != nil {
			return err
		}
		for _, r := range b.Rows {
			switch r.Op {
			case OpAppend:
				total.Appended++
			case OpUpdate:
				total.Updated++
			case OpDelete:
				total.Deleted++
			}
		}
		total.Batches++
		return nil
	}
	emit := func(row Row) error {
		rows = append(rows, row)
		if len(rows) >= chunk {
			return flush()
		}
		return nil
	}

	var err error
	switch format {
	case CSV:
		err = dataset.ReadCSVRows(schema, r, func(vals []any) error { return emit(Row{Op: OpAppend, Vals: vals}) })
	case NDJSON:
		err = parseNDJSONDelta(schema, r, emit)
	default:
		return total, fmt.Errorf("live: unknown delta format %d", int(format))
	}
	if err != nil {
		return total, err
	}
	return total, flush()
}

// ndjsonOp is the wire form of one NDJSON delta line.
type ndjsonOp struct {
	Op  string          `json:"op"`
	Key *int64          `json:"key"`
	Row json.RawMessage `json:"row"`
}

// parseNDJSONDelta reads one operation per line.
func parseNDJSONDelta(schema dataset.Schema, r io.Reader, emit func(Row) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var op ndjsonOp
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&op); err != nil {
			return fmt.Errorf("live: NDJSON line %d: %w", line, err)
		}
		var out Row
		switch op.Op {
		case "", "append":
			out.Op = OpAppend
		case "update":
			out.Op = OpUpdate
		case "delete":
			out.Op = OpDelete
		default:
			return fmt.Errorf("live: NDJSON line %d: unknown op %q", line, op.Op)
		}
		if out.Op == OpDelete {
			if op.Key == nil {
				return fmt.Errorf("live: NDJSON line %d: delete requires a key", line)
			}
			if len(op.Row) != 0 {
				return fmt.Errorf("live: NDJSON line %d: delete must not carry a row", line)
			}
			out.Key = *op.Key
		} else {
			if len(op.Row) == 0 {
				return fmt.Errorf("live: NDJSON line %d: %s requires a row", line, out.Op)
			}
			vals, err := decodeRow(schema, op.Row)
			if err != nil {
				return fmt.Errorf("live: NDJSON line %d: %w", line, err)
			}
			out.Vals = vals
			if out.Op == OpUpdate {
				if op.Key == nil {
					return fmt.Errorf("live: NDJSON line %d: update requires a key", line)
				}
				out.Key = *op.Key
			}
		}
		if err := emit(out); err != nil {
			return err
		}
	}
	return sc.Err()
}

// decodeRow binds a JSON object's fields to schema columns, requiring an
// exact match: every column present, no extras, kinds compatible (JSON
// numbers bind to int columns only when integral).
func decodeRow(schema dataset.Schema, raw json.RawMessage) ([]any, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("row: %w", err)
	}
	if len(m) != len(schema) {
		return nil, fmt.Errorf("row has %d fields, schema has %d columns", len(m), len(schema))
	}
	vals := make([]any, len(schema))
	for i, c := range schema {
		rv, ok := m[c.Name]
		if !ok {
			return nil, fmt.Errorf("row is missing column %q", c.Name)
		}
		switch c.Kind {
		case dataset.Float:
			f, ok := rv.(float64)
			if !ok {
				return nil, fmt.Errorf("column %q wants a number, got %T", c.Name, rv)
			}
			vals[i] = f
		case dataset.Int:
			f, ok := rv.(float64)
			if !ok || f != math.Trunc(f) || math.Abs(f) >= 1<<53 {
				return nil, fmt.Errorf("column %q wants an integer, got %v", c.Name, rv)
			}
			vals[i] = int64(f)
		case dataset.String:
			s, ok := rv.(string)
			if !ok {
				return nil, fmt.Errorf("column %q wants a string, got %T", c.Name, rv)
			}
			vals[i] = s
		}
	}
	return vals, nil
}
