package service

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/lsample"
)

// ErrDurability is returned when a live dataset backed by a data directory
// cannot make an ingest durable (fsync failure, closed table). The batch
// was NOT applied — memory and disk never diverge — so the request is safe
// to retry once storage recovers. The HTTP layer maps it to 503 with a
// Retry-After header and error code "unavailable_durability", distinct
// from admission-control rejection ("overloaded").
var ErrDurability = errors.New("service: durability unavailable")

// datasetDir maps a dataset name to its directory under DataDir.
// PathEscape keeps arbitrary dataset names (slashes, dots, unicode) inside
// one flat directory level, and decodes back losslessly on recovery.
func (s *Service) datasetDir(name string) string {
	return filepath.Join(s.opts.DataDir, url.PathEscape(name))
}

// Durable reports whether the service persists live datasets to a data
// directory.
func (s *Service) Durable() bool { return s.opts.DataDir != "" }

// RecoveredDataset describes one live dataset replayed from the data
// directory at startup.
type RecoveredDataset struct {
	Name    string
	Rows    int
	Version uint64 // registry version now serving the recovered snapshot
}

// RecoverDatasets scans the data directory, reopens every durable live
// dataset it holds (restoring the newest checkpoint and replaying the
// write-ahead log), and registers each under a fresh version — so prepared
// queries and cached results pin the recovered state exactly like any
// other registration. Call once at startup, before serving. A corrupt
// dataset fails recovery rather than serving partial data; a missing or
// empty data directory recovers nothing.
func (s *Service) RecoverDatasets() ([]RecoveredDataset, error) {
	if !s.Durable() {
		return nil, nil
	}
	entries, err := os.ReadDir(s.opts.DataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("service: reading data dir: %w", err)
	}
	var out []RecoveredDataset
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.opts.DataDir, e.Name())
		lt, err := lsample.OpenLiveDir(dir)
		if err != nil {
			return out, fmt.Errorf("service: recovering %s: %w", dir, err)
		}
		v := s.RegisterLiveTable(lt)
		out = append(out, RecoveredDataset{Name: lt.Name(), Rows: lt.NumRows(), Version: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// openLiveUpload creates the live table for an uploaded dataset: durable
// under the data directory when one is configured, memory-only otherwise.
// Re-uploading a durable dataset replaces it: the previous table is closed
// and its directory removed, so the new upload starts from a clean log.
func (s *Service) openLiveUpload(name, schema, key string) (*lsample.LiveTable, error) {
	if !s.Durable() {
		return lsample.NewLiveTable(name, schema, key)
	}
	if prev, ok := s.Registry.Live(name); ok && prev.Durable() {
		prev.Close() //nolint:errcheck // superseded; its directory is removed next
	}
	dir := s.datasetDir(name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("%w: clearing %s: %v", ErrDurability, dir, err)
	}
	return lsample.OpenLiveTable(dir, name, schema, key)
}

// Shutdown drains admission — waiting (up to ctx) for in-flight
// estimations to finish and blocking new ones — then checkpoints and
// closes every durable live dataset so the next start recovers from a
// checkpoint instead of a long log replay. Returns the names of the
// datasets persisted, and logs a structured summary line (datasets
// persisted, whether in-flight work drained cleanly, uptime). The
// service must not serve requests afterwards.
func (s *Service) Shutdown(ctx context.Context) ([]string, error) {
	var firstErr error
	// Acquire every admission slot: once held, no estimation is running and
	// none can start. On ctx expiry, persist anyway — a checkpoint racing a
	// straggler estimation is safe (estimations only read snapshots).
	drained := true
	if err := s.admit.drain(ctx); err != nil {
		drained = false
		firstErr = fmt.Errorf("service: shutdown drain: %w", err)
	}

	var persisted []string
	for _, info := range s.Registry.List() {
		lt, ok := s.Registry.Live(info.Name)
		if !ok || !lt.Durable() {
			continue
		}
		if err := lt.Close(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("service: persisting %q: %w", info.Name, err)
			}
			continue
		}
		persisted = append(persisted, info.Name)
	}
	sort.Strings(persisted)
	s.logger.Info(ctx, "shutdown complete",
		"datasets_persisted", len(persisted),
		"persisted", persisted,
		"inflight_drained", drained,
		"requests_served", s.m.requests.Value(),
		"uptime_ms", float64(time.Since(s.started))/1e6)
	return persisted, firstErr
}
