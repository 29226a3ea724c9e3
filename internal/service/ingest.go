package service

import (
	"fmt"
	"io"
	"time"

	"repro/lsample"
)

// RegisterTable registers (or replaces) a static dataset and immediately
// evicts prepared queries pinning snapshots no registered version serves
// anymore — superseded snapshots become collectable at re-registration
// time instead of lingering until some later request happens to prepare.
func (s *Service) RegisterTable(t *lsample.Table) uint64 {
	v := s.Registry.Register(t)
	s.dropStale()
	return v
}

// RegisterLiveTable registers (or replaces) a live dataset, serving its
// current snapshot and accepting /v1/ingest deltas from then on.
func (s *Service) RegisterLiveTable(lt *lsample.LiveTable) uint64 {
	v := s.Registry.RegisterLive(lt)
	s.dropStale()
	return v
}

// IngestResult reports one ingest request: what was committed and the
// dataset version serving it. On durable datasets Durable is true and
// DurableVersion is the table version the write-ahead log had fsynced
// before this response was sent — everything up to it survives a crash.
type IngestResult struct {
	Name           string  `json:"name"`
	Format         string  `json:"format"`
	Appended       int     `json:"appended"`
	Updated        int     `json:"updated"`
	Deleted        int     `json:"deleted"`
	Batches        int     `json:"batches"`
	Rows           int     `json:"rows"` // live rows after the ingest
	Version        uint64  `json:"version"`
	Durable        bool    `json:"durable,omitempty"`
	DurableVersion uint64  `json:"durable_version,omitempty"`
	DurationMS     float64 `json:"duration_ms"`
}

// Ingest stream-parses a delta (format "csv" or "ndjson") into the named
// live dataset in bounded batches, then publishes the new snapshot under a
// fresh version — which is what invalidates every cached result and
// prepared query over the old one. Batches are durable as they apply: a
// mid-stream error (bad line, body over the size limit) keeps the batches
// already committed, re-publishes, and reports the failure; the error
// message carries how many rows were committed first.
func (s *Service) Ingest(name, format string, r io.Reader) (*IngestResult, error) {
	s.m.ingestRequests.Inc()
	lt, ok := s.Registry.Live(name)
	if !ok {
		s.m.ingestErrors.Inc()
		if _, _, exists := s.Registry.Get(name); exists {
			return nil, badf("dataset %q is not live; re-upload it with ?live=1 to enable ingestion", name)
		}
		return nil, badf("unknown dataset %q", name)
	}
	t0 := time.Now()
	apply := s.ingestApply
	if apply == nil {
		apply = func(lt *lsample.LiveTable, format string, r io.Reader) (lsample.DeltaSummary, error) {
			return lt.ApplyDelta(format, r, 0)
		}
	}
	sum, ierr := apply(lt, format, r)
	version := uint64(0)
	repinned := true
	if sum.Batches > 0 {
		// Something committed: publish it (and drop preparations pinning
		// superseded snapshots) whether or not the stream later failed.
		version, repinned = s.Registry.Repin(name, lt)
		s.dropStale()
	}
	s.m.ingestRows.Add(int64(sum.Rows()))
	s.m.ingestBatches.Add(int64(sum.Batches))
	if ierr != nil {
		s.m.ingestErrors.Inc()
		return nil, fmt.Errorf("%w (after committing %d rows in %d batches)", mapSDKErr(ierr), sum.Rows(), sum.Batches)
	}
	if !repinned {
		// The dataset was re-registered while this delta streamed: the rows
		// went to the superseded table and will never be served. Surface
		// the conflict instead of reporting success.
		s.m.ingestErrors.Inc()
		return nil, badf("dataset %q was replaced during the ingest; the delta was not published — retry against the new dataset", name)
	}
	out := &IngestResult{
		Name:       name,
		Format:     format,
		Appended:   sum.Appended,
		Updated:    sum.Updated,
		Deleted:    sum.Deleted,
		Batches:    sum.Batches,
		Rows:       lt.NumRows(),
		Version:    version,
		DurationMS: float64(time.Since(t0)) / 1e6,
	}
	if lt.Durable() {
		// Every applied batch was fsynced before ApplyDelta returned it as
		// committed, so the summary's table version is the durable one.
		out.Durable = true
		out.DurableVersion = sum.Version
	}
	return out, nil
}
