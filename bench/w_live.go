package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/lsample"
)

const (
	liveBudget    = 0.2 // 120 labels per count at 600 items
	liveThreshold = 5   // HAVING COUNT(*) > 5 ≈ f1 ≥ 72: about 28 % of items
	// recoverSeed is the fixed seed of the estimate compared across the
	// restart.
	recoverSeed = 424242
)

// liveRefresh puts writes beside reads: one caller over a durable
// OpenLiveTable pair (items, events) on the real filesystem with fsync on.
//
//	append  60 %  ApplyDelta of a 1 % events batch, then LiveQuery.Refresh
//	refresh 25 %  Refresh with no delta
//	update  15 %  an update/delete/append batch on items and the expiry of the
//	              oldest events (forcing compaction and invalidating every
//	              memoized label), then Refresh
//
// Expiry removes as many events as were appended since the last update op,
// so the tables keep their size and an op costs the same at the end of a
// run as at its start.
//
// The run ends with Close, OpenLiveDir and a first Refresh. A read-side gain
// that slows ingest or recovery shows here, and this is the only workload
// that executes the delta-priced refresh executor.
type liveRefresh struct {
	cfg           runConfig
	dir           string
	data          *liveData
	items, events *lsample.LiveTable
	sess          *lsample.Session
	lq            *lsample.LiveQuery
	tracer        *lsample.Tracer
	params        map[string]any

	batch      int // rows of one append batch: 1 % of the initial events
	unexpired  int // events appended since the last expiry
	ingestRows int
	ingestTime time.Duration
}

func (w *liveRefresh) classes() [numClasses]string {
	return [numClasses]string{"append", "refresh", "update"}
}
func (w *liveRefresh) clients() int  { return 1 }
func (w *liveRefresh) quality() int  { return w.cfg.sz.quality }
func (w *liveRefresh) served() int64 { return 0 }

func (w *liveRefresh) setup(ctx context.Context) error {
	w.dir = filepath.Join(w.cfg.workDir, "live")
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	w.params = map[string]any{"c": liveThreshold}
	w.data = newLiveData(w.cfg.seed)
	var err error
	if w.items, err = lsample.OpenLiveTable(filepath.Join(w.dir, "items"), "items", schemaItems, "id"); err != nil {
		return err
	}
	if w.events, err = lsample.OpenLiveTable(filepath.Join(w.dir, "events"), "events", schemaEvents, "eid"); err != nil {
		return err
	}
	items, events := w.data.newItems(w.cfg.sz.liveItems)
	w.unexpired = 0
	if w.batch = len(events) / 100; w.batch < 1 {
		w.batch = 1
	}
	if _, err := w.items.ApplyDelta("csv", strings.NewReader(csvItems(items)), 0); err != nil {
		return err
	}
	if _, err := w.events.ApplyDelta("csv", strings.NewReader(csvEvents(events)), 0); err != nil {
		return err
	}
	if w.sess, w.lq, err = openLiveQuery(w.items, w.events); err != nil {
		return err
	}
	w.tracer = lsample.NewTracer(lsample.TracerOptions{SampleRate: 1})

	truth := w.data.liveTruth(liveThreshold)
	if sel := float64(truth) / float64(len(w.data.ids)); sel < 0.05 || sel > 0.5 {
		return fmt.Errorf("selectivity %.2f is far outside the 10–40 %% sizing rule", sel)
	}
	oracle, err := w.sess.PrepareLive(liveSQL)
	if err != nil {
		return err
	}
	e, err := oracle.Refresh(ctx, w.params, lsample.WithMethod("oracle"))
	if err != nil {
		return err
	}
	if int(e.Count) != truth || e.Objects != len(w.data.ids) {
		return fmt.Errorf("ground truth mismatch: brute force %d of %d, program's oracle %v of %d",
			truth, len(w.data.ids), e.Count, e.Objects)
	}
	// The first Refresh of the maintained query is its cold start: part of
	// preparing, like Prepare for a static query.
	_, err = w.lq.Refresh(ctx, w.params, lsample.WithSeed(0))
	return err
}

func openLiveQuery(items, events *lsample.LiveTable) (*lsample.Session, *lsample.LiveQuery, error) {
	src := lsample.NewLiveSource()
	src.AddLive(items)
	src.AddLive(events)
	sess, err := lsample.NewSession(src, lsample.WithMethod("lss"), lsample.WithBudget(liveBudget), lsample.WithParallelism(1))
	if err != nil {
		return nil, nil, err
	}
	lq, err := sess.PrepareLive(liveSQL)
	return sess, lq, err
}

func (w *liveRefresh) warm(ctx context.Context) error {
	err := warmOps(ctx, w)
	w.ingestRows, w.ingestTime = 0, 0
	return err
}

// ingestEvents appends event rows through the reader-based delta API, as
// an ingest endpoint would.
func (w *liveRefresh) ingestEvents(rows []eventRow) error {
	if len(rows) == 0 {
		return nil
	}
	text := csvEvents(rows)
	t0 := time.Now()
	_, err := w.events.ApplyDelta("csv", strings.NewReader(text), 0)
	w.ingestTime += time.Since(t0)
	w.ingestRows += len(rows)
	w.unexpired += len(rows)
	return err
}

// apply sends a keyed update/delete/append batch to a table.
func (w *liveRefresh) apply(t *lsample.LiveTable, b *lsample.DeltaBatch) error {
	t0 := time.Now()
	_, err := t.Apply(b)
	w.ingestTime += time.Since(t0)
	w.ingestRows += b.Len()
	return err
}

func (w *liveRefresh) do(ctx context.Context, _ int, o op, traced bool) (*answer, *span, error) {
	switch o.class {
	case classPrimary:
		if err := w.ingestEvents(w.data.moreEvents(w.batch)); err != nil {
			return nil, nil, err
		}
	case classMinor15:
		var ib, eb lsample.DeltaBatch
		for k := 0; k < 4; k++ {
			it := w.data.touchItem()
			ib.Update(it.id, it.id, it.f1, it.f2)
		}
		ib.Delete(w.data.deleteItem())
		items, events := w.data.newItems(1)
		ib.Append(items[0].id, items[0].f1, items[0].f2)
		if err := w.apply(w.items, &ib); err != nil {
			return nil, nil, err
		}
		if err := w.ingestEvents(events); err != nil {
			return nil, nil, err
		}
		for _, eid := range w.data.expireEvents(w.unexpired) {
			eb.Delete(eid)
		}
		w.unexpired = 0
		if eb.Len() > 0 {
			if err := w.apply(w.events, &eb); err != nil {
				return nil, nil, err
			}
		}
	}
	return w.refresh(ctx, w.lq, o.seed, traced)
}

func (w *liveRefresh) refresh(ctx context.Context, lq *lsample.LiveQuery, seed uint64, traced bool) (*answer, *span, error) {
	opts := []lsample.Option{lsample.WithSeed(seed)}
	if traced {
		opts = append(opts, lsample.WithTracer(w.tracer))
	}
	re, err := lq.Refresh(ctx, w.params, opts...)
	if err != nil {
		return nil, nil, err
	}
	// The label memo makes the evaluation count depend on what earlier
	// refreshes labeled, so it stays out of the repeatable signature.
	ans := answerFromEstimate(&re.Estimate, float64(w.data.liveTruth(liveThreshold)), len(w.data.ids), false)
	return ans, lastTrace(w.tracer, traced), nil
}

// reissue refreshes again with the same seed and no new delta: same pinned
// snapshots, same seed, so the same count and interval.
func (w *liveRefresh) reissue(ctx context.Context, _ int, o op, first *answer) error {
	again, _, err := w.refresh(ctx, w.lq, o.seed, false)
	return matchFirst(first, again, err)
}

// finish restarts the tables: Close, OpenLiveDir, first Refresh. Row counts
// and versions must equal the last acknowledged batch, and a fixed-seed
// estimate from a freshly prepared query must equal its pre-close value.
func (w *liveRefresh) finish(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	if w.ingestTime > 0 {
		out["ingest_rows_per_s"] = float64(w.ingestRows) / w.ingestTime.Seconds()
	}
	_, ref, err := openLiveQuery(w.items, w.events)
	if err != nil {
		return nil, err
	}
	before, _, err := w.refresh(ctx, ref, recoverSeed, false)
	if err != nil {
		return nil, err
	}
	type state struct {
		rows    int
		version uint64
	}
	want := [2]state{{w.items.NumRows(), w.items.Version()}, {w.events.NumRows(), w.events.Version()}}
	if err := w.items.Close(); err != nil {
		return nil, err
	}
	if err := w.events.Close(); err != nil {
		return nil, err
	}

	t0 := time.Now()
	if w.items, err = lsample.OpenLiveDir(filepath.Join(w.dir, "items")); err != nil {
		return nil, fmt.Errorf("recovering items: %w", err)
	}
	if w.events, err = lsample.OpenLiveDir(filepath.Join(w.dir, "events")); err != nil {
		return nil, fmt.Errorf("recovering events: %w", err)
	}
	if w.sess, w.lq, err = openLiveQuery(w.items, w.events); err != nil {
		return nil, err
	}
	after, _, err := w.refresh(ctx, w.lq, recoverSeed, false)
	if err != nil {
		return nil, err
	}
	out["recover_s"] = time.Since(t0).Seconds()

	got := [2]state{{w.items.NumRows(), w.items.Version()}, {w.events.NumRows(), w.events.Version()}}
	if got != want {
		return nil, fmt.Errorf("recovered (rows, version) %v, last acknowledged %v", got, want)
	}
	if after.sig != before.sig {
		return nil, fmt.Errorf("fixed-seed estimate changed across the restart: %s, was %s", after.sig, before.sig)
	}
	return out, after.check()
}

func (w *liveRefresh) teardown() (float64, float64) {
	if w.items != nil {
		w.items.Close() //nolint:errcheck // already closed after a failed finish is fine
		w.items = nil
	}
	if w.events != nil {
		w.events.Close() //nolint:errcheck // as above
		w.events = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir) //nolint:errcheck // scratch
	}
	return 0, 0
}
