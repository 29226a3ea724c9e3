package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/learn"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/predicate"
	"repro/internal/qcompile"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/stratify"
	"repro/internal/wal"
	"repro/internal/xrand"
	"repro/lsample"
)

// Layer probes time public functions of single layers directly, on the
// inputs the workloads generate from the same seed: the sdk_cold tables,
// the udf_learn objects, the live_refresh tables. Each probe gets the same
// time budget, split into five repetitions; the reported value is their
// median. Probes run after the traced loop and after the children have
// stopped, so nothing else competes for the cores.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

type prober struct {
	budget time.Duration
	pl     map[string]float64
}

// secondsPerCall times fn: the iteration count is calibrated once to fill a
// fifth of the budget, then five repetitions run and their median per-call
// time is returned.
func (p *prober) secondsPerCall(fn func()) float64 {
	per := p.budget / 5
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		if d >= per/2 || n >= 1<<30 {
			break
		}
		if d < per/20 {
			n *= 10
		} else {
			n = int(float64(n)*float64(per)/float64(d)) + 1
		}
	}
	reps := make([]float64, 5)
	for r := range reps {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		reps[r] = time.Since(t0).Seconds() / float64(n)
	}
	return median(reps)
}

// secondsPerSection is secondsPerCall for a call that needs untimed
// preparation every time: fn returns how long the part that counts took.
func (p *prober) secondsPerSection(fn func() (time.Duration, error)) (float64, error) {
	per := p.budget / 5
	reps := make([]float64, 5)
	for r := range reps {
		var spent time.Duration
		calls := 0
		for start := time.Now(); calls == 0 || time.Since(start) < per; calls++ {
			d, err := fn()
			if err != nil {
				return 0, err
			}
			spent += d
		}
		reps[r] = spent.Seconds() / float64(calls)
	}
	return median(reps), nil
}

func runProbes(ctx context.Context, cfg runConfig, pl map[string]float64) error {
	p := &prober{budget: cfg.sz.probe, pl: pl}
	fix, err := newSQLFixture(cfg.seed, cfg.sz.sqlRows)
	if err != nil {
		return err
	}
	if err := p.sqlProbes(fix); err != nil {
		return fmt.Errorf("sql/engine/qcompile: %w", err)
	}
	if err := p.serviceProbe(ctx, fix); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if err := p.shardProbe(ctx, fix); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := p.udfProbes(ctx, genUDFData(cfg.seed, cfg.sz.udfObjects)); err != nil {
		return fmt.Errorf("learn/stratify/core/par: %w", err)
	}
	if err := p.liveProbes(cfg); err != nil {
		return fmt.Errorf("live/wal: %w", err)
	}
	return nil
}

var (
	datasetD = dataset.Schema{{Name: "id", Kind: dataset.Int}, {Name: "x", Kind: dataset.Float}, {Name: "y", Kind: dataset.Float}, {Name: "region", Kind: dataset.String}}
	datasetR = dataset.Schema{{Name: "key", Kind: dataset.Int}, {Name: "v", Kind: dataset.Float}}
	datasetE = dataset.Schema{{Name: "eid", Kind: dataset.Int}, {Name: "item", Kind: dataset.Int}, {Name: "v", Kind: dataset.Float}}
)

// sqlProbes: parse → fingerprint → decompose → enumerate → interpreter →
// compile → bind → scalar and vector kernels → index extension, on the
// skyband and EXISTS queries over D and R.
func (p *prober) sqlProbes(fix *sqlFixture) error {
	dT, err := dataset.ReadCSV("D", datasetD, strings.NewReader(fix.data.csvD()))
	if err != nil {
		return err
	}
	rT, err := dataset.ReadCSV("R", datasetR, strings.NewReader(fix.data.csvR()))
	if err != nil {
		return err
	}
	cat := engine.Catalog{"D": dT, "R": rT}
	n := float64(fix.n)

	sky, err := sql.Parse(skybandSQL)
	if err != nil {
		return err
	}
	ex, err := sql.Parse(existsSQL)
	if err != nil {
		return err
	}
	p.pl["sql.parse_us"] = 1e6 * p.secondsPerCall(func() { sink, _ = sql.Parse(skybandSQL) })
	strs := map[string]string{"k": fmt.Sprint(fix.ks[0])}
	p.pl["sql.fingerprint_us"] = 1e6 * p.secondsPerCall(func() { sink = sql.Fingerprint(sky, strs) })
	p.pl["engine.decompose_us"] = 1e6 * p.secondsPerCall(func() { sink, _ = engine.Decompose(sky) })

	type shape struct {
		name string
		stmt *sql.SelectStmt
		vals map[string]engine.Value
	}
	shapes := []shape{
		{"skyband", sky, map[string]engine.Value{"k": engine.IntVal(int64(fix.ks[0]))}},
		{"exists", ex, map[string]engine.Value{"t": engine.IntVal(int64(fix.tms[0][0])), "m": engine.IntVal(int64(fix.tms[0][1]))}},
	}
	for _, sh := range shapes {
		dec, err := engine.Decompose(sh.stmt)
		if err != nil {
			return err
		}
		ev := engine.NewEvaluator(cat)
		for name, v := range sh.vals {
			ev.SetParam(name, v)
		}
		objects, err := ev.Run(dec.Objects, nil)
		if err != nil {
			return err
		}
		if objects.NumRows() != fix.n {
			return fmt.Errorf("%s enumerates %d objects, want %d", sh.name, objects.NumRows(), fix.n)
		}
		if sh.name == "skyband" {
			p.pl["engine.enumerate_us_per_kobj"] = 1e6 * p.secondsPerCall(func() { sink, _ = ev.Run(dec.Objects, nil) }) / (n / 1000)
		}
		// One interpreted Q3 evaluation: the unit predicate.build pays for
		// its first-object cross-check on every execution.
		interp, err := predicate.NewEngineExists(ev, dec, objects)
		if err != nil {
			return err
		}
		i := 0
		p.pl["engine.interp_ms_per_eval."+sh.name] = 1e3 * p.secondsPerCall(func() {
			sink = interp.Eval(i % fix.n)
			i++
		})

		prog, err := qcompile.Compile(dec, cat)
		if err != nil {
			return fmt.Errorf("%s does not compile: %w", sh.name, err)
		}
		if sh.name == "exists" {
			// The hash-indexable shape is where compile builds indexes and
			// where Extend has something to patch.
			p.pl["qcompile.compile_ms"] = 1e3 * p.secondsPerCall(func() { sink, _ = qcompile.Compile(dec, cat) })
			p.pl["qcompile.bind_us"] = 1e6 * p.secondsPerCall(func() { sink, _ = prog.Bind(sh.vals, objects) })
			if err := p.extendProbe(dec, dT, rT); err != nil {
				return err
			}
		}
		bound, err := prog.Bind(sh.vals, objects)
		if err != nil {
			return err
		}
		fn := bound.NewEvalFn()
		p.pl["qcompile.scalar_ns_per_eval."+sh.name] = 1e9 * p.secondsPerCall(func() {
			c := 0
			for i := 0; i < fix.n; i++ {
				if fn(i) {
					c++
				}
			}
			sink = c
		}) / n
		vec, idxs, out := bound.NewVecEval(), predicate.AllIndices(fix.n), make([]bool, fix.n)
		p.pl["qcompile.vec_ns_per_eval."+sh.name] = 1e9 * p.secondsPerCall(func() { vec.EvalBatch(idxs, out) }) / n
	}
	return nil
}

// extendProbe times Program.Extend absorbing the last fifth of R into a
// program compiled against the first four fifths. Extend patches the
// program in place, so every repetition compiles a fresh one outside the
// timed section.
func (p *prober) extendProbe(dec *engine.Decomposed, dT, rT *dataset.Table) error {
	old := rT.NumRows() * 4 / 5
	delta := rT.NumRows() - old
	prefix := engine.Catalog{"D": dT, "R": rT.Prefix(old)}
	full := engine.Catalog{"D": dT, "R": rT}
	oldRows := map[string]int{"D": dT.NumRows(), "R": old}
	sec, err := p.secondsPerSection(func() (time.Duration, error) {
		prog, err := qcompile.Compile(dec, prefix)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = prog.Extend(full, oldRows)
		return time.Since(t0), err
	})
	p.pl["qcompile.extend_us_per_row"] = 1e6 * sec / float64(delta)
	return err
}

// serviceProbe times Service.CountCtx in-process on a key the result cache
// already holds: the floor under a serve_mix hit, without HTTP.
func (p *prober) serviceProbe(ctx context.Context, fix *sqlFixture) error {
	d, r, err := fix.tables()
	if err != nil {
		return err
	}
	svc := service.New(service.NewRegistry(), service.Options{Logger: obs.NewLogger(io.Discard)})
	svc.RegisterTable(d)
	svc.RegisterTable(r)
	req := &service.CountRequest{SQL: skybandSQL, Params: fix.params(variant{}), Method: "lss", Budget: sqlBudget, Seed: 1}
	if _, err := svc.CountCtx(ctx, req); err != nil {
		return err
	}
	var cerr error
	p.pl["service.cache_hit_us"] = 1e6 * p.secondsPerCall(func() {
		res, err := svc.CountCtx(ctx, req)
		if err != nil {
			cerr = err
		} else if !res.Cached {
			cerr = fmt.Errorf("repeat of a cached request was not served from the result cache")
		}
	})
	return cerr
}

// shardProbe times shard.Drive over two in-process shard.NewLocal workers
// holding the skyband objects, labels answered from the brute-force truth:
// the sharded protocol and its learning without any RPC or predicate
// construction. shard_scatter's p50 minus this is the fabric's and the
// per-shard fixed cost's share.
func (p *prober) shardProbe(ctx context.Context, fix *sqlFixture) error {
	labels := skybandLabels(fix.data.d, fix.ks[0])
	const shards = 2
	keys := make([][]int64, shards)
	feats := make([][][]float64, shards)
	labelOf := make(map[int64]bool, fix.n)
	for i, pt := range fix.data.d {
		s := shard.OwnerOf(pt.id, shards)
		keys[s] = append(keys[s], pt.id)
		feats[s] = append(feats[s], []float64{pt.x, pt.y})
		labelOf[pt.id] = labels[i]
	}
	label := func(_ context.Context, ks []int64) ([]bool, int, error) {
		out := make([]bool, len(ks))
		for i, k := range ks {
			out[i] = labelOf[k]
		}
		return out, len(ks), nil
	}
	seed := uint64(0)
	var derr error
	p.pl["shard.drive_ms"] = 1e3 * p.secondsPerCall(func() {
		seed++
		trainer := shard.NewTrainer(core.ForestClassifier(1))
		workers := make([]shard.Worker, shards)
		for s := range workers {
			workers[s] = shard.NewLocal(seed, keys[s], feats[s], nil, nil, label, trainer)
		}
		res, err := shard.Drive(ctx, shard.Plan{
			Method: "lss", BudgetOf: func(n int) int { return lsample.EvalBudget(sqlBudget, n) },
			Strata: 4, Seed: seed, Alpha: 0.05,
		}, workers)
		if err != nil {
			derr = err
		} else if res.N != fix.n {
			derr = fmt.Errorf("drive saw %d objects, want %d", res.N, fix.n)
		}
	})
	return derr
}

// udfProbes: forest fit and scoring, the stratification designer, the four
// core estimators over a label-array predicate, and the worker pool.
func (p *prober) udfProbes(ctx context.Context, data *udfData) error {
	labels, _ := udfTruth(data)
	n := len(data.feats)
	budget := lsample.EvalBudget(udfBudget, n)
	newClf := core.ForestClassifier(udfParallelism())

	// Fit on as many labeled objects as one count may label.
	X, y := data.feats[:budget], labels[:budget]
	var ferr error
	p.pl["learn.fit_ms"] = 1e3 * p.secondsPerCall(func() {
		if err := newClf(1).Fit(X, y); err != nil {
			ferr = err
		}
	})
	if ferr != nil {
		return ferr
	}
	clf := newClf(1)
	if err := clf.Fit(X, y); err != nil {
		return err
	}
	p.pl["learn.score_ns_per_obj"] = 1e9 * p.secondsPerCall(func() { sink = learn.ScoreAll(clf, data.feats) }) / float64(n)

	// The designer sees what LSS hands it: every object ranked by score, a
	// pilot of 30 % of the sampling budget spread over the ranks, H = 4.
	scores := learn.ScoreAll(clf, data.feats)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	sampling := budget - budget/4
	nI := int(math.Round(0.3 * float64(sampling)))
	pos, q := make([]int, nI), make([]bool, nI)
	for j := range pos {
		pos[j] = j * n / nI
		q[j] = labels[order[pos[j]]]
	}
	pilot, err := stratify.NewPilot(n, pos, q)
	if err != nil {
		return err
	}
	const H = 4
	minPilot := nI / (3 * H) // LSS's own scaling of the designer's constraints
	if minPilot < 2 {
		minPilot = 2
	}
	if minPilot > 5 {
		minPilot = 5
	}
	cons := stratify.Constraints{MinStratumSize: n / (5 * H), MinPilotPerStratum: minPilot}
	var derr error
	p.pl["stratify.design_ms"] = 1e3 * p.secondsPerCall(func() {
		if sink, err = stratify.DynPgm(pilot, H, sampling-nI, cons); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return derr
	}

	obj, err := core.NewObjectSet(data.feats, predicate.NewLabels(labels))
	if err != nil {
		return err
	}
	methods := []struct {
		name string
		m    core.Method
	}{
		{"core.lss_ms", &core.LSS{NewClassifier: newClf, Strata: H}},
		{"core.lws_ms", &core.LWS{NewClassifier: newClf}},
		{"core.qlcc_ms", &core.QLCC{NewClassifier: newClf}},
		{"core.srs_ms", &core.SRS{}},
	}
	for _, m := range methods {
		seed := uint64(0)
		var merr error
		p.pl[m.name] = 1e3 * p.secondsPerCall(func() {
			seed++
			if _, err := m.m.Estimate(ctx, obj, budget, xrand.New(seed)); err != nil {
				merr = err
			}
		})
		if merr != nil {
			return merr
		}
	}

	// The pool: dispatch cost per item with an empty body, and the speed-up
	// of two workers over one on a CPU-bound body.
	const items = 1 << 14
	p.pl["par.foreach_ns_per_item"] = 1e9 * p.secondsPerCall(func() { par.ForEach(2, items, func(int) {}) }) / items
	acc := make([]float64, items)
	body := func(i int) {
		v := float64(i)
		for k := 0; k < 200; k++ {
			v = math.Sqrt(v*v + 1)
		}
		acc[i] = v
	}
	one := p.secondsPerCall(func() { par.ForEach(1, items, body) })
	two := p.secondsPerCall(func() { par.ForEach(2, items, body) })
	p.pl["par.speedup_2w"] = one / two
	return nil
}

// countingFS wraps the real filesystem and counts the bytes written and
// the fsyncs issued through it.
type countingFS struct {
	wal.FS
	bytes, syncs atomic.Int64
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (f *countingFS) Create(name string) (wal.File, error) {
	inner, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: inner, fs: f}, nil
}

func (f *countingFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// liveProbes: in-memory apply, snapshot publication, durable apply (rows
// per second, fsyncs and bytes written per batch through a counting
// filesystem), one WAL append+commit, and recovery, on the events table of
// live_refresh with its 1 % batches.
func (p *prober) liveProbes(cfg runConfig) error {
	data := newLiveData(cfg.seed)
	_, events := data.newItems(cfg.sz.liveItems)
	toBatch := func(rows []eventRow) *live.Batch {
		b := &live.Batch{Rows: make([]live.Row, len(rows))}
		for i, e := range rows {
			b.Rows[i] = live.Row{Op: live.OpAppend, Vals: []any{e.eid, e.item, e.v}}
		}
		return b
	}
	batchRows := len(events) / 100
	if batchRows < 1 {
		batchRows = 1
	}
	const userBytesPerRow = 24 // two int64s and one float64

	mem, err := live.New("events", datasetE, "eid")
	if err != nil {
		return err
	}
	if _, err := mem.Apply(toBatch(events)); err != nil {
		return err
	}
	var aerr error
	p.pl["live.apply_us_per_row"] = 1e6 * p.secondsPerCall(func() {
		if _, err := mem.Apply(toBatch(data.moreEvents(batchRows))); err != nil {
			aerr = err
		}
	}) / float64(batchRows)
	if aerr != nil {
		return aerr
	}
	// A snapshot right after a write has to be published anew; time only
	// that, not the write.
	sec, err := p.secondsPerSection(func() (time.Duration, error) {
		if _, err := mem.Apply(toBatch(data.moreEvents(1))); err != nil {
			return 0, err
		}
		t0 := time.Now()
		sink = mem.Snapshot()
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	p.pl["live.snapshot_us"] = 1e6 * sec

	dir := filepath.Join(cfg.workDir, "probe-live")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfs := &countingFS{FS: wal.OS}
	opts := live.DurableOptions{FS: cfs}
	dur, err := live.OpenDurable(filepath.Join(dir, "events"), &live.Spec{Name: "events", Schema: datasetE, KeyCol: "eid"}, opts)
	if err != nil {
		return err
	}
	if _, err := dur.Apply(toBatch(events)); err != nil {
		return err
	}
	bytes0, syncs0 := cfs.bytes.Load(), cfs.syncs.Load()
	batches := 0
	perBatch := p.secondsPerCall(func() {
		batches++
		if _, err := dur.Apply(toBatch(data.moreEvents(batchRows))); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		return aerr
	}
	p.pl["live.ingest_rows_per_s"] = float64(batchRows) / perBatch
	p.pl["wal.syncs_per_batch"] = float64(cfs.syncs.Load()-syncs0) / float64(batches)
	p.pl["wal.write_amp"] = float64(cfs.bytes.Load()-bytes0) / float64(batches*batchRows*userBytesPerRow)

	// Recovery: close, then reopen from the directory alone (no checkpoint
	// was taken, so every row comes back through log replay).
	rows := dur.NumRows()
	var recov []float64
	for r := 0; r < 5; r++ {
		if err := dur.Close(); err != nil {
			return err
		}
		t0 := time.Now()
		if dur, err = live.OpenDurable(filepath.Join(dir, "events"), nil, opts); err != nil {
			return err
		}
		recov = append(recov, time.Since(t0).Seconds())
		if dur.NumRows() != rows {
			return fmt.Errorf("recovered %d rows, want %d", dur.NumRows(), rows)
		}
	}
	if err := dur.Close(); err != nil {
		return err
	}
	p.pl["wal.recover_ms_per_krow"] = 1e3 * median(recov) / (float64(rows) / 1000)

	// One log append plus commit (write and fsync) of a batch-sized payload.
	lg, _, err := wal.Open(wal.OS, filepath.Join(dir, "log"), wal.Options{})
	if err != nil {
		return err
	}
	payload := make([]byte, batchRows*userBytesPerRow)
	version := uint64(0)
	var werr error
	p.pl["wal.commit_ms"] = 1e3 * p.secondsPerCall(func() {
		version++
		if err := lg.Append(1, version, payload); err != nil {
			werr = err
		} else if err := lg.Commit(); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	return lg.Close()
}
