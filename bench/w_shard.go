package main

import (
	"context"
	"fmt"
	"net/http"

	"repro/lsample"
)

// shardRefOps is how many of the first answers are compared with the
// in-process WithShards(1) answer for the same seed.
const shardRefOps = 8

// shardScatter is the only workload with the RPC fabric, the census,
// shard.Drive, buildShardRun and JSON encoding on the blocking path, on
// real cores: a coordinator lsserve plus two worker lsserve children
// (-role, -workers, -shards 2) and one HTTP client issuing cold sharded
// counts over the sdk_cold tables. It bypasses the result cache and the
// unsharded executors.
//
//	lss     60 %  lss COUNT over the skyband
//	srs     25 %  srs COUNT over the EXISTS join
//	grouped 15 %  lss GROUP BY region over the skyband
type shardScatter struct {
	cfg   runConfig
	fix   *sqlFixture
	fleet fleet
	base  string
	hc    *http.Client
	q     prepared       // in-process reference
	refs  map[int]string // stream position → signature of the in-process WithShards(1) answer
}

func (w *shardScatter) classes() [numClasses]string {
	return [numClasses]string{"lss", "srs", "grouped"}
}
func (w *shardScatter) clients() int  { return 1 }
func (w *shardScatter) quality() int  { return w.cfg.sz.quality }
func (w *shardScatter) served() int64 { return w.fleet.counts.Load() }

var (
	shardClassKind   = [numClasses]queryKind{kindSkyband, kindExists, kindGrouped}
	shardClassMethod = [numClasses]string{"lss", "srs", "lss"}
)

func (w *shardScatter) setup(ctx context.Context) error {
	var err error
	if w.fix, err = newSQLFixture(w.cfg.seed, w.cfg.sz.sqlRows); err != nil {
		return err
	}
	w.fleet.counts.Store(0)
	w.hc = newHTTPClient()
	spec := ""
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("w%d", i)
		c, err := startChild(ctx, "shard_scatter-"+name, w.cfg.outDir, "-role=worker")
		if err != nil {
			return err
		}
		w.fleet.children = append(w.fleet.children, c)
		if err := uploadTables(ctx, w.hc, c.base, w.fix); err != nil {
			return err
		}
		if spec != "" {
			spec += ","
		}
		spec += name + "=" + c.base
	}
	coord, err := startChild(ctx, "shard_scatter-coordinator", w.cfg.outDir, "-role=coordinator", "-workers", spec, "-shards", "2")
	if err != nil {
		return err
	}
	w.fleet.children = append(w.fleet.children, coord)
	w.base = coord.base

	if w.q, err = w.fix.prepare(); err != nil {
		return err
	}
	return crossCheckHTTP(ctx, w.hc, w.base, w.fix, func() { w.fleet.counts.Add(1) })
}

// warm computes the in-process WithShards(1) references for the first ops
// of the stream, then runs the default warm-up.
func (w *shardScatter) warm(ctx context.Context) error {
	w.refs = make(map[int]string, shardRefOps)
	for i := 0; i < shardRefOps; i++ {
		o := opAt(w.cfg.seed, i)
		ref, err := w.fix.execute(ctx, w.q, variant{kind: shardClassKind[o.class]}, false,
			lsample.WithMethod(shardClassMethod[o.class]), lsample.WithBudget(sqlBudget),
			lsample.WithSeed(o.seed), lsample.WithShards(1))
		if err != nil {
			return err
		}
		w.refs[i] = ref.sig
	}
	return warmOps(ctx, w)
}

func (w *shardScatter) post(ctx context.Context, class int, seed uint64, traced bool) (*answer, *span, error) {
	v := variant{kind: shardClassKind[class]}
	r, err := postCount(ctx, w.hc, w.base, &countReq{
		SQL: kindSQL[v.kind], Params: w.fix.params(v), Method: shardClassMethod[class],
		Budget: sqlBudget, Seed: seed, Explain: traced,
	})
	if err != nil {
		return nil, nil, err
	}
	w.fleet.counts.Add(1)
	if r.Shards != 2 {
		return nil, nil, fmt.Errorf("answer computed over %d shards, want 2", r.Shards)
	}
	truth, byRegion := w.fix.truth(v)
	// Workers keep per-(query, seed, shard) label memos, so a repeat may
	// spend fewer evaluations; everything else must repeat.
	ans, err := answerFromHTTP(r, truth, byRegion, w.fix.n, false)
	return ans, r.Trace, err
}

func (w *shardScatter) do(ctx context.Context, _ int, o op, traced bool) (*answer, *span, error) {
	ans, tree, err := w.post(ctx, o.class, o.seed, traced)
	if ref, ok := w.refs[o.i]; err == nil && ok && ans.sig != ref {
		err = fmt.Errorf("sharded answer %s differs from the in-process WithShards(1) answer %s", ans.sig, ref)
	}
	return ans, tree, err
}

func (w *shardScatter) reissue(ctx context.Context, _ int, o op, first *answer) error {
	again, _, err := w.post(ctx, o.class, o.seed, false)
	return matchFirst(first, again, err)
}

func (w *shardScatter) finish(context.Context) (map[string]float64, error) { return nil, nil }

func (w *shardScatter) teardown() (float64, float64) {
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
	return w.fleet.stopAll()
}
