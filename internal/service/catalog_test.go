package service

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/lsample"
)

// TestCountReuseAndCatalogStats drives the shared reuse catalog through
// the service: the first estimation materializes, an identical request
// (result cache disabled) is served by direct reuse, and a budget bump
// takes the extension path.
func TestCountReuseAndCatalogStats(t *testing.T) {
	svc := newTestService(t, 120, Options{CacheSize: -1})
	req := func(budget float64) *CountRequest {
		return &CountRequest{
			SQL: skybandQuery, Params: map[string]any{"k": 8},
			Method: "lss", Budget: budget, Seed: 3,
		}
	}
	first, err := svc.Count(req(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if first.Reuse != lsample.ReuseNone {
		t.Errorf("first request reuse = %q, want %q", first.Reuse, lsample.ReuseNone)
	}
	second, err := svc.Count(req(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if second.Reuse != lsample.ReuseDirect {
		t.Errorf("identical request reuse = %q, want %q", second.Reuse, lsample.ReuseDirect)
	}
	if second.Estimate != first.Estimate || second.Evals != 0 {
		t.Errorf("direct reuse diverged: estimate %v vs %v, evals %d",
			second.Estimate, first.Estimate, second.Evals)
	}
	ext, err := svc.Count(req(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if ext.Reuse != lsample.ReuseExtension {
		t.Errorf("larger-budget request reuse = %q, want %q", ext.Reuse, lsample.ReuseExtension)
	}
	s := svc.CatalogStats()
	if s.Misses != 1 || s.Hits != 1 || s.Extensions != 1 || s.Entries == 0 {
		t.Errorf("catalog stats = %+v, want 1 miss, 1 hit, 1 extension", s)
	}
}

// TestCountNoCacheBypassesCatalog checks that no_cache keeps its meaning
// under the catalog: the request recomputes from scratch and neither reads
// nor advances the shared catalog's counters.
func TestCountNoCacheBypassesCatalog(t *testing.T) {
	svc := newTestService(t, 100, Options{})
	req := &CountRequest{
		SQL: skybandQuery, Params: map[string]any{"k": 8},
		Method: "lss", Budget: 0.25, Seed: 3, NoCache: true,
	}
	for i := 0; i < 2; i++ {
		res, err := svc.Count(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reuse != lsample.ReuseNone {
			t.Errorf("no_cache run %d reuse = %q, want %q", i, res.Reuse, lsample.ReuseNone)
		}
		if res.Evals == 0 {
			t.Errorf("no_cache run %d spent no evaluations", i)
		}
	}
	if s := svc.CatalogStats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Errorf("no_cache touched the catalog: %+v", s)
	}
}

// TestNoCacheAnswersLikeCached: no_cache changes what a count reads and
// keeps, never the answer. It runs on a label memo of its own, so it takes
// the branch the cached request takes — the hash plan for plain srs, lss
// and oracle counts, sharded or not; the classic body for an unsharded
// GROUP BY — and replies bit for bit what the cached request replies, at
// the evaluation bill of a cold cached run, with the shared catalog
// untouched. A repeat no_cache count runs on the resident executor, whose
// one predicate, cross-checked once, spares it a predicate.build.
func TestNoCacheAnswersLikeCached(t *testing.T) {
	reg := NewRegistry()
	reg.Register(testTable(100, 7))
	reg.Register(groupedTestTable(100, 7))
	type tc struct {
		name     string
		req      CountRequest
		hashPlan bool
	}
	var cases []tc
	for _, method := range []string{"lss", "srs", "oracle"} {
		for _, shards := range []int{0, 2} {
			cases = append(cases, tc{fmt.Sprintf("%s/shards=%d", method, shards), CountRequest{
				SQL: skybandQuery, Params: map[string]any{"k": 8},
				Method: method, Budget: 0.25, Seed: 3, Shards: shards,
			}, true})
		}
	}
	cases = append(cases, tc{"lss/group-by", CountRequest{
		SQL: groupedSkybandQuery, Params: map[string]any{"k": 8},
		Method: "lss", Budget: 0.25, Seed: 3,
	}, false})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			svc := New(reg, Options{})
			cold, err := svc.Count(&c.req)
			if err != nil {
				t.Fatal(err)
			}
			stats := svc.CatalogStats()
			nc := c.req
			nc.NoCache = true
			for i := 0; i < 2; i++ {
				nc.Explain = i == 1
				res, err := svc.Count(&nc)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("no_cache run %d", i)
				sameAnswer(t, what, res, cold)
				if res.Evals != cold.Evals || res.Cached {
					t.Errorf("%s: evals %d (cached %v), want a cold run's %d", what, res.Evals, res.Cached, cold.Evals)
				}
				if !c.hashPlan || !nc.Explain {
					continue
				}
				span := cmp.Or(findSpan(res.Trace, "catalog"), findSpan(res.Trace, "shard.drive"))
				if span == nil || span.Attrs["resident"] != true {
					t.Errorf("%s: no hash-plan span on a resident executor in the trace", what)
				}
				if findSpan(res.Trace, "predicate.build") != nil {
					t.Errorf("%s: the resident executor built its predicate again", what)
				}
			}
			if s := svc.CatalogStats(); s != stats {
				t.Errorf("no_cache touched the shared catalog: %+v, was %+v", s, stats)
			}
		})
	}
}

// TestCatalogDisabled checks that CatalogBytes < 0 turns the subsystem
// off: requests still answer, reuse is always "none", stats stay zero.
func TestCatalogDisabled(t *testing.T) {
	svc := newTestService(t, 80, Options{CacheSize: -1, CatalogBytes: -1})
	req := &CountRequest{
		SQL: skybandQuery, Params: map[string]any{"k": 8},
		Method: "lss", Budget: 0.25, Seed: 3,
	}
	for i := 0; i < 2; i++ {
		res, err := svc.Count(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reuse != lsample.ReuseNone {
			t.Errorf("run %d reuse = %q, want %q", i, res.Reuse, lsample.ReuseNone)
		}
	}
	if s := svc.CatalogStats(); s != (lsample.CatalogStats{}) {
		t.Errorf("disabled catalog has stats %+v", s)
	}
}

// TestIngestEvictsCatalogEntries: publishing a new snapshot version via
// ingest must drop the affected catalog entries, so the next request
// rematerializes against the new data instead of reusing stale artifacts.
func TestIngestEvictsCatalogEntries(t *testing.T) {
	svc, _, _ := newLiveService(t, 150, Options{CacheSize: -1})
	req := &CountRequest{SQL: liveCountSQL, Method: "lss", Budget: 0.3, Seed: 5}
	if _, err := svc.Count(req); err != nil {
		t.Fatal(err)
	}
	if s := svc.CatalogStats(); s.Entries == 0 {
		t.Fatalf("no catalog entry materialized: %+v", s)
	}
	if _, err := svc.Ingest("items", "csv", strings.NewReader(itemsCSV(150, 30))); err != nil {
		t.Fatal(err)
	}
	if s := svc.CatalogStats(); s.Entries != 0 || s.Evictions == 0 {
		t.Errorf("ingest left stale catalog entries: %+v", s)
	}
	res, err := svc.Count(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reuse != lsample.ReuseNone {
		t.Errorf("post-ingest reuse = %q, want %q (old artifacts must not serve new data)",
			res.Reuse, lsample.ReuseNone)
	}
}

// TestHTTPCatalogBlock checks the HTTP surfaces: /v1/count answers carry
// the reuse field and /v1/stats exposes the catalog block.
func TestHTTPCatalogBlock(t *testing.T) {
	_, ts := newTestServer(t, 80, Options{CacheSize: -1})
	req := &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "lss", Budget: 0.25, Seed: 2}
	wantReuse := []string{lsample.ReuseNone, lsample.ReuseDirect}
	for i, want := range wantReuse {
		_, body := postJSON(t, ts.URL+"/v1/count", req)
		var res struct {
			Reuse string `json:"reuse"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Reuse != want {
			t.Errorf("request %d reuse = %q, want %q", i, res.Reuse, want)
		}
	}

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats struct {
		Catalog lsample.CatalogStats `json:"catalog"`
	}
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	c := stats.Catalog
	if c.Entries != 1 || c.Misses != 1 || c.Hits != 1 || c.Bytes <= 0 {
		t.Errorf("stats catalog block = %+v, want 1 entry, 1 miss, 1 hit, positive bytes", c)
	}
}

// TestCountReplyIgnoresWhichParameterCameFirst: a reuse-class request — a
// plan the catalog has seen under another Q3 parameter — gets the reply an
// empty catalog gives it: same estimate and interval, whichever k touched
// the plan's entry first. Only the evaluations differ: k=8's walks settle
// k=12's label for every object with fewer than 8 dominators, so the count
// after it buys fewer.
func TestCountReplyIgnoresWhichParameterCameFirst(t *testing.T) {
	req := func(k int, seed uint64) *CountRequest {
		return &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": k}, Method: "lss", Budget: 0.25, Seed: seed}
	}
	for seed := uint64(1); seed <= 6; seed++ {
		alone, err := newTestService(t, 160, Options{CacheSize: -1}).Count(req(12, seed))
		if err != nil {
			t.Fatal(err)
		}
		svc := newTestService(t, 160, Options{CacheSize: -1})
		if _, err := svc.Count(req(8, seed)); err != nil {
			t.Fatal(err)
		}
		after, err := svc.Count(req(12, seed))
		if err != nil {
			t.Fatal(err)
		}
		if after.Estimate != alone.Estimate || after.CILo != alone.CILo || after.CIHi != alone.CIHi || after.Evals >= alone.Evals {
			t.Errorf("seed %d: k=12 after k=8 answered %v [%v, %v] at %d evals, on an empty catalog %v [%v, %v] at %d (want fewer)",
				seed, after.Estimate, after.CILo, after.CIHi, after.Evals, alone.Estimate, alone.CILo, alone.CIHi, alone.Evals)
		}
		if after.Reuse != lsample.ReuseExtension || svc.CatalogStats().Entries != 1 {
			t.Errorf("seed %d: reuse %q over %d entries, want an extension of the one entry", seed, after.Reuse, svc.CatalogStats().Entries)
		}
	}
}
