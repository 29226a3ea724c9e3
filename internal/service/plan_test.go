package service

import (
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/shard"
	"repro/lsample"
)

// TestShapeMemoOneEntryPerText: every shard op and every /v1/count over one
// SQL text reads its shape from one memo entry — a worker parses the text on
// its first op and never again.
func TestShapeMemoOneEntryPerText(t *testing.T) {
	svc, srv := newWorkerServer(t, testTable(120, 7))
	for _, op := range []string{shard.OpMeta, shard.OpScoreAll, shard.OpCountAll} {
		for i := 0; i < 2; i++ {
			if resp, payload := postShard(t, srv, shardReq(op, i, 2)); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s on shard %d: %d %s", op, i, resp.StatusCode, payload)
			}
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for range 2 { // the second is a result-cache hit
			req := &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 10}, Method: "srs", Budget: 0.25, Seed: seed}
			if resp, payload := postJSON(t, srv.URL+"/v1/count", req); resp.StatusCode != http.StatusOK {
				t.Fatalf("count seed %d: %d %s", seed, resp.StatusCode, payload)
			}
		}
	}
	if got := svc.shapes.len(); got != 1 {
		t.Fatalf("one SQL text left %d memo entries, want 1", got)
	}
}

// TestShapeMemoKeysTheText: the memo is keyed by the text, so two spellings
// of one query are two entries — and still one prepared query, which is
// keyed by the shape they share.
func TestShapeMemoKeysTheText(t *testing.T) {
	svc := newTestService(t, 60, Options{})
	respelled := strings.Join(strings.Fields(skybandQuery), " ")
	var fps []string
	for _, text := range []string{skybandQuery, respelled} {
		res, err := svc.Count(&CountRequest{SQL: text, Params: map[string]any{"k": 8}, Method: "srs", Budget: 0.3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, res.Fingerprint)
	}
	if fps[0] != fps[1] {
		t.Fatalf("the respelled query has another shape: %q vs %q", fps[1], fps[0])
	}
	if s, p := svc.shapes.len(), svc.preps.len(); s != 2 || p != 1 {
		t.Fatalf("two texts of one shape: %d memo entries and %d prepared queries, want 2 and 1", s, p)
	}
}

// TestShapeMemoHitResolvesTheSamePlan: a plan resolved from a memo entry
// equals, field for field, the plan a service that never saw the text
// resolves — shape, tables, versions and parameter encoding included — and
// no resolution reorders the shared table list.
func TestShapeMemoHitResolvesTheSamePlan(t *testing.T) {
	reg := NewRegistry()
	reg.Register(testTable(60, 7))
	a, err := lsample.NewTable("A", "id:int")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AppendRow(int64(1)); err != nil {
		t.Fatal(err)
	}
	reg.Register(a)
	// QueryShape lists D before A (first-reference order) and Resolve sorts
	// them: an in-place sort of the memoized list would show.
	const text = `SELECT o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND EXISTS (SELECT id FROM A WHERE id = o1.id)
		GROUP BY o1.id HAVING COUNT(*) < k`
	_, want, err := lsample.QueryShape(text)
	if err != nil {
		t.Fatal(err)
	}
	req := &CountRequest{SQL: text, Params: map[string]any{"k": 30, "unused": "b"}, Method: "lss", Budget: 0.3, Seed: 4}
	svc := New(reg, Options{})
	miss := svc.planOf(t, req)
	hit := svc.planOf(t, req)
	fresh := New(reg, Options{}).planOf(t, req)
	if svc.shapes.len() != 1 {
		t.Fatalf("%d memo entries, want 1", svc.shapes.len())
	}
	for what, p := range map[string]*plan{"memo miss": miss, "memo hit": hit} {
		if !reflect.DeepEqual(p, fresh) {
			t.Errorf("%s resolved\n%+v\nwant the fresh resolution\n%+v", what, p, fresh)
		}
	}
	if len(hit.Tables) != 2 {
		t.Fatalf("the plan pins %d tables, want D and A", len(hit.Tables))
	}
	if sh, _ := svc.shapes.get(text); !slices.Equal(sh.tables, want) {
		t.Fatalf("memoized tables %v, want QueryShape's %v untouched", sh.tables, want)
	}
}

// TestShapeMemoKeepsNoError: a text that does not parse is parsed, and
// refused with the same 400, every time it arrives.
func TestShapeMemoKeepsNoError(t *testing.T) {
	svc, srv := newTestServer(t, 30, Options{})
	var bodies []string
	for range 2 {
		resp, body := postJSON(t, srv.URL+"/v1/count", map[string]any{"sql": "SELEC nope"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("parse error: %d %s", resp.StatusCode, body)
		}
		bodies = append(bodies, string(body))
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("the second refusal differs from the first:\n%s\n%s", bodies[1], bodies[0])
	}
	if got := svc.shapes.len(); got != 0 {
		t.Fatalf("a parse error left %d memo entries", got)
	}
}

// TestShapeMemoBounded: past its capacity the memo evicts, one entry per
// new text.
func TestShapeMemoBounded(t *testing.T) {
	svc := newTestService(t, 10, Options{})
	for i := range maxShapes + 10 {
		svc.planOf(t, &CountRequest{SQL: fmt.Sprintf(`SELECT o1.id FROM D o1, D o2 WHERE o2.x >= o1.x + %d
			GROUP BY o1.id HAVING COUNT(*) < k`, i), Params: map[string]any{"k": 2}})
	}
	if got := svc.shapes.len(); got != maxShapes {
		t.Fatalf("%d texts left %d memo entries, want the capacity %d", maxShapes+10, got, maxShapes)
	}
}

// TestShapeMemoOutlivesIngest: an ingest moves the versions a plan pins —
// the tables are resolved afresh on every request — without evicting the
// text's shape.
func TestShapeMemoOutlivesIngest(t *testing.T) {
	lt, err := lsample.NewLiveTable("D", "id:int,x:float,y:float", "id")
	if err != nil {
		t.Fatal(err)
	}
	var batch lsample.DeltaBatch
	for i := 0; i < 40; i++ {
		batch.Append(int64(i), float64((i*37)%100), float64((i*59)%100))
	}
	if _, err := lt.Apply(&batch); err != nil {
		t.Fatal(err)
	}
	svc := New(NewRegistry(), Options{})
	svc.RegisterLiveTable(lt)
	req := &CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 5}}
	before := svc.planOf(t, req)
	if _, err := svc.Ingest("D", "csv", strings.NewReader("id,x,y\n1000,50,50\n")); err != nil {
		t.Fatal(err)
	}
	if got := svc.shapes.len(); got != 1 {
		t.Fatalf("after an ingest the memo holds %d entries, want 1", got)
	}
	after := svc.planOf(t, req)
	if after.Versions == before.Versions || after.shape != before.shape {
		t.Fatalf("after an ingest: versions %q → %q, shape %q → %q; want new versions, the same shape",
			before.Versions, after.Versions, before.shape, after.shape)
	}
}
