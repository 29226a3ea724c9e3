package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/lsample"
)

// newDurableServer returns a data-dir-backed service and its HTTP server.
func newDurableServer(t *testing.T, dataDir string, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	opts.DataDir = dataDir
	svc := New(NewRegistry(), opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// TestServiceDataDirRecovery is the serving-layer recovery acceptance test:
// upload a live dataset, ingest deltas, estimate; shut down (flushing and
// checkpointing the WAL); start a fresh service over the same data
// directory, recover, and require the same rows, a byte-identical estimate,
// and ingestion that resumes on the recovered version chain.
func TestServiceDataDirRecovery(t *testing.T) {
	dataDir := t.TempDir()
	countReq := &CountRequest{
		SQL:    `SELECT t1.id FROM tanks t1, tanks t2 WHERE t2.level >= t1.level GROUP BY t1.id HAVING COUNT(*) < 3`,
		Method: "srs", Budget: 0.5, Seed: 9,
	}

	var wantEstimate, wantEvals = 0.0, int64(0)
	var wantRows int
	var wantDurableVersion uint64
	{
		svc, ts := newDurableServer(t, dataDir, Options{})
		resp, err := http.Post(ts.URL+"/v1/datasets?name=tanks&schema=id:int,level:float&live=1&key=id",
			"text/csv", strings.NewReader("id,level\n1,10\n2,60\n3,80\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("live upload status %d", resp.StatusCode)
		}
		resp, err = http.Post(ts.URL+"/v1/ingest?name=tanks", "text/csv",
			strings.NewReader("id,level\n4,90\n5,30\n6,70\n"))
		if err != nil {
			t.Fatal(err)
		}
		var ing IngestResult
		if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !ing.Durable || ing.DurableVersion == 0 {
			t.Fatalf("ingest on a data-dir service not durable: %+v", ing)
		}
		wantDurableVersion = ing.DurableVersion

		res, err := svc.Count(countReq)
		if err != nil {
			t.Fatal(err)
		}
		wantEstimate, wantEvals = res.Estimate, res.Evals
		lt, _ := svc.Registry.Live("tanks")
		wantRows = lt.NumRows()

		persisted, err := svc.Shutdown(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(persisted) != 1 || persisted[0] != "tanks" {
			t.Fatalf("persisted %v, want [tanks]", persisted)
		}
	}

	svc2, ts2 := newDurableServer(t, dataDir, Options{})
	recovered, err := svc2.RecoverDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Name != "tanks" || recovered[0].Rows != wantRows {
		t.Fatalf("recovered %+v, want tanks with %d rows", recovered, wantRows)
	}
	res, err := svc2.Count(countReq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != wantEstimate || res.Evals != wantEvals {
		t.Fatalf("recovered estimate %v/%d evals, want %v/%d — recovery changed the snapshot",
			res.Estimate, res.Evals, wantEstimate, wantEvals)
	}
	// Ingestion resumes on the recovered version chain: the durable table
	// version strictly extends the pre-restart one.
	resp, err := http.Post(ts2.URL+"/v1/ingest?name=tanks", "text/csv",
		strings.NewReader("id,level\n7,55\n"))
	if err != nil {
		t.Fatal(err)
	}
	var ing IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ing.Durable || ing.DurableVersion <= wantDurableVersion {
		t.Fatalf("post-recovery ingest %+v does not extend durable version %d", ing, wantDurableVersion)
	}
	if _, err := svc2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServiceDurableUploadReplaces: re-uploading a durable dataset starts a
// clean directory rather than replaying the previous incarnation's log.
func TestServiceDurableUploadReplaces(t *testing.T) {
	_, ts := newDurableServer(t, t.TempDir(), Options{})
	upload := func(csv string) DatasetInfo {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/datasets?name=tanks&schema=id:int,level:float&live=1&key=id",
			"text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("upload status %d: %s", resp.StatusCode, b)
		}
		var info DatasetInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	upload("id,level\n1,10\n2,20\n3,30\n")
	info := upload("id,level\n1,99\n")
	if info.Rows != 1 {
		t.Fatalf("re-upload serves %d rows, want 1 — old log replayed into the new dataset?", info.Rows)
	}
}

// TestIngestDurabilityFaultMaps503: a durability failure during ingest
// surfaces as 503 with error code unavailable_durability and a Retry-After
// hint — distinct from admission-control "overloaded" — and publishes
// nothing.
func TestIngestDurabilityFaultMaps503(t *testing.T) {
	svc, _, _ := newLiveService(t, 50, Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	_, v0, _ := svc.Registry.Get("items")
	svc.ingestApply = func(lt *lsample.LiveTable, format string, r io.Reader) (lsample.DeltaSummary, error) {
		return lsample.DeltaSummary{}, fmt.Errorf("%w: fsync failed", lsample.ErrUnavailable)
	}

	resp, err := http.Post(ts.URL+"/v1/ingest?name=items", "text/csv", strings.NewReader(itemsCSV(1000, 5)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "unavailable_durability" {
		t.Fatalf("error code %q, want unavailable_durability", env.Error.Code)
	}
	if _, v1, _ := svc.Registry.Get("items"); v1 != v0 {
		t.Fatalf("failed ingest republished the dataset (version %d -> %d)", v0, v1)
	}
}

// TestShutdownDrainsAdmission: Shutdown waits for in-flight work, blocks
// new admissions afterwards, and reports a drain timeout when an
// estimation does not finish in time (while still persisting datasets).
func TestShutdownDrainsAdmission(t *testing.T) {
	svc := newTestService(t, 50, Options{MaxInFlight: 2, QueueTimeout: 50 * time.Millisecond})
	if _, err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Admission is saturated: new estimations time out with ErrBusy.
	_, err := svc.Count(&CountRequest{SQL: skybandQuery, Params: map[string]any{"k": 8}, Method: "srs", Budget: 0.3})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("count after shutdown: %v, want ErrBusy", err)
	}

	// A stuck estimation: drain times out but shutdown still proceeds.
	svc2 := newTestService(t, 50, Options{MaxInFlight: 1})
	occupyAdmission(t, svc2) // simulate an estimation that never finishes
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := svc2.Shutdown(ctx); err == nil {
		t.Fatal("shutdown with a stuck estimation must report the drain timeout")
	}
}
