package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
)

// TestPprofOnEveryRole: -pprof mounts /debug/pprof/ in front of the
// coordinator's handler as it does in front of a worker's, and without the
// flag neither role serves it. The coordinator used to serve its handler
// bare whatever the flag said.
func TestPprofOnEveryRole(t *testing.T) {
	logger := obs.NewLogger(io.Discard)
	// Building a coordinator dials nothing, so the roster need not be up.
	coord, err := service.NewCoordinator([]service.WorkerInfo{{Name: "w1", BaseURL: "http://127.0.0.1:1"}},
		service.CoordinatorOptions{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.NewRegistry(), service.Options{Logger: logger})
	for _, role := range []struct {
		name    string
		handler http.Handler
	}{{"coordinator", coord.Handler()}, {"worker", svc.Handler()}} {
		for _, tc := range []struct {
			on   bool
			want int
		}{{true, http.StatusOK}, {false, http.StatusNotFound}} {
			rec := httptest.NewRecorder()
			withPprof(role.handler, tc.on, logger).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
			if rec.Code != tc.want {
				t.Errorf("%s, -pprof=%t: GET /debug/pprof/ answered %d, want %d", role.name, tc.on, rec.Code, tc.want)
			}
		}
		// The role's own API stays reachable behind the profiling routes.
		rec := httptest.NewRecorder()
		withPprof(role.handler, true, logger).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s, -pprof=true: GET /healthz answered %d, want 200", role.name, rec.Code)
		}
	}
}

// TestServeReturnsListenError: a role whose address cannot be bound gets the
// error back from serve (and exits non-zero) instead of waiting for a signal.
func TestServeReturnsListenError(t *testing.T) {
	if err := serve("127.0.0.1:-1", http.NotFoundHandler(), obs.NewLogger(io.Discard)); err == nil {
		t.Fatal("serve on an invalid address returned nil")
	}
}
