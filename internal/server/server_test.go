package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pdspbench/internal/metrics"
	"pdspbench/internal/storage"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink simulation fidelity so POST /api/run is fast in tests.
	s.ctrl.Cfg.Duration = 5
	s.ctrl.Cfg.SourceBatches = 40
	s.ctrl.Runs = 1
	return s
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func TestIndexServesHTML(t *testing.T) {
	w := get(t, testServer(t), "/")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "PDSP-Bench") {
		t.Error("index page missing title")
	}
}

func TestAppsEndpointListsAll14(t *testing.T) {
	w := get(t, testServer(t), "/api/apps")
	var out []map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 14 {
		t.Errorf("apps = %d, want 14", len(out))
	}
}

func TestStructuresEndpoint(t *testing.T) {
	w := get(t, testServer(t), "/api/structures")
	var out []string
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 9 {
		t.Errorf("structures = %d, want 9", len(out))
	}
}

func TestClustersEndpoint(t *testing.T) {
	w := get(t, testServer(t), "/api/clusters")
	var out []map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("clusters = %d, want 3 (Table 4)", len(out))
	}
}

func TestStrategiesEndpoint(t *testing.T) {
	w := get(t, testServer(t), "/api/strategies")
	var out []string
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Errorf("strategies = %d, want 6", len(out))
	}
}

func TestRunsEndpointEmptyAndAfterRun(t *testing.T) {
	s := testServer(t)
	w := get(t, s, "/api/runs")
	if strings.TrimSpace(w.Body.String()) != "[]" {
		t.Errorf("empty store should return [], got %q", w.Body.String())
	}
	// Execute a workload through the API; the record must land in the store.
	body := `{"structure":"linear","parallelism":2,"event_rate":50000}`
	req := httptest.NewRequest(http.MethodPost, "/api/run", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /api/run status %d: %s", rec.Code, rec.Body.String())
	}
	var run metrics.RunRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &run); err != nil {
		t.Fatal(err)
	}
	if run.LatencyP50 <= 0 {
		t.Errorf("run latency %v", run.LatencyP50)
	}
	w = get(t, s, "/api/runs")
	var runs []metrics.RunRecord
	if err := json.Unmarshal(w.Body.Bytes(), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Errorf("stored runs = %d, want 1", len(runs))
	}
}

func TestRunEndpointWithApp(t *testing.T) {
	s := testServer(t)
	body := `{"app":"SD","parallelism":4,"cluster":"c6525_25g","event_rate":50000}`
	req := httptest.NewRequest(http.MethodPost, "/api/run", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var run metrics.RunRecord
	json.Unmarshal(rec.Body.Bytes(), &run)
	if run.Cluster != "c6525_25g" {
		t.Errorf("cluster %q", run.Cluster)
	}
}

func TestRunEndpointErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		body string
		code int
	}{
		{`{"parallelism":2}`, http.StatusBadRequest},                        // no workload
		{`{"app":"NOPE","parallelism":2}`, http.StatusNotFound},             // unknown app
		{`{"structure":"8-way-join","parallelism":2}`, http.StatusNotFound}, // unknown structure
		{`{"app":"WC","cluster":"moon"}`, http.StatusBadRequest},            // unknown cluster
		{`{"app":"WC","structure":"linear"}`, http.StatusBadRequest},        // both app and structure
		{`{"app":"WC","backend":"flink"}`, http.StatusBadRequest},           // unknown backend
		{`{"app":"WC","disorder":{"kind":"chaotic","max_skew_ms":5}}`, http.StatusBadRequest},
		{`{not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, "/api/run", strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != c.code {
			t.Errorf("body %q: status %d, want %d", c.body, rec.Code, c.code)
		}
	}
}

func TestPlanEndpoint(t *testing.T) {
	s := testServer(t)
	w := get(t, s, "/api/plan?structure=3-way-join&parallelism=8")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "digraph") || !strings.Contains(w.Body.String(), "p=8") {
		t.Errorf("plan DOT malformed: %s", w.Body.String()[:80])
	}
	w = get(t, s, "/api/plan?app=AD")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "join") {
		t.Errorf("app plan: status %d", w.Code)
	}
	if w := get(t, s, "/api/plan"); w.Code != http.StatusBadRequest {
		t.Errorf("missing params: status %d", w.Code)
	}
	if w := get(t, s, "/api/plan?app=NOPE"); w.Code != http.StatusNotFound {
		t.Errorf("unknown app: status %d", w.Code)
	}
	if w := get(t, s, "/api/plan?structure=9-way-join"); w.Code != http.StatusNotFound {
		t.Errorf("unknown structure: status %d", w.Code)
	}
	if w := get(t, s, "/api/plan?app=AD&structure=linear"); w.Code != http.StatusBadRequest {
		t.Errorf("both app and structure: status %d", w.Code)
	}
}

// TestListenAndServeReturnsOnCancel cancels a live listener and requires
// ListenAndServe to return cleanly; the package's leak gate then fails
// the run if its shutdown watcher outlived the call.
func TestListenAndServeReturnsOnCancel(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, "127.0.0.1:0") }()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndServe after cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not return after its context was cancelled")
	}
}
