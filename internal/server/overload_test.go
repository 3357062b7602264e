package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pdspbench/internal/backend"
	"pdspbench/internal/cluster"
	"pdspbench/internal/controller"
	"pdspbench/internal/core"
	"pdspbench/internal/metrics"
	"pdspbench/internal/storage"
)

// The overload suite: deterministic saturation behaviour of the serving
// front door. Admission-bucket tests drive the injected fake clock;
// shed-deadline tests use short real timers (the shed timer is
// deliberately wall-clock — it guards against a stuck scheduler, so it
// must not depend on anyone advancing a fake). Execution is stubbed via
// WithExecutor so saturation is exercised without simulating workloads.

const runBody = `{"structure":"linear","parallelism":1}`

// overloadServer builds a server with stubbed-out pieces and registers
// Close so the goroutine-leak gate stays clean.
func overloadServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(st, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// instantExec completes a run immediately without touching a backend.
func instantExec(context.Context, *controller.Controller, *core.PQP, *cluster.Cluster, backend.RunSpec) (*metrics.RunRecord, error) {
	return &metrics.RunRecord{ID: "stub", Workload: "stub"}, nil
}

// gateExec blocks every run until released, handing each run's context
// to the test so cancellation semantics can be asserted.
type gateExec struct {
	started chan context.Context
	release chan struct{}
}

func newGateExec() *gateExec {
	return &gateExec{started: make(chan context.Context, 32), release: make(chan struct{})}
}

func (g *gateExec) exec(ctx context.Context, _ *controller.Controller, _ *core.PQP, _ *cluster.Cluster, _ backend.RunSpec) (*metrics.RunRecord, error) {
	g.started <- ctx
	select {
	case <-g.release:
		return &metrics.RunRecord{ID: "gated", Workload: "gated"}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func postRun(t *testing.T, s *Server, tenant, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/run", strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDRRFairnessAcrossAsymmetricTenants floods the fair-share stage
// with wildly asymmetric per-tenant backlogs and asserts the grant
// stream is even while every tenant still has work: with one execution
// slot, quantum 1 and unit costs the scan is strict round-robin, so the
// first 3×min(backlog) grants split equally. The ISSUE's fairness bound
// is 10%; the schedule here is deterministic (grants chain one release
// at a time), so the split is in fact exact.
func TestDRRFairnessAcrossAsymmetricTenants(t *testing.T) {
	closing := make(chan struct{})
	defer close(closing)
	sched := newScheduler(ServingConfig{
		Workers: 1, QueueDepth: 1000, MaxQueueWait: time.Minute, Quantum: 1,
	}, closing)

	// Occupy the only slot so every scripted task queues behind it.
	warmRelease, err := sched.acquire(context.Background(), "warm", 1)
	if err != nil {
		t.Fatal(err)
	}

	demands := map[string]int{"alpha": 150, "beta": 90, "gamma": 60}
	total := 0
	var (
		mu     sync.Mutex
		grants []string
		wg     sync.WaitGroup
	)
	for tenant, n := range demands {
		total += n
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(tn string) {
				defer wg.Done()
				release, err := sched.acquire(context.Background(), tn, 1)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				grants = append(grants, tn)
				mu.Unlock()
				release()
			}(tenant)
		}
	}
	waitUntil(t, "all tasks queued", func() bool {
		_, queued := sched.gauges()
		return queued == total
	})

	warmRelease()
	wg.Wait()

	if len(grants) != total {
		t.Fatalf("granted %d of %d tasks", len(grants), total)
	}
	// While all three tenants are backlogged (first 3×60 grants), DRR
	// must split the slot evenly regardless of queue depths.
	window := 3 * demands["gamma"]
	counts := map[string]int{}
	for _, tn := range grants[:window] {
		counts[tn]++
	}
	fair := window / len(demands)
	for tenant := range demands {
		got := counts[tenant]
		if lo, hi := fair*9/10, fair*11/10; got < lo || got > hi {
			t.Errorf("tenant %s got %d of the first %d grants, want %d ±10%%", tenant, got, window, fair)
		}
	}
	if active, queued := sched.gauges(); active != 0 || queued != 0 {
		t.Errorf("gauges after drain: active=%d queued=%d", active, queued)
	}
}

// TestParallelismWeightedFairness checks that DRR fairness is measured
// in work units, not run counts: a tenant asking for parallelism-4 runs
// gets roughly a quarter the grant *count* of a parallelism-1 tenant.
func TestParallelismWeightedFairness(t *testing.T) {
	closing := make(chan struct{})
	defer close(closing)
	sched := newScheduler(ServingConfig{
		Workers: 1, QueueDepth: 1000, MaxQueueWait: time.Minute, Quantum: 4,
	}, closing)
	warmRelease, err := sched.acquire(context.Background(), "warm", 1)
	if err != nil {
		t.Fatal(err)
	}

	type load struct {
		tenant string
		cost   int
		n      int
	}
	loads := []load{{"wide", 4, 40}, {"narrow", 1, 160}}
	var (
		mu     sync.Mutex
		grants []string
		wg     sync.WaitGroup
		total  int
	)
	for _, l := range loads {
		total += l.n
		for i := 0; i < l.n; i++ {
			wg.Add(1)
			go func(tn string, cost int) {
				defer wg.Done()
				release, err := sched.acquire(context.Background(), tn, cost)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				grants = append(grants, tn)
				mu.Unlock()
				release()
			}(l.tenant, l.cost)
		}
	}
	waitUntil(t, "all tasks queued", func() bool {
		_, queued := sched.gauges()
		return queued == total
	})
	warmRelease()
	wg.Wait()

	// While both tenants are backlogged, each ring round grants 1 wide
	// (cost 4) and 4 narrow (cost 1) runs: equal work, unequal counts.
	// The wide tenant's 40 runs span 40 rounds = 160 narrow grants, so
	// the whole trace is inside the contested window.
	counts := map[string]int{}
	for _, tn := range grants {
		counts[tn]++
	}
	if counts["wide"] != 40 || counts["narrow"] != 160 {
		t.Fatalf("grant counts %v", counts)
	}
	firstRounds := grants[:50]
	wide := 0
	for _, tn := range firstRounds {
		if tn == "wide" {
			wide++
		}
	}
	if wide == 0 || wide > 50/4+1 {
		t.Errorf("wide tenant got %d of first 50 grants, want ~10 (work-weighted share)", wide)
	}
}

// TestShedBeforeCollapse drives the worker pool past saturation and
// asserts the three overload behaviours in order: a full tenant queue
// sheds instantly, a queued-too-long request sheds at the deadline with
// Retry-After, and the rest of the API keeps serving throughout.
func TestShedBeforeCollapse(t *testing.T) {
	gate := newGateExec()
	s := overloadServer(t,
		WithServing(ServingConfig{Workers: 1, QueueDepth: 1, MaxQueueWait: 60 * time.Millisecond}),
		WithExecutor(gate.exec),
	)

	// Run 1 takes the only slot and blocks in the executor.
	done1 := make(chan *httptest.ResponseRecorder, 1)
	go func() { done1 <- postRun(t, s, "alpha", runBody) }()
	<-gate.started

	// Run 2 queues; it will shed when MaxQueueWait expires.
	done2 := make(chan *httptest.ResponseRecorder, 1)
	go func() { done2 <- postRun(t, s, "alpha", runBody) }()
	waitUntil(t, "run 2 queued", func() bool {
		_, queued := s.sched.gauges()
		return queued == 1
	})

	// Run 3 bounces off the full tenant queue immediately.
	w3 := postRun(t, s, "alpha", runBody)
	if w3.Code != http.StatusServiceUnavailable {
		t.Fatalf("queue-full status %d: %s", w3.Code, w3.Body.String())
	}
	if w3.Header().Get("Retry-After") == "" {
		t.Error("queue-full 503 missing Retry-After header")
	}
	var shedBody map[string]any
	if err := json.Unmarshal(w3.Body.Bytes(), &shedBody); err != nil {
		t.Fatalf("queue-full body not JSON: %s", w3.Body.String())
	}
	if msg, _ := shedBody["error"].(string); !strings.Contains(msg, "queue is full") {
		t.Errorf("queue-full error = %q", msg)
	}

	// The front door being saturated must not take down the rest of the
	// API: catalogue and stats endpoints still answer.
	for _, path := range []string{"/api/apps", "/api/runs", "/api/serving/stats"} {
		if w := get(t, s, path); w.Code != http.StatusOK {
			t.Errorf("GET %s during overload: %d", path, w.Code)
		}
	}

	// Run 2 sheds once its deadline passes.
	w2 := <-done2
	if w2.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d: %s", w2.Code, w2.Body.String())
	}
	if !strings.Contains(w2.Body.String(), "shed deadline") {
		t.Errorf("shed error body = %s", w2.Body.String())
	}

	// Run 1 was never affected: release the gate and it completes.
	close(gate.release)
	w1 := <-done1
	if w1.Code != http.StatusOK {
		t.Fatalf("gated run status %d: %s", w1.Code, w1.Body.String())
	}

	snap := s.serving.snapshot()
	if snap.Admitted != 1 || snap.Shed != 2 || snap.Completed != 1 || snap.Failed != 0 {
		t.Errorf("serving counters: %+v", snap)
	}
	if at := snap.Tenants["alpha"]; at.Admitted != 1 || at.Shed != 2 || at.Completed != 1 {
		t.Errorf("alpha counters: %+v", at)
	}
}

// TestQuotaIsolationAcrossTenants exhausts one tenant's token bucket on
// a frozen clock and asserts the 429 is typed (Retry-After header +
// machine-readable JSON), other tenants are untouched, and refilling
// the bucket by advancing the clock re-admits the throttled tenant.
func TestQuotaIsolationAcrossTenants(t *testing.T) {
	clk := &fabricClock{}
	s := overloadServer(t,
		WithNowMS(clk.Now),
		WithServing(ServingConfig{Admission: AdmissionConfig{
			PerTenant: TenantQuota{RatePerSec: 1, Burst: 2},
			Global:    TenantQuota{RatePerSec: 1000, Burst: 1000},
		}}),
		WithExecutor(instantExec),
	)

	// Burst of 2: two requests pass, the third is rejected.
	for i := 0; i < 2; i++ {
		if w := postRun(t, s, "alpha", runBody); w.Code != http.StatusOK {
			t.Fatalf("alpha request %d: %d %s", i+1, w.Code, w.Body.String())
		}
	}
	w := postRun(t, s, "alpha", runBody)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("alpha over-quota status %d: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	var rej struct {
		Error        string `json:"error"`
		Tenant       string `json:"tenant"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rej); err != nil {
		t.Fatalf("429 body not JSON: %s", w.Body.String())
	}
	if rej.Tenant != "alpha" || rej.RetryAfterMS < 1 || rej.Error == "" {
		t.Errorf("429 body %+v", rej)
	}

	// Isolation: beta and the default tenant have their own buckets.
	if w := postRun(t, s, "beta", runBody); w.Code != http.StatusOK {
		t.Errorf("beta while alpha throttled: %d", w.Code)
	}
	if w := postRun(t, s, "", runBody); w.Code != http.StatusOK {
		t.Errorf("default tenant while alpha throttled: %d", w.Code)
	}

	// Refill at 1 token/s: one second later alpha is admitted again.
	clk.Advance(time.Second)
	if w := postRun(t, s, "alpha", runBody); w.Code != http.StatusOK {
		t.Errorf("alpha after refill: %d %s", w.Code, w.Body.String())
	}

	snap := s.serving.snapshot()
	if a := snap.Tenants["alpha"]; a.Admitted != 3 || a.Rejected != 1 {
		t.Errorf("alpha serving stats %+v", a)
	}
	if b := snap.Tenants["beta"]; b.Admitted != 1 || b.Rejected != 0 {
		t.Errorf("beta serving stats %+v", b)
	}
	if d := snap.Tenants[DefaultTenant]; d.Admitted != 1 {
		t.Errorf("default-tenant serving stats %+v", d)
	}
	if snap.Rejected429 != 1 || snap.Admitted != 5 {
		t.Errorf("aggregate serving stats %+v", snap)
	}
}

// TestGlobalBucketRefundsTenantToken: when the global bucket rejects, a
// tenant's own token must be refunded, so a global brown-out does not
// double-charge well-behaved tenants.
func TestGlobalBucketRefundsTenantToken(t *testing.T) {
	clk := &fabricClock{}
	s := overloadServer(t,
		WithNowMS(clk.Now),
		WithServing(ServingConfig{Admission: AdmissionConfig{
			PerTenant: TenantQuota{RatePerSec: 1, Burst: 10},
			Global:    TenantQuota{RatePerSec: 1, Burst: 1},
		}}),
		WithExecutor(instantExec),
	)
	if w := postRun(t, s, "alpha", runBody); w.Code != http.StatusOK {
		t.Fatalf("first request: %d", w.Code)
	}
	// Global bucket dry: rejected, but alpha's bucket must not drain.
	for i := 0; i < 5; i++ {
		if w := postRun(t, s, "alpha", runBody); w.Code != http.StatusTooManyRequests {
			t.Fatalf("global-dry request %d: %d", i, w.Code)
		}
	}
	s.admit.mu.Lock()
	tokens := s.admit.tenants["alpha"].tokens
	s.admit.mu.Unlock()
	if tokens != 9 {
		t.Errorf("alpha tokens after global rejects = %v, want 9 (refunded)", tokens)
	}
}

// asyncSubmit POSTs an async run and returns the 202 response body.
func asyncSubmit(t *testing.T, ts *httptest.Server, tenant, body string) AsyncRunResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d", resp.StatusCode)
	}
	var out AsyncRunResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.RunID == "" || out.Events == "" {
		t.Fatalf("async response %+v", out)
	}
	return out
}

// runStatusOf polls GET /api/runs/{id} until the run reaches a terminal
// state and returns the final snapshot.
func runStatusOf(t *testing.T, ts *httptest.Server, id string) RunStatus {
	t.Helper()
	var st RunStatus
	waitUntil(t, "run "+id+" terminal", func() bool {
		resp, err := http.Get(ts.URL + "/api/runs/" + id)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		if json.NewDecoder(resp.Body).Decode(&st) != nil {
			return false
		}
		switch st.Status {
		case "completed", "failed", "shed":
			return true
		}
		return false
	})
	return st
}

// TestSSEDisconnectCancelsWatchNotRun is the SSE contract: dropping the
// event stream mid-run tears down only the watch — the run keeps its
// execution context and slot, finishes normally, and a re-attached
// stream replays the full history through the terminal event.
func TestSSEDisconnectCancelsWatchNotRun(t *testing.T) {
	gate := newGateExec()
	s := overloadServer(t, WithExecutor(gate.exec))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	sub := asyncSubmit(t, ts, "alpha", `{"structure":"linear","parallelism":1,"async":true}`)
	execCtx := <-gate.started // the run is admitted and executing

	// Attach a watcher, read up to the admitted event, then disconnect.
	sseCtx, cancelSSE := context.WithCancel(context.Background())
	defer cancelSSE()
	req, err := http.NewRequestWithContext(sseCtx, http.MethodGet, ts.URL+sub.Events, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sawAdmitted := false
	for sc.Scan() {
		if sc.Text() == "event: admitted" {
			sawAdmitted = true
			break
		}
	}
	if !sawAdmitted {
		t.Fatal("never saw the admitted event on the live stream")
	}
	cancelSSE()
	resp.Body.Close()

	// The watcher is gone; the run must not be. Give the server a moment
	// to observe the disconnect, then check the execution context.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-execCtx.Done():
		t.Fatal("client disconnect cancelled the run's execution context")
	default:
	}

	// Release the gate; the run completes into the registry.
	close(gate.release)
	st := runStatusOf(t, ts, sub.RunID)
	if st.Status != "completed" {
		t.Fatalf("run finished as %q: %+v", st.Status, st)
	}

	// Re-attach: the stream replays queued → admitted → completed and
	// then terminates (ReadAll returns because the handler closes).
	resp2, err := http.Get(ts.URL + sub.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replayBytes, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	replay := string(replayBytes)
	for _, want := range []string{"event: queued", "event: admitted", "event: completed", `"record"`} {
		if !strings.Contains(replay, want) {
			t.Errorf("replayed stream missing %q:\n%s", want, replay)
		}
	}
}

// TestAsyncRunLifecycleAndServerClose covers the async happy path plus
// shutdown semantics: Server.Close cancels in-flight async runs and
// waits for their goroutines, and the run log records the failure.
func TestAsyncRunLifecycleAndServerClose(t *testing.T) {
	gate := newGateExec()
	s := overloadServer(t, WithExecutor(gate.exec))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	sub := asyncSubmit(t, ts, "beta", `{"structure":"linear","parallelism":1,"async":true}`)
	<-gate.started

	// Close with the run still gated: its context is cancelled, the
	// executor returns ctx.Err, and the log ends in a failed event.
	s.Close()
	st := runStatusOf(t, ts, sub.RunID)
	if st.Status != "failed" {
		t.Fatalf("run after Close: %q, want failed", st.Status)
	}
	if st.Tenant != "beta" {
		t.Errorf("run tenant %q", st.Tenant)
	}
	if len(st.Events) < 3 || st.Events[0].Type != "queued" || st.Events[1].Type != "admitted" {
		t.Errorf("event history %+v", st.Events)
	}
}

// TestUnknownRunID: both the status and events endpoints 404 with a
// JSON error for unregistered run ids.
func TestUnknownRunID(t *testing.T) {
	s := overloadServer(t, WithExecutor(instantExec))
	for _, path := range []string{"/api/runs/run-999", "/api/runs/run-999/events"} {
		w := get(t, s, path)
		if w.Code != http.StatusNotFound {
			t.Errorf("GET %s: %d", path, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s content type %q", path, ct)
		}
	}
}
