// Package server is the WUI substitute: a net/http JSON API over the
// benchmark suite and the run store, covering what the paper's Vue.js
// frontend reads from its Django controller — the application catalogue,
// the hardware catalogue, stored runs, plan visualisations, and
// on-demand workload execution on the cluster simulator.
//
// Execution requests pass through a multi-tenant serving front door
// (admission.go, fairness.go, stream.go): token-bucket admission with
// typed 429s, deficit-round-robin fair-share scheduling over a bounded
// worker pool, load shedding under overload, and SSE progress streams
// for async runs.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pdspbench/internal/apps"
	"pdspbench/internal/backend"
	"pdspbench/internal/chaos"
	"pdspbench/internal/cluster"
	"pdspbench/internal/controller"
	"pdspbench/internal/core"
	"pdspbench/internal/metrics"
	"pdspbench/internal/queue"
	"pdspbench/internal/storage"
	"pdspbench/internal/workload"
)

// Server serves the PDSP-Bench HTTP API: the catalogue/run surface the
// paper's WUI reads, plus the campaign-fabric dispatcher (job queue and
// worker protocol, see internal/queue and docs/API.md).
type Server struct {
	store *storage.Store
	ctrl  *controller.Controller
	q     *queue.Queue
	mux   *http.ServeMux

	// Serving front door (admission.go / fairness.go / stream.go).
	admit    *admitter
	sched    *scheduler
	serving  *servingStats
	registry *runRegistry
	nowMS    func() int64
	execute  Executor

	closing   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // tracks async run goroutines
}

// Executor runs one prepared plan and returns its record. The default
// delegates to controller.MeasureSpec; overload tests inject stubs so
// saturation behaviour is exercised without simulating workloads.
type Executor func(ctx context.Context, ctrl *controller.Controller, plan *core.PQP, cl *cluster.Cluster, spec backend.RunSpec) (*metrics.RunRecord, error)

// Option tunes server construction.
type Option func(*config)

type config struct {
	queue   queue.Options
	serving ServingConfig
	nowMS   func() int64
	execute Executor
	tune    func(*controller.Controller)
}

// WithQueueOptions overrides the dispatcher's queue tuning (lease TTL,
// heartbeat TTL, retry policy, clock) — tests shrink the timings.
func WithQueueOptions(opts queue.Options) Option {
	return func(c *config) { c.queue = opts }
}

// WithServing overrides the front door's admission quotas, worker-pool
// width, queue depths, shed deadline and DRR quantum.
func WithServing(sc ServingConfig) Option {
	return func(c *config) { c.serving = sc }
}

// WithNowMS injects the front door's monotonic clock (milliseconds);
// admission buckets and latency accounting read it. Tests advance a
// fake instead of sleeping. The queue's clock is injected separately
// via WithQueueOptions.
func WithNowMS(now func() int64) Option {
	return func(c *config) { c.nowMS = now }
}

// WithExecutor replaces run execution (overload tests substitute
// deterministic stubs for the simulator).
func WithExecutor(e Executor) Option {
	return func(c *config) { c.execute = e }
}

// WithControllerTuning mutates the server's controller after
// construction — self-hosted storms shrink sim fidelity so scripted
// runs finish in milliseconds.
func WithControllerTuning(f func(*controller.Controller)) Option {
	return func(c *config) { c.tune = f }
}

// New builds a server over the given run store. The fabric journal is
// replayed from the store, so a dispatcher restart resumes its queue
// (leases from the dead process are reclaimed).
func New(store *storage.Store, opts ...Option) (*Server, error) {
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	q, err := queue.New(store, cfg.queue)
	if err != nil {
		return nil, err
	}
	if cfg.nowMS == nil {
		cfg.nowMS = func() int64 { return time.Now().UnixMilli() }
	}
	if cfg.execute == nil {
		cfg.execute = func(ctx context.Context, ctrl *controller.Controller, plan *core.PQP, cl *cluster.Cluster, spec backend.RunSpec) (*metrics.RunRecord, error) {
			return ctrl.MeasureSpec(ctx, plan, cl, spec)
		}
	}
	s := &Server{
		store:    store,
		ctrl:     controller.Fast(),
		q:        q,
		mux:      http.NewServeMux(),
		nowMS:    cfg.nowMS,
		execute:  cfg.execute,
		closing:  make(chan struct{}),
		registry: newRunRegistry(0),
	}
	s.admit = newAdmitter(cfg.serving.Admission, cfg.nowMS)
	s.sched = newScheduler(cfg.serving, s.closing)
	s.serving = newServingStats()
	s.serving.sched = s.sched
	s.ctrl.Store = store
	if cfg.tune != nil {
		cfg.tune(s.ctrl)
	}
	s.mux.HandleFunc("GET /", s.handleIndex)
	s.mux.HandleFunc("GET /api/apps", s.handleApps)
	s.mux.HandleFunc("GET /api/structures", s.handleStructures)
	s.mux.HandleFunc("GET /api/clusters", s.handleClusters)
	s.mux.HandleFunc("GET /api/strategies", s.handleStrategies)
	s.mux.HandleFunc("GET /api/backends", s.handleBackends)
	s.mux.HandleFunc("GET /api/runs", s.handleRuns)
	s.mux.HandleFunc("GET /api/plan", s.handlePlan)
	s.mux.HandleFunc("POST /api/run", s.handleRun)
	// Serving front door: async run progress and saturation counters.
	s.mux.HandleFunc("GET /api/runs/{id}", s.handleRunStatus)
	s.mux.HandleFunc("GET /api/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /api/serving/stats", s.handleServingStats)
	// Campaign-fabric dispatcher (see dispatcher.go).
	s.mux.HandleFunc("POST /api/jobs", s.handleEnqueue)
	s.mux.HandleFunc("GET /api/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /api/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("POST /api/jobs/lease", s.handleLeaseNext)
	s.mux.HandleFunc("POST /api/jobs/{id}/lease", s.handleLeaseJob)
	s.mux.HandleFunc("POST /api/jobs/{id}/extend", s.handleExtend)
	s.mux.HandleFunc("POST /api/jobs/{id}/complete", s.handleComplete)
	s.mux.HandleFunc("POST /api/jobs/{id}/fail", s.handleFail)
	s.mux.HandleFunc("POST /api/workers/register", s.handleRegister)
	s.mux.HandleFunc("POST /api/workers/{id}/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("GET /api/workers", s.handleWorkers)
	return s, nil
}

// Queue exposes the dispatcher's job queue (CLI listings and tests).
func (s *Server) Queue() *queue.Queue { return s.q }

// Handler exposes the routing surface (tests drive it with httptest).
// The mux is wrapped so every error the router itself generates —
// unknown route 404s, wrong-method 405s — carries the same JSON
// {"error": ...} body as handler-written errors.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mux.ServeHTTP(&jsonErrorWriter{ResponseWriter: w}, r)
	})
}

// Close shuts the serving front door: waiting acquires fail with
// errClosing, in-flight async runs are cancelled, and Close blocks
// until their goroutines drain. Idempotent.
//
//lint:ignore ctx-propagation Close is the cancellation: it aborts every run context first, so the Wait below is bounded by executor teardown, not by work it would need a ctx to interrupt
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closing) })
	s.registry.cancelAll()
	s.wg.Wait()
}

// ListenAndServe serves until the context is cancelled. The shutdown
// watcher it starts is stopped and joined before it returns, whatever
// made Serve return.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	served := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		select {
		case <-ctx.Done():
		case <-served:
			return
		}
		// Shutdown starts after ctx is already cancelled, so its deadline
		// must come from a context detached from that cancellation — but
		// WithoutCancel keeps the caller's values, unlike a fresh root.
		shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
		defer cancel()
		//lint:ignore error-discipline shutdown runs after ctx cancel; there is no caller left to receive the error
		srv.Shutdown(shutdownCtx)
	}()
	err = srv.Serve(ln)
	close(served)
	s.Close()
	watcher.Wait()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// jsonErrorWriter rewrites text-bodied 404/405 responses written by the
// ServeMux itself into the API's JSON error shape. Handler-written
// errors pass through untouched: writeJSON sets the JSON Content-Type
// before committing the status, which is the discriminator.
type jsonErrorWriter struct {
	http.ResponseWriter
	intercepted bool
}

func (w *jsonErrorWriter) WriteHeader(status int) {
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		w.Header().Get("Content-Type") != "application/json" {
		w.intercepted = true
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("X-Content-Type-Options")
		w.ResponseWriter.WriteHeader(status)
		msg := "not found"
		if status == http.StatusMethodNotAllowed {
			msg = "method not allowed"
		}
		// The original text body is about to be discarded by Write; emit
		// the JSON replacement in its place.
		_, _ = w.ResponseWriter.Write([]byte(fmt.Sprintf("{\"error\":%q}\n", msg)))
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *jsonErrorWriter) Write(b []byte) (int, error) {
	if w.intercepted {
		return len(b), nil // swallow the router's text body
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so wrapping does not hide
// http.Flusher from the SSE handler.
func (w *jsonErrorWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already committed; an encode failure here means
	// the client went away, and there is nothing useful left to do.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		writeError(w, http.StatusNotFound, errors.New("not found"))
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!doctype html><title>PDSP-Bench</title>
<h1>PDSP-Bench</h1>
<p>Benchmarking system for parallel and distributed stream processing.</p>
<ul>
<li><a href="/api/apps">/api/apps</a> — application suite (Table 2)</li>
<li><a href="/api/structures">/api/structures</a> — synthetic query structures</li>
<li><a href="/api/clusters">/api/clusters</a> — hardware catalogue (Table 4)</li>
<li><a href="/api/strategies">/api/strategies</a> — parallelism enumeration strategies</li>
<li><a href="/api/backends">/api/backends</a> — execution backends (sim, real)</li>
<li><a href="/api/runs">/api/runs</a> — stored benchmark runs</li>
<li>/api/plan?structure=3-way-join&amp;parallelism=8 — plan DOT</li>
<li>POST /api/run — execute a workload (async + SSE progress supported)</li>
<li><a href="/api/serving/stats">/api/serving/stats</a> — front-door admission counters</li>
<li><a href="/api/jobs">/api/jobs</a> — campaign job queue (POST to enqueue)</li>
<li><a href="/api/workers">/api/workers</a> — registered worker daemons</li>
</ul>
<p>Full HTTP reference: docs/API.md (job/worker fabric protocol included).</p>`)
}

type appInfo struct {
	Code          string `json:"code"`
	Name          string `json:"name"`
	Area          string `json:"area"`
	Description   string `json:"description"`
	DataIntensive bool   `json:"data_intensive"`
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	out := make([]appInfo, 0, len(apps.Registry))
	for _, a := range apps.Registry {
		out = append(out, appInfo{a.Code, a.Name, a.Area, a.Description, a.DataIntensive})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStructures(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, workload.Structures)
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	out := []cluster.NodeType{cluster.M510, cluster.C6525_25G, cluster.C6320}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, workload.StrategyNames)
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, backend.Names())
}

// handleRuns copies the stored run records to the response as one JSON
// array, without decoding them: the store checks every line it did not
// write itself before the status is committed, so a corrupt store still
// answers 500 naming the line.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	runs, err := storage.List[metrics.RunRecord](s.store, "runs")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer runs.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// The status line is already committed; a failed write means the
	// client went away, and there is nothing useful left to do.
	_ = runs.WriteArray(w)
}

// handlePlan renders the plan a run request with the same app or
// structure and parallelism would execute.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	par := 4
	if n, err := strconv.Atoi(q.Get("parallelism")); err == nil {
		par = n
	}
	run, err := s.ctrl.Resolve(controller.Request{App: q.Get("app"), Structure: q.Get("structure"), Parallelism: par})
	if err != nil {
		writeError(w, resolveStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	fmt.Fprint(w, run.Plan.DOT())
}

// RunRequest is the POST /api/run body.
type RunRequest struct {
	App         string  `json:"app,omitempty"`
	Structure   string  `json:"structure,omitempty"`
	Parallelism int     `json:"parallelism"`
	Cluster     string  `json:"cluster,omitempty"`
	EventRate   float64 `json:"event_rate,omitempty"`
	// Backend selects the execution backend ("sim" default, "real" for
	// bounded in-process execution); listings carry it per record.
	Backend string `json:"backend,omitempty"`
	// Faults is an optional deterministic fault plan injected during the
	// run (see internal/chaos); the record reports the injected faults,
	// restarts, downtime and the schedule fingerprint.
	Faults *chaos.Plan `json:"faults,omitempty"`
	// Disorder stamps an out-of-order delivery spec onto every source of
	// the plan (see core.DisorderSpec); AllowedLatenessMs sets the
	// event-time allowance before late tuples are dropped and counted.
	Disorder          *core.DisorderSpec `json:"disorder,omitempty"`
	AllowedLatenessMs int64              `json:"allowed_lateness_ms,omitempty"`
	// Async submits the run for background execution: the response is an
	// immediate 202 with a run id, and progress streams over SSE at
	// GET /api/runs/{id}/events.
	Async bool `json:"async,omitempty"`
}

// AsyncRunResponse is the 202 body for async submissions.
type AsyncRunResponse struct {
	RunID  string `json:"run_id"`
	Tenant string `json:"tenant"`
	// Status / Events are the URLs to poll or stream.
	Status string `json:"status"`
	Events string `json:"events"`
}

// preparedRun is a validated RunRequest resolved to executable parts.
type preparedRun struct {
	*controller.Run
	cost int // DRR cost: requested parallelism
}

// prepareRun validates and resolves a RunRequest. Validation runs
// before admission so malformed requests do not burn quota.
func (s *Server) prepareRun(req *RunRequest) (*preparedRun, error) {
	run, err := s.ctrl.Resolve(controller.Request{
		App:               req.App,
		Structure:         req.Structure,
		Parallelism:       req.Parallelism,
		Cluster:           req.Cluster,
		EventRate:         req.EventRate,
		Backend:           req.Backend,
		Faults:            req.Faults,
		Disorder:          req.Disorder,
		AllowedLatenessMs: req.AllowedLatenessMs,
	})
	if err != nil {
		return nil, err
	}
	return &preparedRun{Run: run, cost: max(req.Parallelism, 1)}, nil
}

// resolveStatus maps a controller.Resolve error to its HTTP status.
func resolveStatus(err error) int {
	switch {
	case errors.Is(err, controller.ErrUnknownName):
		return http.StatusNotFound
	case errors.Is(err, controller.ErrBadRequest):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// handleRun implements POST /api/run: validate → admit (429 when a
// token bucket is dry) → fair-share queue (503 when shed) → execute.
// Sync requests block through execution under the request context;
// async requests detach and return 202 + a run id for SSE streaming.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	prep, err := s.prepareRun(&req)
	if err != nil {
		writeError(w, resolveStatus(err), err)
		return
	}
	if ok, retryMS := s.admit.admit(tenant); !ok {
		s.serving.rejected(tenant)
		writeRetryError(w, http.StatusTooManyRequests, tenant, retryMS,
			"admission rejected: tenant or global request rate exceeded")
		return
	}
	if req.Async {
		s.startAsync(r, tenant, prep, w)
		return
	}

	// Sync path: wait for a fair-share slot under the request context.
	start := s.nowMS()
	release, err := s.sched.acquire(r.Context(), tenant, prep.cost)
	if err != nil {
		switch {
		case errors.Is(err, errShed), errors.Is(err, errQueueFull):
			s.serving.shed(tenant)
			writeRetryError(w, http.StatusServiceUnavailable, tenant,
				s.sched.cfg.MaxQueueWait.Milliseconds(), err.Error())
		case r.Context().Err() != nil:
			// Client already gone; nothing useful to write.
		default:
			writeError(w, http.StatusServiceUnavailable, err)
		}
		return
	}
	defer release()
	s.serving.admitted(tenant, float64(s.nowMS()-start))
	rec, err := s.execute(r.Context(), prep.Ctrl, prep.Plan, prep.Cluster, prep.Spec)
	if err != nil {
		s.serving.finished(tenant, true)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serving.finished(tenant, false)
	writeJSON(w, http.StatusOK, rec)
}

// startAsync detaches an admitted run from the request: it executes
// under a context derived from WithoutCancel (client disconnects do not
// abort it; Server.Close does) and reports progress through its runLog.
//
//lint:ignore ctx-propagation the blocking acquire runs inside the detached goroutine under runCtx (cancelled by Server.Close); startAsync itself returns the 202 immediately
func (s *Server) startAsync(r *http.Request, tenant string, prep *preparedRun, w http.ResponseWriter) {
	// WithoutCancel detaches the run's lifetime from the submitting
	// request (keeping its values); the explicit cancel belongs to the
	// registry so Server.Close can abort in-flight runs.
	runCtx, cancel := context.WithCancel(context.WithoutCancel(r.Context()))
	rl := s.registry.add(tenant, cancel)
	rl.append("queued", s.nowMS(), "", nil)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		start := s.nowMS()
		release, err := s.sched.acquire(runCtx, tenant, prep.cost)
		if err != nil {
			if errors.Is(err, errShed) || errors.Is(err, errQueueFull) {
				s.serving.shed(tenant)
				rl.append("shed", s.nowMS(), err.Error(), nil)
			} else {
				rl.append("failed", s.nowMS(), err.Error(), nil)
			}
			return
		}
		defer release()
		s.serving.admitted(tenant, float64(s.nowMS()-start))
		rl.append("admitted", s.nowMS(), "", nil)
		rec, err := s.execute(runCtx, prep.Ctrl, prep.Plan, prep.Cluster, prep.Spec)
		if err != nil {
			s.serving.finished(tenant, true)
			rl.append("failed", s.nowMS(), err.Error(), nil)
			return
		}
		s.serving.finished(tenant, false)
		rl.append("completed", s.nowMS(), "", rec)
	}()
	writeJSON(w, http.StatusAccepted, AsyncRunResponse{
		RunID:  rl.id,
		Tenant: tenant,
		Status: "/api/runs/" + rl.id,
		Events: "/api/runs/" + rl.id + "/events",
	})
}
