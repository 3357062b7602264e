package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pdspbench/internal/controller"
	"pdspbench/internal/metrics"
	"pdspbench/internal/server"
	"pdspbench/internal/storage"
)

// The serve workload self-hosts the dispatcher — server.New over a
// temporary storage.Store behind an httptest listener on 127.0.0.1:0 —
// and offers it a fixed request mix open loop over two connections:
// synchronous small simulated runs from two tenants (writes), fabric job
// cycles (enqueue, lease, complete) and run listings against a store
// seeded in setup (reads beside writes). Each op is timed from when it
// was due, so a stall also charges the requests queued behind it.
//
// A job cycle is what a pdspbench worker sends for a one-measurement
// shard: it leases the next job (POST /api/jobs/lease), and completes it
// with the records queue.RunCampaign(true) returns for the job's spec.
// The run : job : list proportions are assumed, not measured: no traffic
// source in the repository mixes the three. They stand for a deployment
// where a worker fleet drains a sharded campaign (job cycles outnumber
// front-door runs 3 : 1, as a campaign fans out into one-measurement
// shards), two tenants submit small runs, and a dashboard polls the run
// listing twice a second.
const (
	serveConns = 2
	// serveSeedRecords is large beside the 2 400 records a 30 s phase
	// adds, so a listing's cost grows by about half through the phase
	// rather than fivefold, and the p99 — set by the slowest listings —
	// averages over many listings instead of the last few.
	serveSeedRecords = 2000
	// Offered ops per second, fixed constants well below the knee. A job
	// op is three requests, so the mix is 202 requests per second.
	// Every run and every job writes records that later listings read,
	// so the listing grows by 80 records a second, and a listing holds
	// the store's lock while it reads. Listings are 2.4 % of ops, so the
	// p99 (about 25 samples beyond it in a 30 s phase) is a listing's
	// latency — not the tail of millisecond ops, which a few stalls of
	// the host would decide — and moves with the cost of reading the
	// store.
	serveRunRate  = 20 // split evenly over the two tenants
	serveJobRate  = 60
	serveListRate = 2
	// warmUp worth of the mix is sent back to back during setup, so lazy
	// initialisation and the first allocations are paid before the clock.
	// Its schedule comes from warmUpSeed, the same for every run seed,
	// so every run sets up the same work.
	warmUp     = 5 * time.Second
	warmUpSeed = -1
	// The traced run's knee ladder: run-only rates, each held for
	// kneeStep; the knee is the highest rate whose p99 stays under
	// kneeLimitMS with at least 95% goodput.
	kneeStep    = 500 * time.Millisecond
	kneeLimitMS = 20
)

var (
	serveOps     = []string{"run", "job", "list"}
	serveTenants = []string{"alpha", "beta"}
	kneeLadder   = []float64{100, 200, 400, 800}
	// runStructures are the structures runs draw from: cheap queries,
	// so one run never holds a connection for long.
	runStructures = []string{"linear", "2-chained-filter", "3-chained-filter", "2-way-join"}
	// jobSpec is the campaign every job carries: one linear query at
	// degree 1, a shard of the shape controller.Spec.Shard makes.
	jobSpec = controller.Spec{Name: "perfbench", Workloads: []controller.WorkloadSpec{{Structure: "linear", Degrees: []int{1}}}}
)

// serveSession is one self-hosted dispatcher and the client that drives
// it.
type serveSession struct {
	dir      string
	store    *storage.Store
	srv      *server.Server
	ts       *httptest.Server
	client   *http.Client
	workerID string
	seeded   int
	seedMBps float64
	// jobRecords are what a worker completes every job with.
	jobRecords []metrics.RunRecord

	// Expected state for the checks, written by the connection
	// goroutines under the running phase's mutex.
	runWrites int
	// completed counts the client's successful completions per job.
	completed map[string]int
}

func openServe(ctx context.Context, cfg config, tr *tracer) (*serveSession, error) {
	if err := os.MkdirAll(cfg.tmpDir(), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmpDir(), "serve-*")
	if err != nil {
		return nil, err
	}
	s := &serveSession{dir: dir, completed: map[string]int{}}
	if err := s.open(ctx, cfg, tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveSession) open(ctx context.Context, cfg config, tr *tracer) error {
	var err error
	if s.store, err = storage.Open(s.dir); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	s.seeded = cfg.scaled(serveSeedRecords)
	recs := make([]any, s.seeded)
	for i := range recs {
		recs[i] = seedRecord(rng, i)
	}
	sp := tr.begin(0, 0, "storage", "AppendAll")
	start := time.Now()
	err = s.store.AppendAll("runs", recs...)
	d := time.Since(start)
	tr.end(sp)
	if err != nil {
		return err
	}
	if fi, err := os.Stat(filepath.Join(s.dir, "runs.jsonl")); err == nil {
		s.seedMBps = float64(fi.Size()) / (1 << 20) / d.Seconds()
	}
	s.srv, err = server.New(s.store, server.WithControllerTuning(func(c *controller.Controller) {
		// The storm harness's fidelity: a run simulates in about a
		// millisecond.
		c.Cfg.Duration = 2
		c.Cfg.SourceBatches = 20
		c.Runs = 1
	}))
	if err != nil {
		return err
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
		Timeout:   30 * time.Second,
	}
	var reg struct {
		Worker struct {
			ID string `json:"id"`
		} `json:"worker"`
	}
	if _, err := s.call(ctx, http.MethodPost, "/api/workers/register", "", map[string]any{"name": "perfbench", "capacity": serveConns}, &reg); err != nil {
		return fmt.Errorf("register worker: %w", err)
	}
	s.workerID = reg.Worker.ID
	// The worker's production path, as queue.RunCampaign(true) runs it.
	// The spec is fixed, so every job's records are the same.
	if s.jobRecords, err = controller.Fast().RunSpec(ctx, &jobSpec); err != nil {
		return fmt.Errorf("job records: %w", err)
	}
	warm := schedule(warmUpSeed, warmUp, serveRunRate, serveJobRate, serveListRate)
	ph := newServePhase()
	for _, a := range warm[:cfg.scaled(len(warm))] {
		s.do(ctx, a, time.Now(), ph, nil)
	}
	if ph.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", ph.failed, ph.sent)
	}
	return nil
}

func seedRecord(rng *rand.Rand, i int) metrics.RunRecord {
	return metrics.RunRecord{
		ID:         fmt.Sprintf("seed-%06d", i),
		Backend:    "sim",
		Workload:   runStructures[rng.Intn(len(runStructures))],
		Cluster:    "m510",
		Category:   "S",
		MaxDegree:  1 + rng.Intn(8),
		EventRate:  float64(1000 * (1 + rng.Intn(500))),
		LatencyP50: rng.Float64(),
		LatencyP95: 1 + rng.Float64(),
		Throughput: rng.Float64() * 1e6,
		Runs:       1,
	}
}

// close stops the listener and the dispatcher and removes the store.
func (s *serveSession) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing serve store:", err)
	}
}

// call sends one request and decodes a 2xx JSON reply into out. It
// returns the status (0 on a transport error).
func (s *serveSession) call(ctx context.Context, method, path, tenant string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// arrival is one scheduled op.
type arrival struct {
	due    time.Duration
	op     string
	tenant string
	body   map[string]any
}

// scheduleBlock is the stretch of a schedule that holds every kind of
// op in the exact proportion of its rate.
const scheduleBlock = 10 * time.Second

// schedule lays ops on a fixed grid at the offered rates. Each
// scheduleBlock holds rate × block ops of each kind, spread evenly
// through the block (smooth weighted round robin), runs cycle through
// every structure × parallelism pair and every op alternates tenants.
// The amount and spacing of each kind of work is thus fixed: a seed
// that happened to bunch costly ops together would move the p99 by
// itself. The seed decides the order of the run pairs.
func schedule(seed int64, budget time.Duration, runRate, jobRate, listRate float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	block := scheduleBlock.Seconds()
	kinds := []struct {
		op             string
		weight, credit int
	}{{op: "run", weight: int(math.Round(runRate * block))}, {op: "job", weight: int(math.Round(jobRate * block))}, {op: "list", weight: int(math.Round(listRate * block))}}
	perBlock := 0
	for _, k := range kinds {
		perBlock += k.weight
	}
	if perBlock == 0 {
		return nil
	}
	type pair struct{ structure, parallelism int }
	var pairs []pair
	for st := range runStructures {
		for p := 0; p < 3; p++ {
			pairs = append(pairs, pair{st, 1 << p})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	n := int(budget.Seconds() * float64(perBlock) / block)
	gap := time.Duration(float64(scheduleBlock) / float64(perBlock))
	out := make([]arrival, 0, n)
	runs, jobs := 0, 0
	for i := 0; i < n; i++ {
		best := 0
		for j := range kinds {
			kinds[j].credit += kinds[j].weight
			if kinds[j].credit > kinds[best].credit {
				best = j
			}
		}
		kinds[best].credit -= perBlock
		a := arrival{due: time.Duration(i) * gap, op: kinds[best].op}
		switch a.op {
		case "run":
			pr := pairs[runs%len(pairs)]
			a.tenant = serveTenants[runs%len(serveTenants)]
			a.body = map[string]any{
				"structure":   runStructures[pr.structure],
				"parallelism": pr.parallelism,
				"backend":     "sim",
			}
			runs++
		case "job":
			a.tenant = serveTenants[jobs%len(serveTenants)]
			jobs++
		}
		out = append(out, a)
	}
	return out
}

// servePhase gathers one open-loop phase.
type servePhase struct {
	mu        sync.Mutex
	lat       map[string][]float64 // op → ms from due to done
	lag       []float64            // ms from due to a connection picking the op up
	call      map[string][]float64 // queue call → ms
	listPerK  []float64
	ok, sent  int64
	failed    int64
	s429      int64
	s503      int64
	wall      time.Duration
	cpu       time.Duration
	heapMB    float64
	admP99    float64
	queuedMax float64
}

func newServePhase() *servePhase {
	return &servePhase{lat: map[string][]float64{}, call: map[string][]float64{}}
}

func (ph *servePhase) add(op string, ms float64) {
	ph.mu.Lock()
	ph.lat[op] = append(ph.lat[op], ms)
	ph.mu.Unlock()
}

// status counts one request's outcome; code 0 is a transport error.
func (ph *servePhase) status(code int) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.sent++
	switch {
	case code/100 == 2:
		ph.ok++
	default:
		ph.failed++
		if code == http.StatusTooManyRequests {
			ph.s429++
		}
		if code == http.StatusServiceUnavailable {
			ph.s503++
		}
	}
}

// runPhase fires the arrivals open loop: a launcher hands each op to the
// two connection goroutines when it is due, however many are still in
// flight.
func (s *serveSession) runPhase(ctx context.Context, arrivals []arrival, tr *tracer, poll bool) *servePhase {
	ph := newServePhase()
	// Sized to the number of sends: the launcher never blocks, so the
	// schedule does not slow when the server does.
	work := make(chan arrival, len(arrivals))
	heap := startHeapSampler()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range work {
				s.do(ctx, a, start, ph, tr)
			}
		}()
	}
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if poll {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			s.pollStats(ctx, ph, stopPoll)
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
launch:
	for _, a := range arrivals {
		if d := time.Until(start.Add(a.due)); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break launch
			}
		}
		work <- a
	}
	close(work)
	wg.Wait()
	close(stopPoll)
	pollWG.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.heapMB = heap.mean()
	return ph
}

// do executes one op on the calling connection goroutine.
func (s *serveSession) do(ctx context.Context, a arrival, start time.Time, ph *servePhase, tr *tracer) {
	due := start.Add(a.due)
	picked := time.Now()
	ph.mu.Lock()
	ph.lag = append(ph.lag, float64(picked.Sub(due).Microseconds())/1e3)
	ph.mu.Unlock()
	req := int64(a.due)
	root := tr.begin(0, req, "server", a.op)
	defer tr.end(root)
	switch a.op {
	case "run":
		code, err := s.call(ctx, http.MethodPost, "/api/run", a.tenant, a.body, nil)
		ph.status(code)
		if err == nil {
			ph.mu.Lock()
			s.runWrites++
			ph.mu.Unlock()
		}
	case "job":
		s.jobCycle(ctx, a.tenant, ph, tr, root, req)
	case "list":
		code, _ := s.call(ctx, http.MethodGet, "/api/runs", "", nil, nil)
		ph.status(code)
		ph.mu.Lock()
		records := float64(s.seeded + s.runWrites + len(s.completed)*len(s.jobRecords))
		ph.listPerK = append(ph.listPerK, float64(time.Since(picked).Microseconds())/1e3/(records/1000))
		ph.mu.Unlock()
	}
	ph.add(a.op, float64(time.Since(due).Microseconds())/1e3)
}

// jobCycle is one fabric job: enqueue it, then lease the next job and
// complete it with the worker's records, as a worker does. Two
// connections run cycles at once, so the job leased may be the one the
// other connection enqueued.
func (s *serveSession) jobCycle(ctx context.Context, tenant string, ph *servePhase, tr *tracer, parent int, req int64) {
	timed := func(name string, f func() (int, error)) bool {
		sp := tr.begin(parent, req, "queue", name)
		t0 := time.Now()
		code, err := f()
		ms := float64(time.Since(t0).Microseconds()) / 1e3
		tr.end(sp)
		ph.status(code)
		ph.mu.Lock()
		ph.call[name] = append(ph.call[name], ms)
		ph.mu.Unlock()
		return err == nil
	}
	var enq struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if !timed("enqueue", func() (int, error) {
		return s.call(ctx, http.MethodPost, "/api/jobs", tenant, map[string]any{"spec": jobSpec}, &enq)
	}) || len(enq.Jobs) != 1 {
		return
	}
	var lease struct {
		Job *struct {
			ID      string `json:"id"`
			LeaseID string `json:"lease_id"`
		} `json:"job"`
	}
	if !timed("lease", func() (int, error) {
		return s.call(ctx, http.MethodPost, "/api/jobs/lease", "", map[string]any{"worker_id": s.workerID}, &lease)
	}) {
		return
	}
	if lease.Job == nil {
		// Every cycle enqueues before it leases, so a job is always
		// pending; an empty lease is a dispatcher fault.
		ph.mu.Lock()
		ph.failed++
		ph.mu.Unlock()
		return
	}
	id := lease.Job.ID
	if timed("complete", func() (int, error) {
		return s.call(ctx, http.MethodPost, "/api/jobs/"+id+"/complete", "", map[string]any{"lease_id": lease.Job.LeaseID, "records": s.jobRecords}, nil)
	}) {
		ph.mu.Lock()
		s.completed[id]++
		ph.mu.Unlock()
	}
}

// pollStats samples the front door's own counters while a phase runs.
func (s *serveSession) pollStats(ctx context.Context, ph *servePhase, stop <-chan struct{}) {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		var snap metrics.ServingSnapshot
		if _, err := s.call(ctx, http.MethodGet, "/api/serving/stats", "", nil, &snap); err == nil {
			ph.mu.Lock()
			if snap.AdmissionP99MS > ph.admP99 {
				ph.admP99 = snap.AdmissionP99MS
			}
			if q := float64(snap.QueuedRuns); q > ph.queuedMax {
				ph.queuedMax = q
			}
			ph.mu.Unlock()
		}
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// checkServe: the store holds the seeded records, every successful run
// write and every completed job's records, and every job the benchmark
// completed is completed exactly once.
func (s *serveSession) checkServe(ctx context.Context, out *outcome, tr *tracer) {
	jobRecs := 0
	for _, k := range s.completed {
		jobRecs += k * len(s.jobRecords)
	}
	want := s.seeded + s.runWrites + jobRecs
	var runs []json.RawMessage
	if _, err := s.call(ctx, http.MethodGet, "/api/runs", "", nil, &runs); err != nil {
		out.fail("serve: listing runs: %v", err)
	} else if len(runs) != want {
		out.fail("serve: GET /api/runs has %d records, want %d seeded + %d written + %d from jobs", len(runs), s.seeded, s.runWrites, jobRecs)
	}
	sp := tr.begin(0, 0, "storage", "Count")
	n, err := s.store.Count("runs")
	tr.end(sp)
	if err != nil || n != want {
		out.fail("serve: store counts %d runs (err %v), want %d", n, err, want)
	}
	var jobs []struct {
		ID          string `json:"id"`
		Completions int    `json:"completions"`
	}
	if _, err := s.call(ctx, http.MethodGet, "/api/jobs?status=completed", "", nil, &jobs); err != nil {
		out.fail("serve: listing completed jobs: %v", err)
		return
	}
	seen := map[string]int{}
	for _, j := range jobs {
		seen[j.ID]++
		if j.Completions != 1 {
			out.fail("serve: job %s has %d completions", j.ID, j.Completions)
		}
	}
	for id, k := range s.completed {
		if k != 1 || seen[id] != 1 {
			out.fail("serve: job %s completed %d times by the client, listed %d times", id, k, seen[id])
		}
	}
	if len(jobs) != len(s.completed) {
		out.fail("serve: %d completed jobs listed, the client completed %d", len(jobs), len(s.completed))
	}
}

func runServe(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	s, setupS, err := timeSetups(ctx, func() (*serveSession, error) { return openServe(ctx, cfg, tr) }, func(old *serveSession) { old.close() })
	if s != nil {
		defer s.close()
	}
	if err != nil {
		return out, err
	}
	out.e2e["setup_s"] = setupS
	phase := func(budget time.Duration, seed int64, t *tracer) *servePhase {
		ph := s.runPhase(ctx, schedule(seed, budget, serveRunRate, serveJobRate, serveListRate), t, t != nil)
		out.attempted += ph.sent
		out.failed += ph.failed
		return ph
	}
	if !cfg.trace {
		ph := phase(cfg.budget(), cfg.seed, nil)
		s.checkServe(ctx, out, nil)
		reportServe(out, ph)
		return out, ctx.Err()
	}
	half := cfg.budget() / 2
	// Both halves send the same schedule, so the overhead is tracing's
	// alone.
	base := phase(half, cfg.seed, nil)
	traced := phase(half, cfg.seed, tr)
	s.checkServe(ctx, out, tr)
	serveLayers(out, traced, s)
	out.layer["trace.overhead_pct"] = overheadPct(quantile(allLat(base), 0.5), quantile(allLat(traced), 0.5))
	out.layer["server.knee_rate_per_s"] = s.knee(ctx)
	finishTrace(tr, cfg, "serve", out)
	return out, ctx.Err()
}

func allLat(ph *servePhase) []float64 {
	var xs []float64
	for _, op := range serveOps {
		xs = append(xs, ph.lat[op]...)
	}
	return xs
}

func reportServe(out *outcome, ph *servePhase) {
	lats := allLat(ph)
	out.e2e["heap_mean_mb"] = ph.heapMB
	out.e2e["throughput_per_s"] = float64(ph.ok) / ph.wall.Seconds()
	out.e2e["cpu_ms_per_kop"] = float64(ph.cpu.Microseconds()) / 1e3 / float64(ph.sent) * 1000
	out.e2e["latency_p50_ms"] = quantile(lats, 0.5)
	out.e2e["latency_p99_ms"] = quantile(lats, 0.99)
}

func serveLayers(out *outcome, ph *servePhase, s *serveSession) {
	for _, op := range serveOps {
		out.layer["server.op_p50_ms."+op] = quantile(ph.lat[op], 0.5)
		out.layer["server.op_p99_ms."+op] = quantile(ph.lat[op], 0.99)
	}
	out.layer["server.admission_p99_ms"] = ph.admP99
	out.layer["server.queued_runs_max"] = ph.queuedMax
	out.layer["server.rejected_429"] = float64(ph.s429)
	out.layer["server.shed_503"] = float64(ph.s503)
	out.layer["server.client_lag_p99_ms"] = quantile(ph.lag, 0.99)
	for _, c := range []string{"enqueue", "lease", "complete"} {
		out.layer["queue."+c+"_ms"] = median(ph.call[c])
	}
	out.layer["storage.seed_mb_per_s"] = s.seedMBps
	out.layer["storage.list_ms_per_krecord"] = median(ph.listPerK)
	if fi, err := os.Stat(filepath.Join(s.dir, "runs.jsonl")); err == nil {
		if n, err := s.store.Count("runs"); err == nil && n > 0 {
			out.layer["storage.bytes_per_record"] = float64(fi.Size()) / float64(n)
		}
	}
}

// knee climbs the ladder of run-only rates and returns the highest rate
// the front door serves within kneeLimitMS at 95% goodput. It runs after
// the checks; its requests are a diagnostic and count in no result.
func (s *serveSession) knee(ctx context.Context) float64 {
	best := 0.0
	for i, rate := range kneeLadder {
		ph := s.runPhase(ctx, schedule(int64(1000+i), kneeStep, rate, 0, 0), nil, false)
		lats := ph.lat["run"]
		if len(lats) == 0 || float64(ph.ok) < 0.95*float64(len(lats)) || quantile(lats, 0.99) > kneeLimitMS {
			break
		}
		best = rate
	}
	return best
}
