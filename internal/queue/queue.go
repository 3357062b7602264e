// Package queue is the durable heart of PDSP-Bench's distributed
// campaign fabric: a lease-based job queue of benchmark campaigns
// (controller.Spec, including fault plans) that the dispatcher
// (internal/server) exposes over HTTP and `pdspbench worker` daemons
// drain. It turns the single-process campaign runner into the
// coordinator/driver split that distributed benchmarking harnesses use
// (Karimov et al.; SProBench), so the ML corpus grows with the number
// of workers instead of the speed of one machine.
//
// Ownership rules and invariants:
//
//   - Durability is a journal. Every state transition appends one
//     journalEntry to a storage collection (append-only, see
//     internal/storage) and is applied in memory only after the append
//     succeeds, so a storage failure aborts the transition cleanly
//     instead of leaving memory ahead of the journal; Open replays the
//     journal to rebuild state, so the queue survives dispatcher
//     restarts. Nothing is ever rewritten in place.
//   - Job IDs are deterministic: a job's ID is derived from its
//     campaign spec and its enqueue ordinal, so replaying the same
//     enqueue sequence reproduces the same IDs, and records can be
//     traced back to jobs across restarts.
//   - Leases are the only execution grant. A job is executed by at most
//     one worker at a time: Lease hands out a single-use lease token,
//     and Extend/Complete/Fail all require the current token. A worker
//     that loses its lease (expiry, missed heartbeats, dispatcher
//     restart) can still finish computing, but its Complete is rejected
//     with ErrStaleLease — execution is at-least-once, *completion* is
//     exactly-once (Job.Completions can only ever reach 1).
//   - Time is monotonic and injected. All deadlines (lease expiry,
//     retry backoff, heartbeat staleness) live on a process-local
//     monotonic millisecond clock (NowMS), never the wall clock, so
//     the queue is immune to wall-clock jumps and stays lint-clean
//     under the determinism analyzers. Journal timestamps are
//     meaningless across processes — which is exactly why replay
//     reclaims every leased job (see Open).
//   - Retries are bounded. Each Lease consumes one attempt; a failed or
//     reclaimed job re-enters the pending state with exponential
//     backoff until MaxAttempts is exhausted, then parks as failed.
//
// Only the dispatcher (internal/server), the controller layer and the
// CLI may import this package — enforced by pdsplint's api-boundary
// restricted-import rule.
package queue

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pdspbench/internal/controller"
	"pdspbench/internal/storage"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle: pending → leased → completed, with leased → pending
// retries (lease expiry, reported failure, dispatcher restart) until
// attempts are exhausted, then leased → failed.
const (
	StatusPending   Status = "pending"
	StatusLeased    Status = "leased"
	StatusCompleted Status = "completed"
	StatusFailed    Status = "failed"
)

// Multi-tenant accounting: every job carries the tenant that enqueued
// it (the serving front door's X-Tenant header, see internal/server),
// so queue listings and stats can be partitioned per tenant and the
// storm harness can verify quota isolation end to end.
const (
	// DefaultTenant labels jobs enqueued without a tenant.
	DefaultTenant = "default"
	// TenantHeader is the HTTP header that names the tenant; the
	// dispatcher reads it and Client sends it.
	TenantHeader = "X-Tenant"
)

// ValidStatus reports whether s names a job state (for API filters).
func ValidStatus(s Status) bool {
	switch s {
	case StatusPending, StatusLeased, StatusCompleted, StatusFailed:
		return true
	}
	return false
}

// Job is one queued campaign execution.
type Job struct {
	// ID is deterministic: derived from the campaign spec and the
	// enqueue ordinal (see jobID), stable across journal replays.
	ID string `json:"id"`
	// Seq is the enqueue ordinal; jobs lease in Seq (FIFO) order.
	Seq int `json:"seq"`
	// Campaign is the work: a full declarative benchmark campaign,
	// including Faults. Treat as read-only once enqueued.
	Campaign controller.Spec `json:"campaign"`
	// Tenant is the enqueuing tenant (DefaultTenant when none given).
	Tenant string `json:"tenant,omitempty"`
	Status Status `json:"status"`
	// Attempts counts leases handed out for this job; bounded by
	// MaxAttempts.
	Attempts    int `json:"attempts"`
	MaxAttempts int `json:"max_attempts"`
	// Worker is the current (status leased) or last leaseholder.
	Worker string `json:"worker,omitempty"`
	// LeaseID is the single-use token Extend/Complete/Fail must echo.
	LeaseID string `json:"lease_id,omitempty"`
	// LeaseExpiresMS / NotBeforeMS are process-monotonic deadlines:
	// when the lease is reclaimed, and when a retrying job becomes
	// leasable again.
	LeaseExpiresMS int64 `json:"lease_expires_ms,omitempty"`
	NotBeforeMS    int64 `json:"not_before_ms,omitempty"`
	// Completions is the exactly-once gauge: 0 or 1, only Complete
	// with the live lease token increments it.
	Completions int `json:"completions"`
	// Records counts the RunRecords the completing worker reported.
	Records int `json:"records,omitempty"`
	// Error is the most recent failure message (reported or reclaim).
	Error string `json:"error,omitempty"`
}

// Backend names the execution backend the job needs ("" means sim).
func (j *Job) Backend() string {
	if j.Campaign.Backend == "" {
		return "sim"
	}
	return j.Campaign.Backend
}

// WorkerInfo is one registered worker daemon. Workers are ephemeral and
// not journaled: after a dispatcher restart every daemon re-registers on
// its next heartbeat cycle and receives a fresh ID.
type WorkerInfo struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Capacity bounds concurrent leases held by this worker (≤0 = 1).
	Capacity int `json:"capacity"`
	// Backends lists the execution backends the worker can run; empty
	// means any.
	Backends []string `json:"backends,omitempty"`
	// LastSeenMS is the monotonic time of the last register/heartbeat/
	// lease; staleness past the heartbeat TTL reclaims the worker's
	// leases.
	LastSeenMS int64 `json:"last_seen_ms"`
	// Leased counts jobs currently leased to this worker.
	Leased int `json:"leased"`
}

// Options tune a queue; the zero value gets defaults from New.
type Options struct {
	// Collection is the journal's storage collection (default
	// "fabric-journal" is invalid — storage forbids dashes — so the
	// default is "fabricjournal").
	Collection string
	// LeaseTTL is how long a lease lives without Extend (default 30s).
	LeaseTTL time.Duration
	// HeartbeatTTL is how stale a worker's last contact may grow before
	// its leases are reclaimed (default 3×LeaseTTL).
	HeartbeatTTL time.Duration
	// RetryBackoff is the base retry delay; attempt n waits
	// RetryBackoff << (n-1) (default 1s).
	RetryBackoff time.Duration
	// MaxAttempts bounds leases per job (default 3).
	MaxAttempts int
	// NowMS supplies monotonic milliseconds; the default measures
	// time.Since a process-start anchor (monotonic reading, immune to
	// wall-clock jumps). Tests inject a fake.
	NowMS func() int64
}

// Sentinel errors of the lease protocol; the dispatcher maps them to
// HTTP statuses (404, 409).
var (
	ErrUnknownJob    = errors.New("queue: unknown job")
	ErrUnknownWorker = errors.New("queue: unknown worker (re-register after a dispatcher restart)")
	ErrStaleLease    = errors.New("queue: stale or missing lease")
	ErrNotLeasable   = errors.New("queue: job is not leasable")
)

// monotonicStart anchors the default clock; time.Since carries the
// monotonic reading, so the scale never jumps with the wall clock.
var monotonicStart = time.Now()

func defaultNowMS() int64 { return time.Since(monotonicStart).Milliseconds() }

// Queue is a durable, lease-based campaign job queue. All methods are
// safe for concurrent use; one mutex guards the whole state, and every
// mutation is journaled to the store under the same critical section,
// so the journal order is the state's serialization order.
//
// A job cycle (lease, extend, complete, fail, heartbeat, stats) costs
// O(live jobs), never O(history): Lease walks only the pending index,
// reaping walks only the leased index, and Snapshot reads counters.
// apply, the fold that live journaling and replay share, is the only
// code that moves a job between statuses, and it keeps the indexes and
// counters in step. Only the listings walk every job.
type Queue struct {
	store *storage.Store
	opts  Options

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // job IDs in enqueue order, for the listings
	pending []*Job   // pending jobs in Seq order
	leased  []*Job   // leased jobs in Seq order
	counts  map[string]*TenantCounts
	workers map[string]*WorkerInfo
	seq     int // enqueue ordinal
	wseq    int // worker ordinal
	// walked counts the jobs Lease and reaping have examined, so tests
	// can pin that a job cycle does not walk completed jobs.
	walked int
}

// New opens a queue over the store, replaying the journal collection to
// rebuild state. Jobs found leased in the journal belonged to a previous
// dispatcher process (their monotonic deadlines are meaningless here),
// so replay reclaims them: back to pending if attempts remain, failed
// otherwise.
func New(store *storage.Store, opts Options) (*Queue, error) {
	if opts.Collection == "" {
		opts.Collection = "fabricjournal"
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.HeartbeatTTL <= 0 {
		opts.HeartbeatTTL = 3 * opts.LeaseTTL
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.NowMS == nil {
		opts.NowMS = defaultNowMS
	}
	q := &Queue{
		store:   store,
		opts:    opts,
		jobs:    map[string]*Job{},
		counts:  map[string]*TenantCounts{},
		workers: map[string]*WorkerInfo{},
	}
	if err := q.replay(); err != nil {
		return nil, err
	}
	return q, nil
}

// journalEntry is one durable state transition. Enqueue snapshots the
// whole job; later ops reference it by ID and carry the fields the
// transition changed, so replay is a pure fold over the entries.
type journalEntry struct {
	Op          string `json:"op"` // enqueue|lease|extend|complete|fail|requeue
	Job         *Job   `json:"job,omitempty"`
	JobID       string `json:"job_id,omitempty"`
	Worker      string `json:"worker,omitempty"`
	LeaseID     string `json:"lease_id,omitempty"`
	ExpiresMS   int64  `json:"expires_ms,omitempty"`
	NotBeforeMS int64  `json:"not_before_ms,omitempty"`
	Status      Status `json:"status,omitempty"`
	Records     int    `json:"records,omitempty"`
	Error       string `json:"error,omitempty"`
}

// replay rebuilds in-memory state from the journal.
func (q *Queue) replay() error {
	entries, err := storage.Load[journalEntry](q.store, q.opts.Collection)
	if err != nil {
		return fmt.Errorf("queue: replay: %w", err)
	}
	for i, e := range entries {
		if err := q.apply(&e); err != nil {
			return fmt.Errorf("queue: replay entry %d: %w", i, err)
		}
	}
	// Reclaim leases from the previous process: their monotonic
	// deadlines are meaningless on this process's clock, and the worker
	// IDs they reference no longer exist. A second replay of the
	// resulting journal reaches the same conclusion.
	now := q.opts.NowMS()
	for _, j := range slices.Clone(q.leased) {
		q.reclaim(j, now, "dispatcher restart reclaimed lease")
	}
	return nil
}

// apply folds one journal entry into the state (no journaling; replay
// and live mutation share this). Every status change goes through
// setStatus, so the indexes and counters follow the journal.
func (q *Queue) apply(e *journalEntry) error {
	switch e.Op {
	case "enqueue":
		if e.Job == nil {
			return errors.New("enqueue entry without job")
		}
		if _, ok := q.jobs[e.Job.ID]; ok {
			return fmt.Errorf("enqueue of existing job %s", e.Job.ID)
		}
		j := *e.Job
		if j.Tenant == "" {
			j.Tenant = DefaultTenant // journals from before tenancy
		}
		q.jobs[j.ID] = &j
		q.order = append(q.order, j.ID)
		q.index(&j)
		if j.Seq > q.seq {
			q.seq = j.Seq
		}
	case "lease":
		j, ok := q.jobs[e.JobID]
		if !ok {
			return fmt.Errorf("lease of unknown job %s", e.JobID)
		}
		q.setStatus(j, StatusLeased)
		j.Worker = e.Worker
		j.LeaseID = e.LeaseID
		j.LeaseExpiresMS = e.ExpiresMS
		j.Attempts++
		j.Error = ""
	case "extend":
		j, ok := q.jobs[e.JobID]
		if !ok {
			return fmt.Errorf("extend of unknown job %s", e.JobID)
		}
		j.LeaseExpiresMS = e.ExpiresMS
	case "complete":
		j, ok := q.jobs[e.JobID]
		if !ok {
			return fmt.Errorf("complete of unknown job %s", e.JobID)
		}
		q.setStatus(j, StatusCompleted)
		j.Completions++
		j.Records = e.Records
		j.LeaseID = ""
		j.LeaseExpiresMS = 0
	case "fail", "requeue":
		j, ok := q.jobs[e.JobID]
		if !ok {
			return fmt.Errorf("%s of unknown job %s", e.Op, e.JobID)
		}
		q.setStatus(j, e.Status)
		j.NotBeforeMS = e.NotBeforeMS
		j.Error = e.Error
		j.LeaseID = ""
		j.LeaseExpiresMS = 0
	default:
		return fmt.Errorf("unknown journal op %q", e.Op)
	}
	return nil
}

// setStatus moves j to status s in the indexes and counters.
func (q *Queue) setStatus(j *Job, s Status) {
	if j.Status == s {
		return
	}
	q.unindex(j)
	j.Status = s
	q.index(j)
}

// index adds j, at its current status, to the counters and to the
// pending or leased index at its Seq slot.
func (q *Queue) index(j *Job) {
	if idx := q.statusIndex(j.Status); idx != nil {
		i, _ := slices.BinarySearchFunc(*idx, j.Seq, bySeq)
		*idx = slices.Insert(*idx, i, j)
	}
	q.count(j, 1)
}

// unindex removes j, at its current status, from what index added it to.
func (q *Queue) unindex(j *Job) {
	if idx := q.statusIndex(j.Status); idx != nil {
		if i, ok := slices.BinarySearchFunc(*idx, j.Seq, bySeq); ok {
			*idx = slices.Delete(*idx, i, i+1)
		}
	}
	q.count(j, -1)
}

// statusIndex is the index that holds jobs of status s, or nil.
func (q *Queue) statusIndex(s Status) *[]*Job {
	switch s {
	case StatusPending:
		return &q.pending
	case StatusLeased:
		return &q.leased
	}
	return nil
}

func bySeq(j *Job, seq int) int { return j.Seq - seq }

// count adds d to j's tenant's counter for j's status.
func (q *Queue) count(j *Job, d int) {
	c, ok := q.counts[j.Tenant]
	if !ok {
		c = &TenantCounts{}
		q.counts[j.Tenant] = c
	}
	switch j.Status {
	case StatusPending:
		c.Pending += d
	case StatusLeased:
		c.Leased += d
	case StatusCompleted:
		c.Completed += d
	case StatusFailed:
		c.Failed += d
	}
}

// journal appends the entry to the store and only then applies it to
// memory. Append-first means a storage failure leaves the in-memory
// state untouched: the transition simply did not happen, the caller
// sees the error, and the operation can be retried. For Complete this
// is what keeps the lease intact when the journal write fails, so the
// worker's retry is accepted instead of bouncing off ErrStaleLease
// against a half-applied completion.
func (q *Queue) journal(e *journalEntry) error {
	if err := q.store.Append(q.opts.Collection, e); err != nil {
		return fmt.Errorf("queue: journal: %w", err)
	}
	return q.apply(e)
}

// jobID derives the deterministic job identifier: a hash of the
// campaign's canonical JSON and the enqueue ordinal, prefixed with the
// ordinal for human-readable FIFO listings.
func jobID(spec *controller.Spec, seq int) string {
	data, err := json.Marshal(spec)
	if err != nil {
		data = []byte(spec.Name) // specs are plain data; marshal cannot realistically fail
	}
	h := sha256.New()
	h.Write(data)
	fmt.Fprintf(h, "#%d", seq)
	return fmt.Sprintf("j%03d-%x", seq, h.Sum(nil)[:5])
}

// Enqueue validates and appends one campaign job. maxAttempts ≤ 0 uses
// the queue default.
func (q *Queue) Enqueue(spec controller.Spec, maxAttempts int) (Job, error) {
	jobs, err := q.EnqueueAll([]controller.Spec{spec}, maxAttempts, "")
	if err != nil {
		return Job{}, err
	}
	return jobs[0], nil
}

// EnqueueAll validates and appends a batch of campaign jobs atomically:
// every spec is validated up front, then all journal entries land in a
// single AppendAll write, so either the whole batch is durably enqueued
// or none of it is. The dispatcher shards campaigns through this so a
// failed POST /api/jobs can be retried without duplicating the shards
// that made it in before the error. tenant attributes the batch
// (DefaultTenant when empty).
func (q *Queue) EnqueueAll(specs []controller.Spec, maxAttempts int, tenant string) ([]Job, error) {
	if len(specs) == 0 {
		return nil, errors.New("queue: enqueue of empty batch")
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	if maxAttempts <= 0 {
		maxAttempts = q.opts.MaxAttempts
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	jobs := make([]Job, len(specs))
	entries := make([]any, len(specs))
	for i := range specs {
		seq := q.seq + i + 1
		jobs[i] = Job{
			ID:          jobID(&specs[i], seq),
			Seq:         seq,
			Campaign:    specs[i],
			Tenant:      tenant,
			Status:      StatusPending,
			MaxAttempts: maxAttempts,
		}
		entries[i] = &journalEntry{Op: "enqueue", Job: &jobs[i]}
	}
	if err := q.store.AppendAll(q.opts.Collection, entries...); err != nil {
		return nil, fmt.Errorf("queue: journal: %w", err)
	}
	for _, e := range entries {
		if err := q.apply(e.(*journalEntry)); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// RegisterWorker adds (or re-adds) a worker daemon and returns its
// assigned ID. Worker IDs are ordinal per dispatcher process.
func (q *Queue) RegisterWorker(name string, capacity int, backends []string) WorkerInfo {
	q.mu.Lock()
	defer q.mu.Unlock()
	if capacity <= 0 {
		capacity = 1
	}
	q.wseq++
	w := &WorkerInfo{
		ID:         fmt.Sprintf("w%d", q.wseq),
		Name:       name,
		Capacity:   capacity,
		Backends:   append([]string(nil), backends...),
		LastSeenMS: q.opts.NowMS(),
	}
	q.workers[w.ID] = w
	return *w
}

// Heartbeat refreshes the worker's liveness and reaps expired leases
// queue-wide (the fabric has no background reaper goroutine; liveness
// work rides on worker traffic).
func (q *Queue) Heartbeat(workerID string) (WorkerInfo, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	w, ok := q.workers[workerID]
	if !ok {
		return WorkerInfo{}, ErrUnknownWorker
	}
	now := q.opts.NowMS()
	w.LastSeenMS = now
	q.reapLocked(now)
	return *w, nil
}

// Lease hands the oldest eligible pending job to the worker: FIFO over
// jobs whose backoff has elapsed, whose backend the worker can run, and
// while the worker has capacity. Returns (nil, nil) when nothing is
// leasable.
func (q *Queue) Lease(workerID string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	w, ok := q.workers[workerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	now := q.opts.NowMS()
	w.LastSeenMS = now
	q.reapLocked(now)
	if w.Leased >= w.Capacity {
		return nil, nil
	}
	for _, j := range q.pending {
		q.walked++
		if j.NotBeforeMS > now || !workerCanRun(w, j) {
			continue
		}
		return q.leaseLocked(w, j, now)
	}
	return nil, nil
}

// LeaseJob leases one specific job to the worker (the targeted variant
// of Lease for callers that picked a job from GET /api/jobs). Returns
// ErrNotLeasable when the job exists but is not currently grantable to
// this worker.
func (q *Queue) LeaseJob(workerID, jobID string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	w, ok := q.workers[workerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	now := q.opts.NowMS()
	w.LastSeenMS = now
	q.reapLocked(now)
	j, ok := q.jobs[jobID]
	if !ok {
		return nil, ErrUnknownJob
	}
	if w.Leased >= w.Capacity || j.Status != StatusPending || j.NotBeforeMS > now || !workerCanRun(w, j) {
		return nil, ErrNotLeasable
	}
	return q.leaseLocked(w, j, now)
}

// leaseLocked grants the lease; callers hold q.mu and have verified
// eligibility.
func (q *Queue) leaseLocked(w *WorkerInfo, j *Job, now int64) (*Job, error) {
	e := &journalEntry{
		Op:        "lease",
		JobID:     j.ID,
		Worker:    w.ID,
		LeaseID:   fmt.Sprintf("%s.%s.a%d", j.ID, w.ID, j.Attempts+1),
		ExpiresMS: now + q.opts.LeaseTTL.Milliseconds(),
	}
	if err := q.journal(e); err != nil {
		return nil, err
	}
	w.Leased++
	out := *j
	return &out, nil
}

// workerCanRun checks backend capability.
func workerCanRun(w *WorkerInfo, j *Job) bool {
	if len(w.Backends) == 0 {
		return true
	}
	need := j.Backend()
	for _, b := range w.Backends {
		if b == need {
			return true
		}
	}
	return false
}

// Extend renews the lease; only the current leaseholder's token works.
func (q *Queue) Extend(id, leaseID string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	if j.Status != StatusLeased || j.LeaseID != leaseID {
		return Job{}, ErrStaleLease
	}
	e := &journalEntry{Op: "extend", JobID: id, ExpiresMS: q.opts.NowMS() + q.opts.LeaseTTL.Milliseconds()}
	if err := q.journal(e); err != nil {
		return Job{}, err
	}
	return *j, nil
}

// Complete marks the job done. It is the exactly-once gate: expired or
// superseded leases get ErrStaleLease and the job's results must be
// discarded by the caller.
//
// persist, when non-nil, is the caller's hook for landing the job's
// RunRecords; it runs under the queue lock after the lease check passes
// and before the completion is journaled. That ordering gives the
// dispatcher three guarantees: a stale completion never persists
// anything, concurrent completions cannot interleave their batches, and
// a persist failure aborts the completion with the lease intact — the
// worker's retry of the same Complete (same token) is accepted. The one
// window left is crash-grade: if persist succeeds and the journal
// append then fails, a retried Complete persists the batch again, so
// persist should tolerate duplicates across storage-failure retries.
func (q *Queue) Complete(id, leaseID string, records int, persist func() error) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.NowMS()
	q.reapLocked(now)
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	if j.Status != StatusLeased || j.LeaseID != leaseID {
		return Job{}, ErrStaleLease
	}
	if persist != nil {
		if err := persist(); err != nil {
			return Job{}, fmt.Errorf("queue: persist records: %w", err)
		}
	}
	if err := q.journal(&journalEntry{Op: "complete", JobID: id, Records: records}); err != nil {
		return Job{}, err
	}
	q.releaseWorker(j.Worker)
	return *j, nil
}

// Fail reports an execution error from the leaseholder; the job retries
// with exponential backoff until MaxAttempts, then parks as failed.
func (q *Queue) Fail(id, leaseID, msg string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.NowMS()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	if j.Status != StatusLeased || j.LeaseID != leaseID {
		return Job{}, ErrStaleLease
	}
	if err := q.journal(q.retryEntry(j, now, "fail", msg, true)); err != nil {
		return Job{}, err
	}
	q.releaseWorker(j.Worker)
	return *j, nil
}

// retryEntry builds the fail/requeue transition: pending while attempts
// remain, failed otherwise. Exponential backoff applies only to
// *reported* failures (the workload itself is suspect); lease reclaims
// requeue immediately — the lapsed lease TTL was already the wait, and
// the attempt bound still caps crash loops.
func (q *Queue) retryEntry(j *Job, now int64, op, msg string, backoff bool) *journalEntry {
	e := &journalEntry{Op: op, JobID: j.ID, Error: msg}
	if j.Attempts >= j.MaxAttempts {
		e.Status = StatusFailed
		return e
	}
	e.Status = StatusPending
	e.NotBeforeMS = now
	if backoff {
		e.NotBeforeMS += q.opts.RetryBackoff.Milliseconds() << uint(j.Attempts-1)
	}
	return e
}

// reapLocked reclaims leases whose deadline passed or whose worker has
// gone silent past the heartbeat TTL, in Seq order. Called with q.mu
// held, on every worker-driven entry point — the queue has no timer
// goroutine.
func (q *Queue) reapLocked(now int64) {
	var lapsed []*Job
	for _, j := range q.leased {
		q.walked++
		w, known := q.workers[j.Worker]
		if j.LeaseExpiresMS <= now || !known || now-w.LastSeenMS > q.opts.HeartbeatTTL.Milliseconds() {
			lapsed = append(lapsed, j)
		}
	}
	for _, j := range lapsed {
		reason := fmt.Sprintf("lease expired on worker %s", j.Worker)
		if j.LeaseExpiresMS > now {
			reason = fmt.Sprintf("worker %s missed heartbeats", j.Worker)
		}
		q.reclaim(j, now, reason)
	}
}

// reclaim requeues or fails a leased job, best-effort. Journaling is
// append-first, so a failed write leaves the job leased in memory too —
// the next worker-driven entry point (or replay, after a restart)
// retries the reap, which is why the error is deliberately dropped
// rather than propagated. The worker's lease slot is released only when
// the transition actually applied.
func (q *Queue) reclaim(j *Job, now int64, reason string) {
	if err := q.journal(q.retryEntry(j, now, "requeue", reason, false)); err == nil {
		q.releaseWorker(j.Worker)
	}
}

// releaseWorker decrements the worker's lease count if it is known.
func (q *Queue) releaseWorker(workerID string) {
	if w, ok := q.workers[workerID]; ok && w.Leased > 0 {
		w.Leased--
	}
}

// Job returns a snapshot of one job.
func (q *Queue) Job(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs lists snapshots in enqueue order, optionally filtered by status
// ("" = all). It reaps first so listings reflect lease expiry.
func (q *Queue) Jobs(status Status) []Job {
	return q.JobsTenant(status, "")
}

// JobsTenant is Jobs with an additional tenant filter ("" = all
// tenants).
func (q *Queue) JobsTenant(status Status, tenant string) []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.NowMS())
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		j := q.jobs[id]
		if status != "" && j.Status != status {
			continue
		}
		if tenant != "" && j.Tenant != tenant {
			continue
		}
		out = append(out, *j)
	}
	return out
}

// Workers lists registered workers in registration order.
func (q *Queue) Workers() []WorkerInfo {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]WorkerInfo, 0, len(q.workers))
	for i := 1; i <= q.wseq; i++ {
		if w, ok := q.workers[fmt.Sprintf("w%d", i)]; ok {
			out = append(out, *w)
		}
	}
	return out
}

// TenantCounts is one tenant's slice of the queue, by job status.
type TenantCounts struct {
	Pending   int `json:"pending"`
	Leased    int `json:"leased"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
}

// Stats summarizes the queue for listings and drain detection.
type Stats struct {
	Pending   int `json:"pending"`
	Leased    int `json:"leased"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Workers   int `json:"workers"`
	// ByTenant partitions the job counts by enqueuing tenant.
	ByTenant map[string]TenantCounts `json:"by_tenant,omitempty"`
}

// Snapshot reaps and reports the job counts by status, totalled and per
// tenant. Workers counts every worker registered with this process.
func (q *Queue) Snapshot() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.NowMS())
	s := Stats{ByTenant: make(map[string]TenantCounts, len(q.counts)), Workers: len(q.workers)}
	for tenant, c := range q.counts {
		s.ByTenant[tenant] = *c
		s.Pending += c.Pending
		s.Leased += c.Leased
		s.Completed += c.Completed
		s.Failed += c.Failed
	}
	return s
}

// LeaseTTL exposes the configured lease lifetime (the dispatcher
// advertises it to registering workers).
func (q *Queue) LeaseTTL() time.Duration { return q.opts.LeaseTTL }

// HeartbeatTTL exposes the configured heartbeat staleness bound.
func (q *Queue) HeartbeatTTL() time.Duration { return q.opts.HeartbeatTTL }
