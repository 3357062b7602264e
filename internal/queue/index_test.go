package queue

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"pdspbench/internal/controller"
	"pdspbench/internal/storage"
)

// The queue keeps a pending index, a leased index and per-tenant
// counters beside its jobs. These tests hold them to a naive recount
// over the job listing after every step of random operation sequences,
// and pin that a job cycle never walks completed jobs.

// transitions drives one queue through a sequence of operations decoded
// from bytes and checks it after every step.
type transitions struct {
	t       *testing.T
	st      *storage.Store
	clock   *fakeClock
	q       *Queue
	workers []string          // workers registered with the current q
	jobs    []string          // every job ID enqueued, in order
	leases  []string          // job IDs in the order they were leased
	tokens  map[string]string // job ID → the last lease token handed out
}

// transitionOpts lets a worker go silent while its extended lease is
// still live: 800 ms steps with an Extend between them reap it for
// missed heartbeats.
var transitionOpts = Options{
	LeaseTTL:     time.Second,
	HeartbeatTTL: 1500 * time.Millisecond,
	RetryBackoff: 100 * time.Millisecond,
	MaxAttempts:  3,
}

func newTransitions(t *testing.T) *transitions {
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	m := &transitions{t: t, st: st, clock: &fakeClock{}, tokens: map[string]string{}}
	m.restart()
	return m
}

// restart opens a fresh queue over the same store, as a dispatcher
// restart does: state comes back from the journal, workers do not.
func (m *transitions) restart() {
	opts := transitionOpts
	opts.NowMS = m.clock.Now
	q, err := New(m.st, opts)
	if err != nil {
		m.t.Fatal(err)
	}
	m.q, m.workers = q, nil
}

func (m *transitions) worker(b byte) string {
	if len(m.workers) == 0 {
		return "w0" // never registered: the queue must say so
	}
	return m.workers[int(b)%len(m.workers)]
}

// job picks, by b, one of the last four jobs leased or any job enqueued.
func (m *transitions) job(b byte) string {
	if b%2 == 0 && len(m.leases) > 0 {
		return m.leases[len(m.leases)-1-int(b/2)%min(len(m.leases), 4)]
	}
	if len(m.jobs) == 0 {
		return "nope"
	}
	return m.jobs[int(b)%len(m.jobs)]
}

// leased records a lease the queue handed out.
func (m *transitions) leased(j *Job) {
	m.leases = append(m.leases, j.ID)
	m.tokens[j.ID] = j.LeaseID
}

// token is the job's last lease token, or a bogus one when b says so.
func (m *transitions) token(id string, b byte) string {
	if b%5 == 0 {
		return "bogus"
	}
	return m.tokens[id]
}

// ops maps an operation byte to an operation, weighted toward the job
// cycle.
var ops = []string{
	"enqueue", "enqueue", "register", "lease", "lease", "lease", "leaseJob",
	"extend", "extend", "complete", "complete", "fail", "advance", "advance",
	"heartbeat", "restart",
}

// run decodes data three bytes per operation and applies each.
func (m *transitions) run(data []byte) {
	for i := 0; i < len(data); i += 3 {
		var op, a, b byte
		op = data[i]
		if i+1 < len(data) {
			a = data[i+1]
		}
		if i+2 < len(data) {
			b = data[i+2]
		}
		m.step(op, a, b)
		m.check()
	}
}

func (m *transitions) step(op, a, b byte) {
	q := m.q
	switch ops[int(op)%len(ops)] {
	case "enqueue": // a batch of one or two jobs
		specs := []controller.Spec{testSpec("p", 1+int(a%4))}
		if a%3 == 0 {
			specs = append(specs, testSpec("p", 2))
		}
		if b%4 == 0 {
			specs[0].Backend = "real"
		}
		jobs, err := q.EnqueueAll(specs, int(b%3)+1, []string{"", "alpha", "beta"}[a%3])
		if err != nil {
			m.t.Fatal(err)
		}
		for _, j := range jobs {
			m.jobs = append(m.jobs, j.ID)
		}
	case "register":
		backends := [][]string{nil, {"sim"}, {"real"}}[b%3]
		m.workers = append(m.workers, q.RegisterWorker("wk", 1+int(a%2), backends).ID)
	case "lease":
		id := m.worker(a)
		want, wantErr := m.expectLease(id)
		j, err := q.Lease(id)
		if !errors.Is(err, wantErr) {
			m.t.Fatalf("Lease(%s): error %v, want %v", id, err, wantErr)
		}
		got := ""
		if j != nil {
			got = j.ID
			m.leased(j)
		}
		if got != want {
			m.t.Fatalf("Lease(%s) leased %q, a FIFO scan of eligible pending jobs picks %q", id, got, want)
		}
	case "leaseJob":
		if j, err := q.LeaseJob(m.worker(a), m.job(b)); err == nil {
			m.leased(j)
		}
	case "extend":
		id := m.job(a)
		q.Extend(id, m.token(id, b))
	case "complete":
		id := m.job(a)
		q.Complete(id, m.token(id, b), int(b%3), nil)
	case "fail":
		id := m.job(a)
		q.Fail(id, m.token(id, b), "boom")
	case "advance": // up to 1.4 s, or far past both TTLs
		d := time.Duration(a%8) * 200 * time.Millisecond
		if a%8 == 7 {
			d = 4 * time.Second
		}
		m.clock.Advance(d)
	case "heartbeat":
		q.Heartbeat(m.worker(a))
	case "restart":
		m.restart()
	}
}

// expectLease is what a FIFO scan over the listing says Lease must
// return: the first pending job past its backoff whose backend the
// worker runs, if the worker has a free slot.
func (m *transitions) expectLease(workerID string) (string, error) {
	jobs := m.q.Jobs("") // reaps at the same instant Lease will
	i := slices.IndexFunc(m.q.Workers(), func(w WorkerInfo) bool { return w.ID == workerID })
	if i < 0 {
		return "", ErrUnknownWorker
	}
	w := m.q.Workers()[i]
	if w.Leased >= w.Capacity {
		return "", nil
	}
	now := m.clock.Now()
	for _, j := range jobs {
		if j.Status == StatusPending && j.NotBeforeMS <= now &&
			(len(w.Backends) == 0 || slices.Contains(w.Backends, j.Backend())) {
			return j.ID, nil
		}
	}
	return "", nil
}

// check recounts the listing and holds Snapshot, the indexes and the
// workers' lease counts to it.
func (m *transitions) check() {
	m.t.Helper()
	q := m.q
	got := q.Snapshot()
	jobs := q.Jobs("")
	want := Stats{ByTenant: map[string]TenantCounts{}, Workers: len(q.Workers())}
	var pending, leased []string
	held := map[string]int{}
	for _, j := range jobs {
		tc := want.ByTenant[j.Tenant]
		switch j.Status {
		case StatusPending:
			want.Pending++
			tc.Pending++
			pending = append(pending, j.ID)
		case StatusLeased:
			want.Leased++
			tc.Leased++
			leased = append(leased, j.ID)
			held[j.Worker]++
		case StatusCompleted:
			want.Completed++
			tc.Completed++
		case StatusFailed:
			want.Failed++
			tc.Failed++
		}
		want.ByTenant[j.Tenant] = tc
	}
	if !reflect.DeepEqual(got, want) {
		m.t.Fatalf("Snapshot %+v, a recount of the listing gives %+v", got, want)
	}
	ids := func(js []*Job) (out []string) {
		for _, j := range js {
			out = append(out, j.ID)
		}
		return out
	}
	q.mu.Lock()
	gotPending, gotLeased := ids(q.pending), ids(q.leased)
	q.mu.Unlock()
	if !slices.Equal(gotPending, pending) {
		m.t.Fatalf("pending index %v, listing's pending jobs %v", gotPending, pending)
	}
	if !slices.Equal(gotLeased, leased) {
		m.t.Fatalf("leased index %v, listing's leased jobs %v", gotLeased, leased)
	}
	for _, w := range q.Workers() {
		if w.Leased != held[w.ID] {
			m.t.Fatalf("worker %s counts %d leases, the listing shows %d", w.ID, w.Leased, held[w.ID])
		}
	}
}

func TestIndexesMatchRecountUnderRandomTransitions(t *testing.T) {
	seeds, ops := 40, 300
	if testing.Short() {
		seeds = 8
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			data := make([]byte, 3*ops)
			rand.New(rand.NewSource(int64(seed))).Read(data)
			newTransitions(t).run(data)
		})
	}
}

// FuzzQueueTransitions decodes bytes into queue operations, three bytes
// an operation, and checks the indexes and counters after each.
func FuzzQueueTransitions(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 0, 3, 0, 0, 9, 0, 1})
	f.Add([]byte{0, 3, 4, 2, 1, 0, 3, 0, 0, 3, 0, 0, 12, 7, 0, 14, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 1, 2, 0, 0, 3, 0, 0, 11, 0, 1, 15, 0, 0, 2, 0, 0, 12, 1, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 1, 2, 0, 0, 3, 0, 0, 12, 4, 0, 7, 0, 2, 12, 4, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 { // 200 steps, each journaled to disk
			data = data[:600]
		}
		newTransitions(t).run(data)
	})
}

// TestJobCycleDoesNotWalkCompletedJobs grows the queue from 2 000 to
// 20 000 completed jobs and counts the jobs one cycle of Lease, Snapshot
// and Complete examines: the same at both sizes, because only live jobs
// are walked.
func TestJobCycleDoesNotWalkCompletedJobs(t *testing.T) {
	clock := &fakeClock{}
	q, _ := testQueue(t, clock)
	w := q.RegisterWorker("cycler", 1, nil)
	grow := func(n int) {
		const batch = 500
		specs := make([]controller.Spec, batch)
		for i := range specs {
			specs[i] = testSpec("history", 1)
		}
		for ; n > 0; n -= batch {
			if _, err := q.EnqueueAll(specs, 0, ""); err != nil {
				t.Fatal(err)
			}
			for range batch {
				j, err := q.Lease(w.ID)
				if err != nil || j == nil {
					t.Fatalf("lease while growing: %+v %v", j, err)
				}
				if _, err := q.Complete(j.ID, j.LeaseID, 1, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Live jobs beside the history: two leased to another worker and one
	// pending behind a backend no worker here runs.
	other := q.RegisterWorker("other", 2, []string{"sim"})
	for range 2 {
		if _, err := q.Enqueue(testSpec("live", 2), 0); err != nil {
			t.Fatal(err)
		}
		if j, err := q.Lease(other.ID); err != nil || j == nil {
			t.Fatalf("live lease: %+v %v", j, err)
		}
	}
	stuck := testSpec("stuck", 1)
	stuck.Backend = "real"
	if _, err := q.Enqueue(stuck, 0); err != nil {
		t.Fatal(err)
	}
	w = q.RegisterWorker("cycler-sim", 1, []string{"sim"})

	cycle := func() int {
		if _, err := q.Enqueue(testSpec("probe", 3), 0); err != nil {
			t.Fatal(err)
		}
		before := q.walked
		j, err := q.Lease(w.ID)
		if err != nil || j == nil {
			t.Fatalf("probe lease: %+v %v", j, err)
		}
		q.Snapshot()
		if _, err := q.Complete(j.ID, j.LeaseID, 1, nil); err != nil {
			t.Fatal(err)
		}
		return q.walked - before
	}
	grow(2000)
	small := cycle()
	grow(18000)
	large := cycle()
	if s := q.Snapshot(); s.Completed != 20002 || s.Leased != 2 || s.Pending != 1 {
		t.Fatalf("queue after growing: %+v", s)
	}
	t.Logf("jobs walked per cycle: %d at 2 000 completed jobs, %d at 20 000", small, large)
	if small != large {
		t.Errorf("a job cycle walks %d jobs at 2 000 completed jobs and %d at 20 000", small, large)
	}
}
