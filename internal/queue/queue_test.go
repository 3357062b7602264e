package queue

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdspbench/internal/controller"
	"pdspbench/internal/storage"
)

// fakeClock is an injectable monotonic millisecond source.
type fakeClock struct{ ms atomic.Int64 }

func (c *fakeClock) Now() int64              { return c.ms.Load() }
func (c *fakeClock) Advance(d time.Duration) { c.ms.Add(d.Milliseconds()) }

func testSpec(name string, degree int) controller.Spec {
	return controller.Spec{
		Name:      name,
		EventRate: 50_000,
		Runs:      1,
		Workloads: []controller.WorkloadSpec{{Structure: "linear", Degrees: []int{degree}}},
	}
}

func testQueue(t *testing.T, clock *fakeClock) (*Queue, *storage.Store) {
	t.Helper()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q, err := New(st, Options{
		LeaseTTL:     time.Second,
		HeartbeatTTL: 3 * time.Second,
		RetryBackoff: 100 * time.Millisecond,
		MaxAttempts:  3,
		NowMS:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return q, st
}

func TestEnqueueAssignsDeterministicIDsAndValidates(t *testing.T) {
	clock := &fakeClock{}
	q, _ := testQueue(t, clock)
	j1, err := q.Enqueue(testSpec("c", 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := q.Enqueue(testSpec("c", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID == j2.ID {
		t.Fatalf("distinct jobs share ID %s", j1.ID)
	}
	if !strings.HasPrefix(j1.ID, "j001-") || !strings.HasPrefix(j2.ID, "j002-") {
		t.Errorf("IDs not ordinal-prefixed: %s %s", j1.ID, j2.ID)
	}
	// Same spec at the same ordinal must hash identically: a fresh queue
	// over a fresh store reproduces j1's ID for the same first enqueue.
	q2, _ := testQueue(t, clock)
	again, err := q2.Enqueue(testSpec("c", 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != j1.ID {
		t.Errorf("job ID not deterministic: %s vs %s", again.ID, j1.ID)
	}
	// Invalid campaigns are rejected before they hit the journal.
	if _, err := q.Enqueue(controller.Spec{Name: "empty"}, 0); err == nil {
		t.Error("enqueue accepted a campaign with no workloads")
	}
}

func TestLeaseFIFOAndLeaseProtocol(t *testing.T) {
	clock := &fakeClock{}
	q, _ := testQueue(t, clock)
	a, _ := q.Enqueue(testSpec("a", 1), 0)
	b, _ := q.Enqueue(testSpec("b", 2), 0)
	w := q.RegisterWorker("wk", 2, nil)

	j1, err := q.Lease(w.ID)
	if err != nil || j1 == nil {
		t.Fatalf("lease: %v %v", j1, err)
	}
	if j1.ID != a.ID {
		t.Errorf("lease order: got %s, want FIFO %s", j1.ID, a.ID)
	}
	j2, err := q.Lease(w.ID)
	if err != nil || j2 == nil || j2.ID != b.ID {
		t.Fatalf("second lease: %+v %v", j2, err)
	}
	// Capacity 2 exhausted.
	if j3, err := q.Lease(w.ID); err != nil || j3 != nil {
		t.Errorf("lease beyond capacity: %+v %v", j3, err)
	}
	// Extend with the live token works; with a stale one it does not.
	if _, err := q.Extend(j1.ID, j1.LeaseID); err != nil {
		t.Errorf("extend: %v", err)
	}
	if _, err := q.Extend(j1.ID, "bogus"); !errors.Is(err, ErrStaleLease) {
		t.Errorf("extend with bogus token: %v", err)
	}
	// Complete is exactly-once: the second completion is rejected and
	// the completion gauge stays at 1.
	if _, err := q.Complete(j1.ID, j1.LeaseID, 3, nil); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if _, err := q.Complete(j1.ID, j1.LeaseID, 3, nil); !errors.Is(err, ErrStaleLease) {
		t.Errorf("duplicate complete: %v", err)
	}
	got, _ := q.Job(j1.ID)
	if got.Status != StatusCompleted || got.Completions != 1 || got.Records != 3 {
		t.Errorf("completed job state: %+v", got)
	}
	// Unknown worker must re-register.
	if _, err := q.Lease("w99"); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("unknown worker lease: %v", err)
	}
}

func TestBackendCapabilityMatching(t *testing.T) {
	clock := &fakeClock{}
	q, _ := testQueue(t, clock)
	spec := testSpec("real-only", 2)
	spec.Backend = "real"
	if _, err := q.Enqueue(spec, 0); err != nil {
		t.Fatal(err)
	}
	simOnly := q.RegisterWorker("sim-only", 1, []string{"sim"})
	if j, err := q.Lease(simOnly.ID); err != nil || j != nil {
		t.Errorf("sim-only worker leased a real job: %+v %v", j, err)
	}
	realWorker := q.RegisterWorker("real", 1, []string{"sim", "real"})
	j, err := q.Lease(realWorker.ID)
	if err != nil || j == nil {
		t.Fatalf("capable worker got no job: %v", err)
	}
}

func TestFailRetriesWithBackoffThenParksFailed(t *testing.T) {
	clock := &fakeClock{}
	q, _ := testQueue(t, clock)
	job, _ := q.Enqueue(testSpec("flaky", 1), 2) // 2 attempts
	w := q.RegisterWorker("wk", 1, nil)

	j, _ := q.Lease(w.ID)
	if _, err := q.Fail(j.ID, j.LeaseID, "boom"); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Job(job.ID)
	if got.Status != StatusPending || got.Error != "boom" {
		t.Fatalf("after first fail: %+v", got)
	}
	// Backoff: not leasable until RetryBackoff elapses.
	if j, err := q.Lease(w.ID); err != nil || j != nil {
		t.Errorf("leased during backoff: %+v %v", j, err)
	}
	clock.Advance(150 * time.Millisecond)
	j, err := q.Lease(w.ID)
	if err != nil || j == nil {
		t.Fatalf("lease after backoff: %v", err)
	}
	if j.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", j.Attempts)
	}
	// Final attempt fails → terminal.
	if _, err := q.Fail(j.ID, j.LeaseID, "boom again"); err != nil {
		t.Fatal(err)
	}
	got, _ = q.Job(job.ID)
	if got.Status != StatusFailed {
		t.Errorf("after exhausting attempts: %+v", got)
	}
}

func TestLeaseExpiryAndDeadWorkerReclaim(t *testing.T) {
	clock := &fakeClock{}
	q, _ := testQueue(t, clock)
	if _, err := q.Enqueue(testSpec("x", 1), 0); err != nil {
		t.Fatal(err)
	}
	victim := q.RegisterWorker("victim", 1, nil)
	j, _ := q.Lease(victim.ID)
	if j == nil {
		t.Fatal("no lease")
	}
	// LeaseTTL is 1s: past it, any worker-driven entry point reclaims,
	// and a reclaim (unlike a reported failure) carries no extra backoff
	// — the lapsed TTL was the wait.
	clock.Advance(1100 * time.Millisecond)
	other := q.RegisterWorker("other", 1, nil)
	j2, err := q.Lease(other.ID)
	if err != nil || j2 == nil {
		t.Fatalf("reclaimed job not leasable: %v", err)
	}
	if j2.ID != j.ID || j2.Attempts != 2 {
		t.Errorf("reclaimed lease: %+v", j2)
	}
	// The victim's completion is now stale and must be rejected.
	if _, err := q.Complete(j.ID, j.LeaseID, 1, nil); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale complete: %v", err)
	}
	// Dead-worker path: the new leaseholder stops heartbeating; keep the
	// lease fresh via Extend but let the heartbeat TTL (3s) lapse.
	for i := 0; i < 4; i++ {
		clock.Advance(900 * time.Millisecond)
		if _, err := q.Extend(j2.ID, j2.LeaseID); err != nil {
			t.Fatalf("extend %d: %v", i, err)
		}
	}
	// other.LastSeen is 3.6s+ old now; a heartbeat from a third worker
	// triggers the reap even though the lease itself is unexpired.
	third := q.RegisterWorker("third", 1, nil)
	if _, err := q.Heartbeat(third.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Job(j.ID)
	if got.Status != StatusPending {
		t.Errorf("dead-worker job not reclaimed: %+v", got)
	}
}

func TestJournalReplaySurvivesDispatcherRestart(t *testing.T) {
	clock := &fakeClock{}
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	open := func() *Queue {
		q, err := New(st, Options{LeaseTTL: time.Second, MaxAttempts: 3, NowMS: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	q := open()
	done, _ := q.Enqueue(testSpec("done", 1), 0)
	inflight, _ := q.Enqueue(testSpec("inflight", 2), 0)
	pending, _ := q.Enqueue(testSpec("pending", 4), 0)
	w := q.RegisterWorker("wk", 2, nil)
	j1, _ := q.Lease(w.ID)
	if _, err := q.Complete(j1.ID, j1.LeaseID, 2, nil); err != nil {
		t.Fatal(err)
	}
	if j2, _ := q.Lease(w.ID); j2.ID != inflight.ID {
		t.Fatalf("expected to lease %s, got %s", inflight.ID, j2.ID)
	}

	// "Restart": a fresh queue over the same store.
	q2 := open()
	if got, _ := q2.Job(done.ID); got.Status != StatusCompleted || got.Records != 2 {
		t.Errorf("completed job after replay: %+v", got)
	}
	// The in-flight lease belonged to the dead process: reclaimed.
	if got, _ := q2.Job(inflight.ID); got.Status != StatusPending {
		t.Errorf("in-flight job after replay: %+v", got)
	}
	if got, _ := q2.Job(pending.ID); got.Status != StatusPending {
		t.Errorf("pending job after replay: %+v", got)
	}
	// IDs are stable across the replay.
	jobs := q2.Jobs("")
	if len(jobs) != 3 || jobs[0].ID != done.ID || jobs[1].ID != inflight.ID || jobs[2].ID != pending.ID {
		t.Errorf("replayed jobs: %+v", jobs)
	}
	// Workers are ephemeral: the old ID is gone until re-registration.
	if _, err := q2.Lease(w.ID); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("stale worker after restart: %v", err)
	}
	// A third restart reaches the same state (replay is idempotent).
	q3 := open()
	if got, _ := q3.Job(inflight.ID); got.Status != StatusPending {
		t.Errorf("in-flight job after second replay: %+v", got)
	}
}

// A persist failure must abort the completion with the lease intact so
// the worker can retry with the same token — and a stale lease must be
// rejected before persist ever runs.
func TestCompletePersistFailureKeepsLeaseRetryable(t *testing.T) {
	clock := &fakeClock{}
	q, _ := testQueue(t, clock)
	if _, err := q.Enqueue(testSpec("p", 1), 0); err != nil {
		t.Fatal(err)
	}
	w := q.RegisterWorker("wk", 1, nil)
	j, _ := q.Lease(w.ID)
	boom := errors.New("disk full")
	if _, err := q.Complete(j.ID, j.LeaseID, 1, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("complete with failing persist: %v", err)
	}
	got, _ := q.Job(j.ID)
	if got.Status != StatusLeased || got.LeaseID != j.LeaseID || got.Completions != 0 {
		t.Fatalf("job after persist failure: %+v", got)
	}
	// Same token, working persist: the retry lands.
	persisted := false
	if _, err := q.Complete(j.ID, j.LeaseID, 1, func() error { persisted = true; return nil }); err != nil {
		t.Fatalf("retried complete: %v", err)
	}
	if !persisted {
		t.Error("persist not invoked on retry")
	}
	// A stale token must be rejected without touching persist.
	if _, err := q.Complete(j.ID, j.LeaseID, 1, func() error {
		t.Error("persist ran for a stale lease")
		return nil
	}); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale complete: %v", err)
	}
}

// EnqueueAll is all-or-nothing: one invalid spec in the batch means no
// job is enqueued and nothing hits the journal.
func TestEnqueueAllIsAtomic(t *testing.T) {
	clock := &fakeClock{}
	q, st := testQueue(t, clock)
	batch := []controller.Spec{testSpec("ok1", 1), {Name: "bad"}, testSpec("ok2", 2)}
	if _, err := q.EnqueueAll(batch, 0, ""); err == nil {
		t.Fatal("batch with an invalid spec was accepted")
	}
	if jobs := q.Jobs(""); len(jobs) != 0 {
		t.Errorf("partial batch enqueued: %+v", jobs)
	}
	if n, _ := st.Count("fabricjournal"); n != 0 {
		t.Errorf("journal has %d entries after rejected batch", n)
	}
	// A valid batch lands whole, with ordinal-contiguous FIFO IDs.
	jobs, err := q.EnqueueAll([]controller.Spec{testSpec("a", 1), testSpec("b", 2)}, 0, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].Seq != 1 || jobs[1].Seq != 2 {
		t.Errorf("batch jobs: %+v", jobs)
	}
}

// TestWorkersListInRegistrationOrder pins the listing order across
// registrations interleaved with heartbeats, past the ninth worker,
// where the IDs' string order ("w10" < "w2") departs from it.
func TestWorkersListInRegistrationOrder(t *testing.T) {
	clock := &fakeClock{}
	q, _ := testQueue(t, clock)
	var want []string
	for i := 1; i <= 12; i++ {
		clock.Advance(time.Millisecond)
		w := q.RegisterWorker(fmt.Sprintf("daemon-%d", i), 1, nil)
		want = append(want, w.ID)
		if _, err := q.Heartbeat(want[len(want)/2]); err != nil {
			t.Fatal(err)
		}
	}
	got := q.Workers()
	if len(got) != len(want) {
		t.Fatalf("listed %d workers, registered %d", len(got), len(want))
	}
	for i, w := range got {
		if w.ID != want[i] || w.ID != fmt.Sprintf("w%d", i+1) || w.Name != fmt.Sprintf("daemon-%d", i+1) {
			t.Errorf("worker %d = %s (%s), want %s (daemon-%d)", i, w.ID, w.Name, want[i], i+1)
		}
	}
	// A heartbeat refreshes the listed worker in place.
	if got[6].LastSeenMS != clock.Now() {
		t.Errorf("w7 last seen %d, want the last heartbeat at %d", got[6].LastSeenMS, clock.Now())
	}
}

func TestSnapshotCounts(t *testing.T) {
	clock := &fakeClock{}
	q, _ := testQueue(t, clock)
	for i := 1; i <= 3; i++ {
		if _, err := q.Enqueue(testSpec("s", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	w := q.RegisterWorker("wk", 1, nil)
	j, _ := q.Lease(w.ID)
	if _, err := q.Complete(j.ID, j.LeaseID, 1, nil); err != nil {
		t.Fatal(err)
	}
	j, _ = q.Lease(w.ID)
	_ = j
	s := q.Snapshot()
	if s.Pending != 1 || s.Leased != 1 || s.Completed != 1 || s.Failed != 0 || s.Workers != 1 {
		t.Errorf("snapshot: %+v", s)
	}
}
