package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pdspbench/internal/metrics"
	"pdspbench/internal/storage"
)

// The tests in this file pin GET /api/runs to one definition of the
// right answer: the bytes json.Encoder writes for the records Load
// decodes, or a 500 carrying Load's error.

// runsServer is a server whose only state is a run store in dir. The
// listing reads nothing but the store, so the fuzz target can afford one
// per input.
func runsServer(t testing.TB) (*Server, *storage.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return &Server{store: st}, st, dir
}

func listRuns(s *Server) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.handleRuns(w, httptest.NewRequest(http.MethodGet, "/api/runs", nil))
	return w
}

// wantRuns is what the listing must answer: status and body.
func wantRuns(t testing.TB, st *storage.Store) (int, []byte) {
	t.Helper()
	runs, err := storage.Load[metrics.RunRecord](st, "runs")
	var buf bytes.Buffer
	if err != nil {
		if e := json.NewEncoder(&buf).Encode(map[string]string{"error": err.Error()}); e != nil {
			t.Fatal(e)
		}
		return http.StatusInternalServerError, buf.Bytes()
	}
	if runs == nil {
		runs = []metrics.RunRecord{}
	}
	if err := json.NewEncoder(&buf).Encode(runs); err != nil {
		t.Fatal(err)
	}
	return http.StatusOK, buf.Bytes()
}

func checkRuns(t testing.TB, s *Server, st *storage.Store) *httptest.ResponseRecorder {
	t.Helper()
	code, body := wantRuns(t, st)
	w := listRuns(s)
	if w.Code != code || !bytes.Equal(w.Body.Bytes(), body) {
		t.Fatalf("GET /api/runs = %d %q, want %d %q", w.Code, w.Body.Bytes(), code, body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	return w
}

// appendRaw writes bytes the store did not write: a pre-existing file,
// another tool, a torn write.
func appendRaw(t testing.TB, dir, s string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func runRec(id string) metrics.RunRecord {
	return metrics.RunRecord{ID: id, Workload: "linear", Cluster: "m510", Category: "S", MaxDegree: 2, EventRate: 1e5, LatencyP50: 0.25, Runs: 1}
}

func mustAppend(t testing.TB, st *storage.Store, vs ...any) {
	t.Helper()
	if err := st.AppendAll("runs", vs...); err != nil {
		t.Fatal(err)
	}
}

func TestRunsListingEmptyOrMissingIsEmptyArray(t *testing.T) {
	s, st, dir := runsServer(t)
	for _, step := range []string{"missing", "empty", "blank lines only"} {
		switch step {
		case "empty":
			appendRaw(t, dir, "")
		case "blank lines only":
			appendRaw(t, dir, "\n \t\r\n\n")
		}
		if w := checkRuns(t, s, st); w.Body.String() != "[]\n" {
			t.Errorf("%s collection: body %q, want %q", step, w.Body.String(), "[]\n")
		}
	}
}

func TestRunsListingSkipsBlankLines(t *testing.T) {
	s, st, dir := runsServer(t)
	mustAppend(t, st, runRec("a"))
	appendRaw(t, dir, "\n  \n \v\n")
	mustAppend(t, st, runRec("b"))
	appendRaw(t, dir, "\r\n")
	mustAppend(t, st, runRec("c"), runRec("d"))
	w := checkRuns(t, s, st)
	if runs := decode[[]metrics.RunRecord](t, w); len(runs) != 4 {
		t.Errorf("listed %d records, want 4", len(runs))
	}
}

func TestRunsListingCorruptLineAnswers500(t *testing.T) {
	for _, c := range []struct{ name, line, where string }{
		{"syntax", "{corrupt", "runs line 2"},
		{"wrong type", `{"id":7}`, "runs line 2"},
		{"torn", `{"id":"t","workl`, "runs line 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, st, dir := runsServer(t)
			mustAppend(t, st, runRec("a"))
			appendRaw(t, dir, c.line+"\n")
			mustAppend(t, st, runRec("b"))
			// The answer holds on every listing, not just the first.
			for i := 0; i < 2; i++ {
				w := checkRuns(t, s, st)
				if w.Code != http.StatusInternalServerError {
					t.Fatalf("status %d, want 500", w.Code)
				}
				if msg := decode[map[string]string](t, w)["error"]; !strings.Contains(msg, c.where) {
					t.Errorf("error %q does not name %q", msg, c.where)
				}
			}
		})
	}
}

func TestRunsListingListsUnterminatedLastLine(t *testing.T) {
	s, st, dir := runsServer(t)
	mustAppend(t, st, runRec("a"))
	data, err := json.Marshal(runRec("b"))
	if err != nil {
		t.Fatal(err)
	}
	appendRaw(t, dir, string(data))
	if runs := decode[[]metrics.RunRecord](t, checkRuns(t, s, st)); len(runs) != 2 || runs[1].ID != "b" {
		t.Errorf("listed %+v, want a and b", runs)
	}
	// An append now lands on the same line and corrupts it, as Load sees.
	mustAppend(t, st, runRec("c"))
	if w := checkRuns(t, s, st); w.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", w.Code)
	}
}

// escapeRecords covers every omitempty field both set and unset, and
// strings that the encoder escapes or passes through: HTML characters,
// control characters, line separators, non-ASCII and invalid UTF-8.
func escapeRecords() []any {
	full := metrics.RunRecord{
		ID: "full", Backend: "real", Workload: "<script>&amp;</script>", Cluster: "c6525_25g",
		Category: "XL", MaxDegree: 32, EventRate: 1e6, LatencyP50: 1.5e-7, LatencyP95: 0.1 + 0.2,
		LatencyP99: 3, LatencyMean: 2.5, Throughput: 12345.678, TuplesIn: 1 << 60, TuplesOut: 7,
		ElapsedSec: 1.25, Saturated: true, Runs: 3, LateDrops: 9, FaultsInjected: 1, Restarts: 2,
		DowntimeMS: 0.5, RecoveredTuples: 11, FaultSchedule: "crc:  \t\"q\"\\",
	}
	return []any{
		runRec("plain"),
		full,
		&full,
		metrics.RunRecord{ID: "ünïcødé ✓ 流 \u2028\u2029"},
		metrics.RunRecord{ID: "bad \xff\xfe utf8", Workload: "\x00\x1f\x7f"},
		metrics.RunRecord{ID: `\ufffd \\ufffd literal`, Workload: "\ufffd rune \\"},
		metrics.RunRecord{},
	}
}

func TestRunsListingBytesMatchEncodedLoad(t *testing.T) {
	s, st, dir := runsServer(t)
	recs := escapeRecords()
	for _, r := range recs {
		if err := st.Append("runs", r); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(t, st, recs...)
	w := checkRuns(t, s, st)
	if runs := decode[[]metrics.RunRecord](t, w); len(runs) != 2*len(recs) {
		t.Errorf("listed %d records, want %d", len(runs), 2*len(recs))
	}
	// A store reopened over the same file answers the same bytes.
	st2, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := &Server{store: st2}
	if w2 := checkRuns(t, s2, st2); !bytes.Equal(w2.Body.Bytes(), w.Body.Bytes()) {
		t.Errorf("reopened store lists %q, want %q", w2.Body.Bytes(), w.Body.Bytes())
	}
}

// blockingWriter is a ResponseWriter whose first Write blocks until
// release is closed: a client that stopped reading mid-listing.
type blockingWriter struct {
	header  http.Header
	code    int
	entered chan struct{}
	release chan struct{}
	once    sync.Once
	body    bytes.Buffer
}

func (w *blockingWriter) Header() http.Header  { return w.header }
func (w *blockingWriter) WriteHeader(code int) { w.code = code }
func (w *blockingWriter) Write(b []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return w.body.Write(b)
}

func TestRunsListingDoesNotBlockAppends(t *testing.T) {
	s, st, _ := runsServer(t)
	// Enough records that the listing is mid-file when it first writes.
	recs := make([]any, 2000)
	for i := range recs {
		recs[i] = runRec("before")
	}
	mustAppend(t, st, recs...)
	_, want := wantRuns(t, st)

	bw := &blockingWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	listed := make(chan struct{})
	go func() {
		defer close(listed)
		s.handleRuns(bw, httptest.NewRequest(http.MethodGet, "/api/runs", nil))
	}()
	// Failure detection only: a healthy run passes these in microseconds.
	const stuck = 10 * time.Second
	select {
	case <-bw.entered:
	case <-time.After(stuck):
		close(bw.release)
		t.Fatal("the listing never wrote")
	}
	appended := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if err := st.Append("runs", runRec("during")); err != nil {
				appended <- err
				return
			}
		}
		appended <- st.AppendAll("runs", runRec("during"), runRec("during"))
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(stuck):
		t.Error("Append blocked behind a listing whose client stopped reading")
	}
	close(bw.release)
	<-listed
	if bw.code != http.StatusOK || !bytes.Equal(bw.body.Bytes(), want) {
		t.Errorf("blocked listing answered %d with %d bytes, want 200 with the %d bytes present when it started", bw.code, bw.body.Len(), len(want))
	}
	if n, err := st.Count("runs"); err != nil || n != len(recs)+52 {
		t.Errorf("store holds %d records (%v), want %d", n, err, len(recs)+52)
	}
}

// FuzzRunsListingMatchesLoad builds stores from a program of operations
// — store appends of records with arbitrary strings, single and
// batched; blank, corrupt and torn lines written behind the store's
// back; reopening the store, which makes every byte foreign — and holds
// the listing, after every "list" step and at the end, to Load's
// answer. The raw writes are built so that no foreign line decodes:
// a valid line the store did not write is served as stored, which may
// differ from its re-encoding (docs/API.md), and the unit tests above
// cover the valid foreign lines whose bytes must still match.
func FuzzRunsListingMatchesLoad(f *testing.F) {
	f.Add([]byte{0, 1, 'a', 7, 1, 3, 'b', 7})
	f.Add([]byte{0, 2, 2, 0, 1, 'x', 6, 7, 0, 3})
	f.Add([]byte{0, 1, 'a', 3, 1, 0, 1, 'b', 7})
	f.Add([]byte{0, 1, 'a', 4, 9, 7, 0, 1, 'b', 6, 7})
	f.Add([]byte{1, 4, 0xff, 0xfe, '<', '&', 2, 3, 6, 7, 5, 7})
	f.Fuzz(func(t *testing.T, prog []byte) {
		s, st, dir := runsServer(t)
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		record := func() metrics.RunRecord {
			n := int(next() % 8)
			if n > len(prog) {
				n = len(prog)
			}
			id := string(prog[:n])
			prog = prog[n:]
			bits := next()
			r := metrics.RunRecord{ID: id, Workload: "w" + id, MaxDegree: int(bits), EventRate: float64(bits) / 7, Runs: 1}
			if bits&1 != 0 {
				r.Backend, r.LatencyP99, r.TuplesIn = "sim", float64(bits)*1e-9, uint64(bits)<<40
			}
			if bits&2 != 0 {
				r.FaultSchedule, r.DowntimeMS = "<&>"+id, 1.0/3
			}
			return r
		}
		blanks := []string{"\n", " \t\n", "\r\n", "  \n", "\v\f\n"}
		corrupt := []string{"{corrupt\n", "]\n", `{"id":7}` + "\n", "\x00\n", "[]\n", `{"runs":"x"}` + "\n"}
		for steps := 0; len(prog) > 0 && steps < 64; steps++ {
			switch next() % 8 {
			case 0:
				if err := st.Append("runs", record()); err != nil {
					t.Fatal(err)
				}
			case 1:
				batch := make([]any, 1+next()%4)
				for i := range batch {
					batch[i] = record()
				}
				mustAppend(t, st, batch...)
			case 2:
				appendRaw(t, dir, blanks[int(next())%len(blanks)])
			case 3:
				appendRaw(t, dir, corrupt[int(next())%len(corrupt)])
			case 4:
				data, err := json.Marshal(record())
				if err != nil {
					t.Fatal(err)
				}
				appendRaw(t, dir, string(data[:int(next())%len(data)]))
			case 5:
				if err := st.Drop("runs"); err != nil {
					t.Fatal(err)
				}
			case 6:
				reopened, err := storage.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				st, s = reopened, &Server{store: reopened}
			case 7:
				checkRuns(t, s, st)
			}
		}
		checkRuns(t, s, st)
	})
}
