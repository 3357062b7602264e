package storage

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"pdspbench/internal/testutil"
)

// decodes counts countedRec decodes, so a test can tell which bytes a
// listing checked.
var decodes atomic.Int64

type countedRec rec

func (c *countedRec) UnmarshalJSON(b []byte) error {
	decodes.Add(1)
	return json.Unmarshal(b, (*rec)(c))
}

// listed runs List and WriteArray and returns the body and how many
// records the listing decoded.
func listed(t *testing.T, s *Store, collection string) (string, int64) {
	t.Helper()
	before := decodes.Load()
	l, err := List[countedRec](s, collection)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var buf bytes.Buffer
	if err := l.WriteArray(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), decodes.Load() - before
}

func TestListCopiesStoredLines(t *testing.T) {
	s := openTemp(t)
	if got, _ := listed(t, s, "runs"); got != "[]\n" {
		t.Errorf("missing collection lists %q", got)
	}
	s.Append("runs", rec{1, "a<&>"})
	s.AppendAll("runs", rec{2, "b"}, rec{3, "ü"})
	got, n := listed(t, s, "runs")
	if want := `[{"id":1,"name":"a\u003c\u0026\u003e"},{"id":2,"name":"b"},{"id":3,"name":"ü"}]` + "\n"; got != want {
		t.Errorf("listing %q, want %q", got, want)
	}
	if n != 0 {
		t.Errorf("listing of store-written records decoded %d of them", n)
	}
}

func TestListChecksForeignBytesOnce(t *testing.T) {
	dir := t.TempDir()
	foreign := "{\"id\":1,\"name\":\"x\"}\n\n  \n{\"id\":2,\"name\":\"y\"}\r\n"
	if err := os.WriteFile(filepath.Join(dir, "runs.jsonl"), []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := "[{\"id\":1,\"name\":\"x\"},{\"id\":2,\"name\":\"y\"}\r]\n"
	if got, n := listed(t, s, "runs"); got != want || n != 2 {
		t.Errorf("first listing %q decoded %d, want %q decoding 2", got, n, want)
	}
	if got, n := listed(t, s, "runs"); got != want || n != 0 {
		t.Errorf("second listing %q decoded %d, want %q decoding 0", got, n, want)
	}
	s.Append("runs", rec{3, "z"})
	if _, n := listed(t, s, "runs"); n != 0 {
		t.Errorf("listing after a store append decoded %d", n)
	}
	// A valid last line without its newline is listed, checked every
	// time and never vouched for: the next append continues it.
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":4,"name":"w"}`)
	f.Close()
	for i := 0; i < 2; i++ {
		if got, n := listed(t, s, "runs"); n != 1 || !strings.HasSuffix(got, `{"id":4,"name":"w"}]`+"\n") {
			t.Errorf("listing %d of an unterminated tail: %q, decoded %d, want 1", i, got, n)
		}
	}
	s.Append("runs", rec{5, "v"})
	_, err = List[countedRec](s, "runs")
	if err == nil || !strings.Contains(err.Error(), "runs line 6") {
		t.Errorf("append onto an unterminated line: List error %v, want line 6", err)
	}
	if _, lerr := Load[rec](s, "runs"); lerr == nil || lerr.Error() != err.Error() {
		t.Errorf("List error %v, Load error %v: they must agree", err, lerr)
	}
}

func TestListSnapshotSurvivesAppendAndDrop(t *testing.T) {
	s := openTemp(t)
	s.AppendAll("runs", rec{1, "a"}, rec{2, "b"})
	l, err := List[countedRec](s, "runs")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s.Append("runs", rec{3, "c"})
	if err := s.Drop("runs"); err != nil {
		t.Fatal(err)
	}
	s.Append("runs", rec{4, "d"})
	var buf bytes.Buffer
	if err := l.WriteArray(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `[{"id":1,"name":"a"},{"id":2,"name":"b"}]` + "\n"; buf.String() != want {
		t.Errorf("snapshot lists %q, want %q", buf.String(), want)
	}
	if got, n := listed(t, s, "runs"); got != `[{"id":4,"name":"d"}]`+"\n" || n != 0 {
		t.Errorf("after Drop: %q decoded %d", got, n)
	}
}

func TestListLongLines(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	long := strings.Repeat("x", 3*listBuffer)
	s.Append("runs", rec{1, long})
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(strings.Repeat(" ", 2*listBuffer) + " \n")
	f.Close()
	s.Append("runs", rec{2, long})
	want := `[{"id":1,"name":"` + long + `"},{"id":2,"name":"` + long + `"}]` + "\n"
	for i := 0; i < 2; i++ {
		if got, _ := listed(t, s, "runs"); got != want {
			t.Errorf("listing %d of long lines differs (len %d, want %d)", i, len(got), len(want))
		}
	}
}

// TestListAllocatesPerListingNotPerRecord is the steady-state contract:
// a listing of store-written records decodes none of them and allocates
// the same whatever the collection's size.
func TestListAllocatesPerListingNotPerRecord(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	allocs := func(records int) float64 {
		s := openTemp(t)
		batch := make([]any, records)
		for i := range batch {
			batch[i] = rec{i, "record"}
		}
		s.AppendAll("runs", batch...)
		return testing.AllocsPerRun(20, func() {
			l, err := List[rec](s, "runs")
			if err != nil {
				t.Fatal(err)
			}
			if err := l.WriteArray(io.Discard); err != nil {
				t.Fatal(err)
			}
			l.Close()
		})
	}
	small, large := allocs(10), allocs(5000)
	t.Logf("allocations per listing: %v over 10 records, %v over 5000", small, large)
	if large != small {
		t.Errorf("a listing allocates %v times over 10 records and %v over 5000", small, large)
	}
}
