package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The store holds one append descriptor per collection once it has
// written there. These tests change the file under that descriptor and
// check that every write still lands at the path and every listing
// still checks what the store did not write.

// heldStore opens a store in a fresh directory and writes one record to
// "runs", so the store holds the collection's descriptor.
func heldStore(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := s.Append("runs", rec{1, "held"}); err != nil {
		t.Fatal(err)
	}
	return s, filepath.Join(dir, "runs.jsonl")
}

func loadIDs(t *testing.T, s *Store, collection string) []int {
	t.Helper()
	got, err := Load[rec](s, collection)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(got))
	for i, r := range got {
		ids[i] = r.ID
	}
	return ids
}

func TestHeldDescriptorVouchesForeignAppendOnlyAfterListing(t *testing.T) {
	s, path := heldStore(t)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":2,"name":"foreign"}` + "\n")
	f.Close()
	if err := s.Append("runs", rec{3, "after"}); err != nil {
		t.Fatal(err)
	}
	want := `[{"id":1,"name":"held"},{"id":2,"name":"foreign"},{"id":3,"name":"after"}]` + "\n"
	if got, n := listed(t, s, "runs"); got != want || n != 2 {
		t.Errorf("first listing %q decoded %d, want %q decoding the foreign line and the one after it", got, n, want)
	}
	if got, n := listed(t, s, "runs"); got != want || n != 0 {
		t.Errorf("second listing %q decoded %d, want %q decoding none", got, n, want)
	}
	if err := s.Append("runs", rec{4, "vouched"}); err != nil {
		t.Fatal(err)
	}
	if _, n := listed(t, s, "runs"); n != 0 {
		t.Errorf("listing after a store append onto a checked prefix decoded %d", n)
	}
}

func TestHeldDescriptorRecreatesUnlinkedFile(t *testing.T) {
	s, path := heldStore(t)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("runs", rec{2, "new"}); err != nil {
		t.Fatal(err)
	}
	if ids := loadIDs(t, s, "runs"); fmt.Sprint(ids) != "[2]" {
		t.Errorf("after unlink and append the path holds %v, want [2]", ids)
	}
	if got, n := listed(t, s, "runs"); got != `[{"id":2,"name":"new"}]`+"\n" || n != 0 {
		t.Errorf("listing of the recreated file %q decoded %d", got, n)
	}
}

func TestHeldDescriptorWritesReplacedFileAtPath(t *testing.T) {
	s, path := heldStore(t)
	replacement := filepath.Join(filepath.Dir(path), "replacement")
	if err := os.WriteFile(replacement, []byte(`{"id":7,"name":"replaced"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(replacement, path); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("runs", rec{8, "appended"}); err != nil {
		t.Fatal(err)
	}
	if ids := loadIDs(t, s, "runs"); fmt.Sprint(ids) != "[7 8]" {
		t.Errorf("after replace and append the path holds %v, want [7 8]", ids)
	}
	// The store vouched for the old file only: the replacement's line is
	// checked, its own append is not vouched for behind it.
	if got, n := listed(t, s, "runs"); got != `[{"id":7,"name":"replaced"},{"id":8,"name":"appended"}]`+"\n" || n != 2 {
		t.Errorf("listing of the replaced file %q decoded %d, want 2", got, n)
	}
}

func TestHeldDescriptorFailsWhenDirectoryIsRemoved(t *testing.T) {
	s, path := heldStore(t)
	if err := os.RemoveAll(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("runs", rec{2, "lost"}); err == nil {
		t.Error("append into a removed directory succeeded")
	}
	if err := s.AppendAll("runs", rec{3, "lost"}, rec{4, "lost"}); err == nil {
		t.Error("batch append into a removed directory succeeded")
	}
}

func TestHeldDescriptorDropThenAppendRecreates(t *testing.T) {
	s, path := heldStore(t)
	if err := s.Drop("runs"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("collection file after Drop: %v", err)
	}
	if err := s.Append("runs", rec{2, "again"}); err != nil {
		t.Fatal(err)
	}
	if ids := loadIDs(t, s, "runs"); fmt.Sprint(ids) != "[2]" {
		t.Errorf("after Drop and append the collection holds %v, want [2]", ids)
	}
	if _, n := listed(t, s, "runs"); n != 0 {
		t.Errorf("listing of the recreated collection decoded %d", n)
	}
}

// Two stores on one directory each hold their own O_APPEND descriptor;
// every write is one write(2), so their lines interleave whole, and
// neither vouches for the other's lines: both list the file cleanly.
func TestTwoStoresInterleaveWholeLines(t *testing.T) {
	dir := t.TempDir()
	const per = 2000
	stores := make([]*Store, 2)
	names := make([]string, 2)
	for i := range stores {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		stores[i] = s
		names[i] = strings.Repeat("x", 16+37*i) // unequal line lengths
	}
	var wg sync.WaitGroup
	for i, s := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if err := s.Append("runs", rec{i*per + k, names[i]}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, s := range stores {
		got, err := Load[rec](s, "runs")
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		if len(got) != len(stores)*per {
			t.Fatalf("store %d loads %d records, want %d", i, len(got), len(stores)*per)
		}
		for _, r := range got {
			if r.Name != names[r.ID/per] {
				t.Fatalf("store %d: torn record %+v", i, r)
			}
		}
		if _, n := listed(t, s, "runs"); n < per {
			t.Errorf("store %d's listing decoded %d records, want at least the other store's %d", i, n, per)
		}
	}
}
