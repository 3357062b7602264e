// Package storage is PDSP-Bench's run database — the role MongoDB plays
// in the paper's deployment ("we also allow to store the generated
// workload in a database ... that can be used for training ML models").
// Collections are append-only JSON-lines files under one directory, so a
// benchmark corpus survives process restarts and can be re-read for
// model training without re-running workloads.
//
// The append-only contract: records are only ever appended, never
// rewritten in place — Drop removes a whole collection, and that is the
// only destructive operation. Consumers therefore treat a collection as
// an immutable log prefix: anything Load returned stays true, and
// replaying a journal collection (the fabric's "fabricjournal") always
// folds the same state. A Store is owned by one process; the fabric
// keeps that invariant by funnelling all worker writes through the
// dispatcher rather than sharing the directory.
//
// A collection holds one record type: the type its writers marshal is
// the type its readers decode. The run listing relies on that to copy
// stored lines without decoding them (see List).
package storage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"unicode/utf8"
)

// maxLine bounds a stored line, as Load's line scanner does: a longer
// line fails to load with bufio.ErrTooLong.
const maxLine = 1 << 24

// listBuffer sizes each of a listing's two buffers, read and write.
const listBuffer = 32 << 10

// Store is a directory-backed collection set. It is safe for concurrent
// use within one process.
//
// Locking contract: one mutex serializes every write — Append, AppendAll
// and Drop hold it for their full critical section, so interleaved
// writers never interleave bytes within a record, and Load holds it
// while it reads, so it never observes a torn record. List holds it
// only to open the file and take its length; it reads that prefix after
// unlocking. Every write is one locked write(2), so the prefix is whole
// records when its length is taken, and the file is append-only, so the
// prefix never changes; an open descriptor survives a Drop. JSON
// marshalling happens before the lock is taken (marshal failures write
// nothing), so the lock covers only the write's syscalls.
//
// Writes go through one O_APPEND descriptor per collection, opened by
// the first write and held until Drop or Close. Each write fstat's it
// first: a link count of zero means the file was unlinked or replaced
// under the store, so the write reopens the path instead of appending
// to an orphaned inode, and a removed directory fails the write rather
// than losing it. After the write, the descriptor's offset is the end
// of the bytes just written, which tells the vouched prefix whether
// anything was appended from outside the store before them. The mutex
// does not guard against other processes appending to the same
// directory — O_APPEND keeps their lines whole, but the store cannot
// vouch for them until a listing checks them; the fabric funnels all
// writes through the dispatcher process for exactly that reason.
//
// The store remembers, per collection, the prefix of the file it
// vouches for: bytes it wrote itself, each line the output of
// json.Marshal in one whole write, plus bytes a listing has already
// checked. A listing checks only what lies beyond that prefix — a file
// that existed before Open, or the tail after a failed write — once.
type Store struct {
	dir string
	mu  sync.Mutex
	// vouched is guarded by mu. Drop deletes a collection's entry, so a
	// listing that checked the old file cannot vouch for the new one.
	vouched map[string]*vouch
	// files holds each written collection's append descriptor; guarded
	// by mu.
	files map[string]*os.File
}

// vouch is a prefix of a collection file known to hold only complete
// lines, each blank or one record that decodes.
type vouch struct {
	bytes int64 // the prefix's length, always just past a '\n'
	lines int   // lines in the prefix, blank ones included, as Load numbers them
}

// Open creates the directory if needed and returns the store. Files
// already in it are checked by the first listing of each.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &Store{dir: dir, vouched: map[string]*vouch{}, files: map[string]*os.File{}}, nil
}

// validateCollection keeps names path-safe.
func validateCollection(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\.") {
		return fmt.Errorf("storage: invalid collection name %q", name)
	}
	return nil
}

func (s *Store) path(collection string) string {
	return filepath.Join(s.dir, collection+".jsonl")
}

// vouchFor returns the collection's vouched prefix, creating an empty
// one. The caller holds s.mu.
func (s *Store) vouchFor(collection string) *vouch {
	v, ok := s.vouched[collection]
	if !ok {
		v = &vouch{}
		s.vouched[collection] = v
	}
	return v
}

// appendLine appends v to dst as one stored line. json.Marshal writes
// invalid UTF-8 as the escape \ufffd, which decodes to U+FFFD, which
// Marshal then writes raw; storing the raw rune makes every stored line
// encode to itself after a decode, so a listing that copies lines
// answers the bytes one that re-encoded them would.
func appendLine(dst []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("storage: marshal: %w", err)
	}
	// Backslashes occur only in escapes inside strings: \uXXXX is six
	// bytes, every other escape two.
	for {
		i := bytes.IndexByte(data, '\\')
		if i < 0 {
			break
		}
		n := 2
		if i+1 < len(data) && data[i+1] == 'u' {
			n = 6
		}
		if i+n > len(data) {
			break
		}
		dst = append(dst, data[:i]...)
		if string(data[i:i+n]) == `\ufffd` {
			dst = utf8.AppendRune(dst, utf8.RuneError)
		} else {
			dst = append(dst, data[i:i+n]...)
		}
		data = data[i+n:]
	}
	dst = append(dst, data...)
	return append(dst, '\n'), nil
}

// Append serializes v and appends it to the collection.
func (s *Store) Append(collection string, v any) error {
	if err := validateCollection(collection); err != nil {
		return err
	}
	data, err := appendLine(nil, v)
	if err != nil {
		return err
	}
	return s.write(collection, data, 1, len(data) <= maxLine)
}

// AppendAll appends a batch atomically with respect to other writers in
// this process: the whole batch is marshalled first (a marshal failure
// writes nothing), then written contiguously under one lock acquisition
// and one file write, so concurrent appenders can never interleave their
// records inside the batch.
func (s *Store) AppendAll(collection string, vs ...any) error {
	if err := validateCollection(collection); err != nil {
		return err
	}
	if len(vs) == 0 {
		return nil
	}
	var data []byte
	fits := true
	for _, v := range vs {
		start := len(data)
		var err error
		if data, err = appendLine(data, v); err != nil {
			return err
		}
		fits = fits && len(data)-start <= maxLine
	}
	return s.write(collection, data, len(vs), fits)
}

// write appends data, lines whole lines, in one write under the lock. It
// extends the vouched prefix over them when they follow it directly and
// fit Load's line limit; a failed write leaves its bytes, and everything
// after them, to the next listing's check.
func (s *Store) write(collection string, data []byte, lines int, fits bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.appender(collection)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("storage: write: %w", err)
	}
	// An O_APPEND write leaves the offset at the end of its own bytes,
	// wherever appends from outside the store put them, so the offset
	// says whether they follow the vouched prefix directly. A failed
	// Seek vouches for nothing; the bytes are written all the same.
	end, err := f.Seek(0, io.SeekCurrent)
	if v := s.vouchFor(collection); err == nil && fits && v.bytes == end-int64(len(data)) {
		v.bytes = end
		v.lines += lines
	}
	return nil
}

// appender returns the collection's held append descriptor, opening the
// path when the store holds none or when the held file has been
// unlinked or cannot be stat'ed. The caller holds s.mu.
func (s *Store) appender(collection string) (*os.File, error) {
	if f, ok := s.files[collection]; ok {
		if fi, err := f.Stat(); err == nil && !unlinked(fi) {
			return f, nil
		}
		// The prefix vouched for may be the old file's.
		delete(s.vouched, collection)
		delete(s.files, collection)
		// Nothing written to the orphaned inode can be read back through
		// the path, so its close has nothing to report.
		_ = f.Close()
	}
	f, err := os.OpenFile(s.path(collection), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	s.files[collection] = f
	return f, nil
}

// unlinked reports whether the file has no directory entry left.
func unlinked(fi os.FileInfo) bool {
	st, ok := fi.Sys().(*syscall.Stat_t)
	return ok && st.Nlink == 0
}

// scanLines calls fn with every non-blank line of r, the way Load reads
// a collection: split at '\n', a trailing '\r' dropped, lines numbered
// from first+1 in fn's errors. It returns the length and the line count
// of the complete lines it read — the last line read ends at EOF rather
// than at a '\n' when the file's writer was cut short or is still to
// finish it.
func scanLines(r io.Reader, collection string, first int, fn func([]byte) error) (int64, int, error) {
	var off, done int64
	ended := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if adv > 0 {
			off += int64(adv)
			ended = data[adv-1] == '\n'
		}
		return adv, tok, err
	})
	line, doneLines := first, first
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) != 0 {
			if err := fn(sc.Bytes()); err != nil {
				return done, doneLines, fmt.Errorf("storage: %s line %d: %w", collection, line, err)
			}
		}
		if ended {
			done, doneLines = off, line
		}
	}
	if err := sc.Err(); err != nil {
		return done, doneLines, fmt.Errorf("storage: scan: %w", err)
	}
	return done, doneLines, nil
}

// Load decodes every record of the collection into out, which must be a
// pointer to a slice. A missing collection yields an empty slice.
func Load[T any](s *Store, collection string) ([]T, error) {
	if err := validateCollection(collection); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.Open(s.path(collection))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	var out []T
	if _, _, err := scanLines(f, collection, 0, func(line []byte) error {
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return err
		}
		out = append(out, v)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Listing is a checked snapshot of a collection: the first size bytes
// of its file, as they were when List opened it. Close it when done.
type Listing struct {
	f    *os.File // nil for a missing collection
	size int64
}

// List snapshots a collection of T records for WriteArray. It holds the
// store's lock only to open the file and take its length. Bytes the
// store vouches for are not read here; the rest are decoded into T once,
// as Load decodes them, and an error names the line that failed. Bytes
// that pass are vouched for from then on.
func List[T any](s *Store, collection string) (*Listing, error) {
	if err := validateCollection(collection); err != nil {
		return nil, err
	}
	f, size, v, from, err := s.snapshot(collection)
	if err != nil {
		return nil, err
	}
	if f == nil {
		return &Listing{}, nil
	}
	start := from
	if start.bytes > size {
		// The file shrank behind the store's back; trust none of it.
		start = vouch{}
	}
	if start.bytes < size {
		n, lines, err := scanLines(io.NewSectionReader(f, start.bytes, size-start.bytes), collection, start.lines, func(line []byte) error {
			var rec T
			return json.Unmarshal(line, &rec)
		})
		if err != nil {
			//lint:ignore error-discipline the check's error is the one to report; the read-only descriptor has nothing left to flush
			f.Close()
			return nil, err
		}
		if n > 0 {
			s.extend(collection, v, from, vouch{bytes: start.bytes + n, lines: lines})
		}
	}
	return &Listing{f: f, size: size}, nil
}

// snapshot opens the collection and takes its length and vouched prefix
// under the lock. A missing collection returns a nil file.
func (s *Store) snapshot(collection string) (*os.File, int64, *vouch, vouch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.Open(s.path(collection))
	if os.IsNotExist(err) {
		return nil, 0, nil, vouch{}, nil
	}
	if err != nil {
		return nil, 0, nil, vouch{}, fmt.Errorf("storage: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		//lint:ignore error-discipline the Stat error is the one to report; the read-only descriptor has nothing left to flush
		f.Close()
		return nil, 0, nil, vouch{}, fmt.Errorf("storage: %w", err)
	}
	v := s.vouchFor(collection)
	return f, fi.Size(), v, *v, nil
}

// extend vouches for a checked prefix, unless the collection was dropped
// or its prefix moved since the check began.
func (s *Store) extend(collection string, v *vouch, from, to vouch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vouched[collection] == v && *v == from {
		*v = to
	}
}

// WriteArray writes the snapshot as one JSON array and a newline: its
// records in append order, each as stored, blank lines skipped. It
// reads and writes through fixed-size buffers, so its memory does not
// grow with the collection.
func (l *Listing) WriteArray(w io.Writer) error {
	bw := bufio.NewWriterSize(w, listBuffer)
	if err := bw.WriteByte('['); err != nil {
		return err
	}
	if l.f != nil {
		if err := copyRecords(bw, bufio.NewReaderSize(io.NewSectionReader(l.f, 0, l.size), listBuffer)); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// copyRecords writes the checked lines of r to w, comma-separated. Each
// line is blank or one JSON value with only JSON whitespace around it,
// so the first byte after leading space, tab and CR tells them apart: a
// JSON value starts with an ASCII byte other than \v and \f, which only
// blank lines (Unicode space) can start with. A line longer than r's
// buffer arrives in pieces.
func copyRecords(w *bufio.Writer, r *bufio.Reader) error {
	const (
		lineStart = iota
		inRecord
		inBlank
	)
	state, first := lineStart, true
	for {
		frag, err := r.ReadSlice('\n')
		if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
			return err
		}
		ended := len(frag) > 0 && frag[len(frag)-1] == '\n'
		if ended {
			frag = frag[:len(frag)-1]
		}
		if state == lineStart {
			frag = bytes.TrimLeft(frag, " \t\r")
			switch {
			case len(frag) == 0:
			case frag[0] == '\v' || frag[0] == '\f' || frag[0] >= utf8.RuneSelf:
				state = inBlank
			default:
				state = inRecord
				if !first {
					if err := w.WriteByte(','); err != nil {
						return err
					}
				}
				first = false
			}
		}
		if state == inRecord {
			if _, err := w.Write(frag); err != nil {
				return err
			}
		}
		if ended {
			state = lineStart
		}
		if err == io.EOF {
			return nil
		}
	}
}

// Close releases the snapshot's file.
func (l *Listing) Close() error {
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}

// Count returns the number of records in the collection.
func (s *Store) Count(collection string) (int, error) {
	records, err := Load[json.RawMessage](s, collection)
	if err != nil {
		return 0, err
	}
	return len(records), nil
}

// Collections lists existing collection names, sorted by the filesystem.
func (s *Store) Collections() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var out []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".jsonl"); ok && !e.IsDir() {
			out = append(out, name)
		}
	}
	return out, nil
}

// Drop removes a collection and closes its append descriptor; dropping a
// missing collection is a no-op.
func (s *Store) Drop(collection string) error {
	if err := validateCollection(collection); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.vouched, collection)
	closeErr := s.release(collection)
	err := os.Remove(s.path(collection))
	if os.IsNotExist(err) {
		err = nil
	}
	return errors.Join(closeErr, err)
}

// Close closes the store's append descriptors. The store stays usable:
// a later write opens its collection again.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for collection := range s.files {
		errs = append(errs, s.release(collection))
	}
	return errors.Join(errs...)
}

// release closes and forgets the collection's append descriptor, if
// any. The caller holds s.mu.
func (s *Store) release(collection string) error {
	f, ok := s.files[collection]
	if !ok {
		return nil
	}
	delete(s.files, collection)
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}
