// Columnar batches: the struct-of-arrays layout of the engine's
// vectorized data plane. A ColumnBatch stores one slab per schema field
// (a contiguous []int64, []float64 or []string) plus event-time, ingest
// and sequence columns and a selection vector, so operator kernels scan
// contiguous memory instead of chasing *Tuple pointers. Batches convert
// to and from row tuples only at plane boundaries (source fill, sink
// tap, handoff to a row-only operator).
//
// Ownership mirrors the row plane's pooled tuples: whoever holds a
// batch last calls Release. Slabs are written only while a batch fills;
// once sealed, kernels mutate only the selection vector. That is what
// lets a batch be split without copying: a view (View) is a header
// that shares its base batch's slabs under its own selection vector.
// The base is reference-counted, one reference per view plus its
// owner's, and whichever holder releases last returns it to the pool.
// A view's slabs are read-only: the fill calls panic on a view.
package tuple

import (
	"math"
	"sync"
	"sync/atomic"
)

// ColumnBatch is a fixed-capacity struct-of-arrays micro-batch. Rows
// [0, Len()) are filled; the selection vector names the rows still
// live after filtering (vectorized filters shrink the selection, they
// never move slab data).
type ColumnBatch struct {
	kinds []Type
	cols  []col
	event []int64
	inge  []int64
	seq   []uint64
	sel   []int32
	n     int
	cap   int
	// wm is the watermark element riding on this batch: the producer's
	// event-time watermark as of emission, or NoEventTime when the batch
	// carries none. Watermarks flow through the columnar plane as batch
	// stamps (cheaper than a control message per advance); the receiver
	// applies the stamp after processing the rows, exactly as a trailing
	// row-plane watermark message would.
	wm int64
	// hash is the key-hash column: hash[i] == HashAt(hashField, i) for
	// every row selected when it was computed (selections only shrink
	// after Seal, so it stays valid for the live rows). hashField is -1
	// when the batch carries none. A view's hash may be its base's;
	// ownHash is the slab this header owns, the one HashKeys writes.
	hash      []uint64
	hashField int
	ownHash   []uint64
	// base is the batch whose slabs a view shares, nil for a batch that
	// owns its slabs. refs counts the holders of a pooled batch: its
	// owner plus one per live view made from it.
	base *ColumnBatch
	refs atomic.Int32
	// pooled marks batches obtained from GetColumnBatch or View; only
	// those return to a free list on their last Release.
	pooled bool
}

// col is one field's slab; exactly one slice is non-nil, chosen by the
// field's kind.
type col struct {
	ints   []int64
	floats []float64
	strs   []string
}

// NewColumnBatch builds an unpooled batch for the given field kinds
// with room for capacity rows.
func NewColumnBatch(kinds []Type, capacity int) *ColumnBatch {
	if capacity <= 0 {
		capacity = 1
	}
	b := &ColumnBatch{}
	b.shape(kinds, capacity)
	return b
}

// shape (re)allocates slabs so the batch holds capacity rows of kinds.
func (b *ColumnBatch) shape(kinds []Type, capacity int) {
	b.kinds = kinds
	b.n = 0
	if cap(b.cols) >= len(kinds) {
		b.cols = b.cols[:len(kinds)]
	} else {
		b.cols = make([]col, len(kinds))
	}
	for i, k := range kinds {
		c := &b.cols[i]
		switch k {
		case TypeInt:
			if cap(c.ints) < capacity {
				c.ints = make([]int64, capacity)
			}
			c.ints = c.ints[:capacity]
		case TypeDouble:
			if cap(c.floats) < capacity {
				c.floats = make([]float64, capacity)
			}
			c.floats = c.floats[:capacity]
		default:
			if cap(c.strs) < capacity {
				c.strs = make([]string, capacity)
			}
			c.strs = c.strs[:capacity]
		}
	}
	if cap(b.event) < capacity {
		b.event = make([]int64, capacity)
		b.inge = make([]int64, capacity)
		b.seq = make([]uint64, capacity)
		b.sel = make([]int32, 0, capacity)
	}
	b.event = b.event[:capacity]
	b.inge = b.inge[:capacity]
	b.seq = b.seq[:capacity]
	b.sel = b.sel[:0]
	b.cap = capacity
	b.wm = NoEventTime
	b.hash, b.hashField = nil, -1
}

// columnPool recycles batches across source refills and channel hops,
// the same role the row plane's tuple pool plays. viewPool recycles
// view headers; a header enters it only after dropping every pointer
// into its base's slabs, so the two pools never share slabs.
var (
	columnPool = sync.Pool{New: func() any { return &ColumnBatch{} }}
	viewPool   = sync.Pool{New: func() any { return &ColumnBatch{} }}
)

// GetColumnBatch returns a pooled (or fresh) batch shaped for kinds and
// capacity, with zero rows. The caller owns it and must Release it (or
// hand ownership downstream) exactly once.
func GetColumnBatch(kinds []Type, capacity int) *ColumnBatch {
	b := columnPool.Get().(*ColumnBatch)
	b.pooled = true
	b.refs.Store(1)
	b.shape(kinds, capacity)
	return b
}

// View returns a pooled view of b with an empty selection: it shares
// b's slabs and key-hash column and carries b's watermark stamp. The
// caller owns the view and must Release it; b stays alive until its
// owner and every view have released it. Views of views share the
// same slabs and hold their parent view alive.
func (b *ColumnBatch) View() *ColumnBatch {
	v := viewPool.Get().(*ColumnBatch)
	v.pooled = true
	v.refs.Store(1)
	if b.pooled {
		b.refs.Add(1)
	}
	v.base = b
	v.kinds, v.cols = b.kinds, b.cols
	v.event, v.inge, v.seq = b.event, b.inge, b.seq
	v.n, v.cap = b.n, b.cap
	v.sel = v.sel[:0]
	v.wm = b.wm
	v.hash, v.hashField = b.hash, b.hashField
	return v
}

// Release drops the caller's hold on a pooled batch; the last holder
// returns it to the free list. On unpooled batches it is a no-op, so
// drop points can release unconditionally. String slabs are cleared so
// recycled batches do not retain payloads. A view's last release
// detaches the header from its base's slabs, pools the header and
// releases the base.
func (b *ColumnBatch) Release() {
	if b == nil || !b.pooled || b.refs.Add(-1) != 0 {
		return
	}
	b.pooled = false
	if base := b.base; base != nil {
		b.base = nil
		b.kinds, b.cols = nil, nil
		b.event, b.inge, b.seq = nil, nil, nil
		b.hash, b.hashField = nil, -1
		b.n, b.cap = 0, 0
		b.sel = b.sel[:0]
		b.wm = NoEventTime
		viewPool.Put(b)
		base.Release()
		return
	}
	// Only string columns: a recycled batch keeps the slabs of kinds it
	// had before, and those may be shorter than this use's rows.
	for i, k := range b.kinds {
		if k == TypeString {
			clear(b.cols[i].strs[:b.n])
		}
	}
	b.n = 0
	b.sel = b.sel[:0]
	b.wm = NoEventTime
	b.hash, b.hashField = nil, -1
	columnPool.Put(b)
}

// mustOwnSlabs guards the fill calls: a view's slabs are its base's and
// its siblings', so writing them would change rows other holders read.
func (b *ColumnBatch) mustOwnSlabs() {
	if b.base != nil {
		panic("tuple: write to the slabs of a column batch view")
	}
}

// Width returns the number of fields.
func (b *ColumnBatch) Width() int { return len(b.kinds) }

// Cap returns the row capacity.
func (b *ColumnBatch) Cap() int { return b.cap }

// Len returns the number of filled rows (live or filtered out).
func (b *ColumnBatch) Len() int { return b.n }

// Live returns the number of selected (still live) rows.
func (b *ColumnBatch) Live() int { return len(b.sel) }

// Kinds returns the per-field kinds; callers must not mutate it.
func (b *ColumnBatch) Kinds() []Type { return b.kinds }

// Kind returns field f's kind.
func (b *ColumnBatch) Kind(f int) Type { return b.kinds[f] }

// Watermark returns the watermark element riding on this batch, or
// NoEventTime when the batch carries none.
func (b *ColumnBatch) Watermark() int64 { return b.wm }

// SetWatermark stamps a watermark onto the batch: a promise by the
// producer that every row it ships after this batch has event time
// >= wm. Receivers apply the stamp after the batch's own rows.
func (b *ColumnBatch) SetWatermark(wm int64) { b.wm = wm }

// Sel returns the selection vector: indexes of live rows in fill
// order. Kernels filter it in place and hand the shrunk slice back via
// SetSel.
func (b *ColumnBatch) Sel() []int32 { return b.sel }

// SetSel installs a shrunk selection vector (normally a prefix of the
// slice Sel returned, filtered in place).
func (b *ColumnBatch) SetSel(sel []int32) { b.sel = sel }

// IntCol, FloatCol and StrCol return field f's slab. The slab covers
// the batch's full capacity; only indexes below Len hold data. Calling
// the wrong accessor for the field's kind returns nil.
func (b *ColumnBatch) IntCol(f int) []int64     { return b.cols[f].ints }
func (b *ColumnBatch) FloatCol(f int) []float64 { return b.cols[f].floats }
func (b *ColumnBatch) StrCol(f int) []string    { return b.cols[f].strs }

// EventCol returns the event-time column (nanoseconds).
func (b *ColumnBatch) EventCol() []int64 { return b.event }

// IngestCol returns the ingest wall-clock column (UnixNano).
func (b *ColumnBatch) IngestCol() []int64 { return b.inge }

// SeqCol returns the per-source sequence column.
func (b *ColumnBatch) SeqCol() []uint64 { return b.seq }

// ValueAt boxes row i of field f into a Value — the row-plane view of
// one cell. Kernel loops must not call this (it re-boxes per cell);
// it exists for conversion boundaries and tests.
func (b *ColumnBatch) ValueAt(f, i int) Value {
	switch b.kinds[f] {
	case TypeInt:
		return Value{Kind: TypeInt, I: b.cols[f].ints[i]}
	case TypeDouble:
		return Value{Kind: TypeDouble, D: b.cols[f].floats[i]}
	default:
		return Value{Kind: TypeString, S: b.cols[f].strs[i]}
	}
}

// FloatAt reads row i of field f as a float64 with Value.AsFloat's
// rules: ints convert, doubles pass through, strings read as their
// length.
func (b *ColumnBatch) FloatAt(f, i int) float64 {
	switch b.kinds[f] {
	case TypeInt:
		return float64(b.cols[f].ints[i])
	case TypeDouble:
		return b.cols[f].floats[i]
	default:
		return float64(len(b.cols[f].strs[i]))
	}
}

// SetValueAt stores v into row i of field f, coercing by the column's
// kind the same way cross-kind tuples coerce nowhere — the caller must
// pass a value of the column's kind (AppendRow enforces this for whole
// tuples).
func (b *ColumnBatch) SetValueAt(f, i int, v Value) {
	b.mustOwnSlabs()
	switch b.kinds[f] {
	case TypeInt:
		b.cols[f].ints[i] = v.I
	case TypeDouble:
		b.cols[f].floats[i] = v.D
	default:
		b.cols[f].strs[i] = v.S
	}
}

// HashAt returns the FNV-1a hash of row i of field f — bit-identical
// to Value.Hash on the boxed cell, so hash partitioning routes a row
// to the same instance on either plane.
func (b *ColumnBatch) HashAt(f, i int) uint64 {
	k := b.kinds[f]
	h := uint64(fnvOffset64)
	h = (h ^ uint64(byte(k))) * fnvPrime64
	switch k {
	case TypeInt, TypeDouble:
		var u uint64
		if k == TypeDouble {
			u = math.Float64bits(b.cols[f].floats[i])
		} else {
			u = uint64(b.cols[f].ints[i])
		}
		for i := 0; i < 64; i += 8 {
			h = (h ^ (u >> i & 0xff)) * fnvPrime64
		}
	default:
		s := b.cols[f].strs[i]
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime64
		}
	}
	return h
}

// HashKeys returns the key-hash column for field f, computing it for
// the selected rows unless the batch already carries it: after this
// call hash[i] == HashAt(f, i) for every selected row i. A view that
// shares its base's column and is asked for another field hashes into
// a slab of its own, so its siblings' hashes stay intact; so does a
// batch whose own column its views may still read (an unpooled batch
// does not count its views, so it always takes a fresh slab).
func (b *ColumnBatch) HashKeys(f int) []uint64 {
	if b.hashField == f {
		return b.hash
	}
	if cap(b.ownHash) < b.cap || b.refs.Load() > 1 || !b.pooled {
		b.ownHash = make([]uint64, b.cap)
	}
	hs := b.ownHash[:b.cap]
	for _, i := range b.sel {
		hs[i] = b.HashAt(f, int(i))
	}
	b.hash, b.hashField = hs, f
	return hs
}

// AppendRow copies one tuple into the next row (row→column conversion
// at a plane boundary). The tuple's values must match the batch's
// kinds; mismatched kinds store the matching payload field, mirroring
// how the row plane never coerces either. It panics when full, like a
// slab index out of range would.
func (b *ColumnBatch) AppendRow(t *Tuple) {
	b.mustOwnSlabs()
	i := b.n
	w := len(b.kinds)
	for f := 0; f < w && f < len(t.Values); f++ {
		b.SetValueAt(f, i, t.Values[f])
	}
	b.event[i] = t.EventTime
	b.inge[i] = t.Ingest
	b.seq[i] = t.Seq
	b.n = i + 1
}

// AddRow reserves the next row with the given event and ingest times
// and sequence 0, and returns its index. The caller writes every field
// of the row through the column slabs. It panics when full.
func (b *ColumnBatch) AddRow(event, ingest int64) int {
	b.mustOwnSlabs()
	i := b.n
	b.event[i] = event
	b.inge[i] = ingest
	b.seq[i] = 0
	b.n = i + 1
	return i
}

// AppendJoined writes the concatenation of two tuples' values into the
// next row, with event and ingest time the pairwise max — the columnar
// form of a windowed join's output (left values, then right values),
// skipping the intermediate joined tuple entirely. Returns the new
// length.
func (b *ColumnBatch) AppendJoined(l, r *Tuple) int {
	b.mustOwnSlabs()
	i := b.n
	kinds, cols := b.kinds, b.cols
	f := 0
	// Pointer iteration: ranging by value would copy each ~40-byte Value
	// struct just to pick one payload field out of it.
	for vi := range l.Values {
		v := &l.Values[vi]
		switch kinds[f] {
		case TypeInt:
			cols[f].ints[i] = v.I
		case TypeDouble:
			cols[f].floats[i] = v.D
		default:
			cols[f].strs[i] = v.S
		}
		f++
	}
	for vi := range r.Values {
		v := &r.Values[vi]
		switch kinds[f] {
		case TypeInt:
			cols[f].ints[i] = v.I
		case TypeDouble:
			cols[f].floats[i] = v.D
		default:
			cols[f].strs[i] = v.S
		}
		f++
	}
	et, ing := l.EventTime, l.Ingest
	if r.EventTime > et {
		et = r.EventTime
	}
	if r.Ingest > ing {
		ing = r.Ingest
	}
	b.event[i] = et
	b.inge[i] = ing
	b.seq[i] = 0
	b.n = i + 1
	return b.n
}

// Seal marks rows [0, n) filled and selects them all. Fill paths that
// bypass AppendRow (the generator fast path writes slabs directly)
// call it with their row count; AppendRow callers pass Len().
func (b *ColumnBatch) Seal(n int) {
	b.mustOwnSlabs()
	b.n = n
	b.hash, b.hashField = nil, -1
	b.sel = b.sel[:0]
	for i := 0; i < n; i++ {
		b.sel = append(b.sel, int32(i))
	}
}

// SealSource is Seal plus source stamping: rows get ingest wall-clock
// now, sequence numbers seqBase+i, and — when the generator left event
// time unassigned (NoEventTime) — event time now, exactly as the
// row-plane source loop stamps each tuple.
func (b *ColumnBatch) SealSource(n int, now int64, seqBase uint64) {
	b.Seal(n)
	for i := 0; i < n; i++ {
		if b.event[i] == NoEventTime {
			b.event[i] = now
		}
		b.inge[i] = now
		b.seq[i] = seqBase + uint64(i)
	}
}

// MaterializeRow boxes row i into a pooled tuple (column→row
// conversion at a plane boundary); the caller owns the tuple.
func (b *ColumnBatch) MaterializeRow(i int) *Tuple {
	t := Get(len(b.kinds))
	for f := range b.kinds {
		t.Values[f] = b.ValueAt(f, i)
	}
	t.EventTime = b.event[i]
	t.Ingest = b.inge[i]
	t.Seq = b.seq[i]
	return t
}

// CloneColumns deep-copies the batch (filled rows, selection and
// key-hash column) into a pooled batch — the fan-out path's clone, so
// routes never share mutable selection vectors.
func (b *ColumnBatch) CloneColumns() *ColumnBatch {
	c := GetColumnBatch(b.kinds, b.cap)
	n := b.n
	for f, k := range b.kinds {
		switch k {
		case TypeInt:
			copy(c.cols[f].ints, b.cols[f].ints[:n])
		case TypeDouble:
			copy(c.cols[f].floats, b.cols[f].floats[:n])
		default:
			copy(c.cols[f].strs, b.cols[f].strs[:n])
		}
	}
	copy(c.event, b.event[:n])
	copy(c.inge, b.inge[:n])
	copy(c.seq, b.seq[:n])
	c.n = n
	c.sel = append(c.sel[:0], b.sel...)
	c.wm = b.wm
	if b.hashField >= 0 {
		if cap(c.ownHash) < c.cap {
			c.ownHash = make([]uint64, c.cap)
		}
		c.hash, c.hashField = c.ownHash[:c.cap], b.hashField
		copy(c.hash, b.hash[:n])
	}
	return c
}

// KindsOf extracts the per-field kinds of a schema — the shape a
// ColumnBatch is allocated from.
func KindsOf(s *Schema) []Type {
	kinds := make([]Type, len(s.Fields))
	for i, f := range s.Fields {
		kinds[i] = f.Type
	}
	return kinds
}
