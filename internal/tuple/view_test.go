package tuple

import (
	"math/rand"
	"testing"
)

// viewBase returns a sealed pooled batch of n rows: string keys in
// field 0, int ids in field 1, a double in field 2.
func viewBase(n int) *ColumnBatch {
	b := GetColumnBatch([]Type{TypeString, TypeInt, TypeDouble}, n)
	for i := 0; i < n; i++ {
		b.StrCol(0)[i] = testWord(i % 5)
		b.IntCol(1)[i] = int64(i)
		b.FloatCol(2)[i] = float64(i) / 4
		b.AddRow(int64(i), int64(i))
	}
	b.Seal(n)
	return b
}

// carried returns the key-hash column b carries for field f, or nil.
func carried(b *ColumnBatch, f int) []uint64 {
	if b.hashField != f {
		return nil
	}
	return b.hash
}

// testWord is a tiny key vocabulary for these tests.
func testWord(i int) string { return [...]string{"a", "bb", "ccc", "dddd", "eeeee"}[i] }

// TestViewFillCallsPanic: a view's slabs belong to its base and its
// siblings, so every call that writes them panics on a view.
func TestViewFillCallsPanic(t *testing.T) {
	b := viewBase(8)
	defer b.Release()
	v := b.View()
	defer v.Release()
	row := &Tuple{Values: []Value{String("x"), Int(1), Double(1)}}
	for name, write := range map[string]func(){
		"AddRow":       func() { v.AddRow(0, 0) },
		"AppendRow":    func() { v.AppendRow(row) },
		"Seal":         func() { v.Seal(1) },
		"AppendJoined": func() { v.AppendJoined(row, row) },
		"SetValueAt":   func() { v.SetValueAt(1, 0, Int(9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a view did not panic", name)
				}
			}()
			write()
		}()
	}
	if got := b.IntCol(1)[0]; got != 0 || b.Len() != 8 {
		t.Fatalf("base changed under a view: row 0 id %d, len %d", got, b.Len())
	}
}

// TestViewSharesSlabsAndStamp: a view reads its base's rows through
// its own selection and carries the base's watermark and hash column.
func TestViewSharesSlabsAndStamp(t *testing.T) {
	b := viewBase(6)
	b.SetWatermark(42)
	hs := b.HashKeys(0)
	v := b.View()
	v.SetSel(append(v.Sel(), 1, 4))
	if v.Live() != 2 || b.Live() != 6 {
		t.Fatalf("view selects %d rows, base %d; want 2 and 6", v.Live(), b.Live())
	}
	if v.Watermark() != 42 || v.base != b {
		t.Fatalf("view wm %d, base %p, want 42 and %p", v.Watermark(), v.base, b)
	}
	if got := carried(v, 0); &got[0] != &hs[0] {
		t.Fatal("view does not share its base's hash column")
	}
	if v.StrCol(0)[4] != testWord(4) || v.IntCol(1)[4] != 4 {
		t.Fatal("view reads other rows than its base's")
	}
	b.Release()
	if b.refs.Load() != 1 {
		t.Fatalf("base held by one view has %d refs", b.refs.Load())
	}
	v.Release()
}

// TestRehashViewKeepsSiblings: hashing a view on another field writes a
// slab the view owns; its sibling and its base keep their hashes. So
// does hashing the base again while its views still share its column.
func TestRehashViewKeepsSiblings(t *testing.T) {
	b := viewBase(16)
	defer b.Release()
	b.HashKeys(0)
	a, c := b.View(), b.View()
	defer a.Release()
	defer c.Release()
	for i := int32(0); i < 16; i++ {
		if i%2 == 0 {
			a.SetSel(append(a.Sel(), i))
		} else {
			c.SetSel(append(c.Sel(), i))
		}
	}
	ha := a.HashKeys(1)
	if carried(a, 0) != nil || carried(c, 1) != nil {
		t.Fatal("hash columns report the wrong field")
	}
	for _, i := range a.Sel() {
		if ha[i] != a.HashAt(1, int(i)) {
			t.Fatalf("view row %d: hash %x, want %x", i, ha[i], a.HashAt(1, int(i)))
		}
	}
	for _, hb := range [][]uint64{carried(b, 0), carried(c, 0)} {
		for i := 0; i < 16; i++ {
			if hb[i] != b.HashAt(0, i) {
				t.Fatalf("row %d: shared hash %x overwritten, want %x", i, hb[i], b.HashAt(0, i))
			}
		}
	}
	hb := b.HashKeys(2)
	hc := carried(c, 0)
	for i := 0; i < 16; i++ {
		if hb[i] != b.HashAt(2, i) || hc[i] != b.HashAt(0, i) {
			t.Fatalf("row %d after re-hashing the base: base %x (want %x), view %x (want %x)",
				i, hb[i], b.HashAt(2, i), hc[i], b.HashAt(0, i))
		}
	}
}

// TestViewsReleaseBaseOnce: however the owner and the views release,
// the base's reference count falls by one per holder and reaches zero
// only with the last of them, which returns the base to the pool.
func TestViewsReleaseBaseOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		b := viewBase(4)
		holders := []*ColumnBatch{b}
		for k := rng.Intn(6); k > 0; k-- {
			holders = append(holders, b.View())
		}
		if rng.Intn(2) == 1 && len(holders) > 1 {
			// A view of a view holds its parent view, not the base.
			holders = append(holders, holders[1].View())
		}
		rng.Shuffle(len(holders), func(i, j int) { holders[i], holders[j] = holders[j], holders[i] })
		for i, h := range holders {
			if !b.pooled {
				t.Fatalf("trial %d: base pooled back after %d of %d releases", trial, i, len(holders))
			}
			h.Release()
		}
		if b.pooled || b.refs.Load() != 0 {
			t.Fatalf("trial %d: after every release pooled=%v refs=%d", trial, b.pooled, b.refs.Load())
		}
	}
}

// TestCloneCarriesHashColumn: a clone owns a copy of the hash column.
func TestCloneCarriesHashColumn(t *testing.T) {
	b := viewBase(8)
	defer b.Release()
	v := b.View()
	v.SetSel(append(v.Sel(), 2, 3))
	v.HashKeys(0)
	c := v.CloneColumns()
	defer c.Release()
	v.Release()
	hc := carried(c, 0)
	if hc == nil || c.base != nil || c.Live() != 2 {
		t.Fatalf("clone: hash column %v, base %p, live %d", hc != nil, c.base, c.Live())
	}
	for _, i := range c.Sel() {
		if hc[i] != c.HashAt(0, int(i)) {
			t.Fatalf("clone row %d: hash %x, want %x", i, hc[i], c.HashAt(0, int(i)))
		}
	}
}
