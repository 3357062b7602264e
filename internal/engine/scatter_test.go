package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pdspbench/internal/core"
	"pdspbench/internal/tuple"
)

// scatterTargets returns p bare target instances with roomy inputs, as
// many as a router needs to route to without running them.
func scatterTargets(p int) []*opInstance {
	ts := make([]*opInstance, p)
	for i := range ts {
		ts[i] = &opInstance{idx: i, in: make(chan message, 4096), colOK: true}
	}
	return ts
}

// countWindowOp is a keyed tumbling count window under part.
func countWindowOp(part core.PartitionStrategy) *core.Operator {
	return &core.Operator{ID: "agg", Kind: core.OpAggregate, Partition: part,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyCount, LengthTups: 5},
			Fn:     core.AggCount, Field: 1, KeyField: 0,
		}}
}

// randomKeyBatch fills a pooled batch with n rows whose key field 0 has
// the given kind (drawn from a small domain, so keys repeat), whose
// field 2 is a non-empty string payload, whose sequence column numbers
// the rows, and whose selection drops about a fifth of them.
func randomKeyBatch(rng *rand.Rand, kind tuple.Type, n int) *tuple.ColumnBatch {
	cb := tuple.GetColumnBatch([]tuple.Type{kind, tuple.TypeDouble, tuple.TypeString}, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(40)
		switch kind {
		case tuple.TypeInt:
			cb.IntCol(0)[i] = int64(k)
		case tuple.TypeDouble:
			cb.FloatCol(0)[i] = float64(k) / 3
		default:
			cb.StrCol(0)[i] = fmt.Sprintf("key-%d", k)
		}
		cb.FloatCol(1)[i] = rng.Float64()
		cb.StrCol(2)[i] = "payload"
		cb.AddRow(int64(i), int64(i))
	}
	cb.Seal(n)
	for i := range cb.SeqCol()[:n] {
		cb.SeqCol()[i] = uint64(i)
	}
	sel := cb.Sel()[:0]
	for _, i := range cb.Sel() {
		if rng.Intn(5) != 0 {
			sel = append(sel, i)
		}
	}
	cb.SetSel(sel)
	return cb
}

// drainInputs takes every message queued on the targets' inputs.
func drainInputs(ts []*opInstance) [][]message {
	out := make([][]message, len(ts))
	for di, oi := range ts {
		for len(oi.in) > 0 {
			out[di] = append(out[di], <-oi.in)
		}
	}
	return out
}

// TestScatterViewsRouteAsRowPlane is the property behind scattering by
// selection: over random batches (int, double and string keys, some
// rows deselected), parallelism 1-8, hash partitioning and rebalancing
// onto a count window, every selected row reaches the target the row
// plane's router picks for it with its key hash (shared by every view
// of a hash-partitioned batch), and each base batch is released exactly
// once, after its last view. The base's last release clears its string
// slabs, which is how this test sees it.
func TestScatterViewsRouteAsRowPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ctx := context.Background()
	kinds := []tuple.Type{tuple.TypeInt, tuple.TypeDouble, tuple.TypeString}
	parts := []core.PartitionStrategy{core.PartitionHash, core.PartitionRebalance}
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(8)
		kind := kinds[rng.Intn(len(kinds))]
		part := parts[rng.Intn(len(parts))]
		from := rng.Intn(4)
		down := countWindowOp(part)
		colTs, rowTs := scatterTargets(p), scatterTargets(p)
		colRT := newRouter(down, colTs, 0, from, 1)
		rowRT := newRouter(down, rowTs, 0, from, 1)
		for batch := 0; batch < 3; batch++ {
			cb := randomKeyBatch(rng, kind, 1+rng.Intn(300))
			// The row plane's choice for every selected row, by sequence.
			want := map[uint64]int{}
			for _, i := range cb.Sel() {
				if !rowRT.send(ctx, from, cb.MaterializeRow(int(i))) {
					t.Fatal("row send failed")
				}
				for di, msgs := range drainInputs(rowTs) {
					for _, m := range msgs {
						for _, tp := range *m.b {
							want[tp.Seq] = di
							tp.Release()
						}
						putBatch(m.b)
					}
				}
			}
			guard := cb.View() // keeps the base alive after the scatter
			live := cb.Live()
			payload := cb.StrCol(2)
			if !colRT.sendColumns(ctx, from, cb) {
				t.Fatal("column send failed")
			}
			got := 0
			var held []*tuple.ColumnBatch
			var shared *uint64
			for di, msgs := range drainInputs(colTs) {
				if len(msgs) > 1 {
					t.Fatalf("trial %d: target %d got %d messages for one batch", trial, di, len(msgs))
				}
				for _, m := range msgs {
					v := m.cb
					hs := v.HashKeys(0)
					if part == core.PartitionHash && p > 1 {
						// The scatter's hashes ride on every view: none
						// of them hashes again.
						if shared == nil {
							shared = &hs[:1][0]
						} else if &hs[:1][0] != shared {
							t.Fatalf("trial %d: target %d hashed its keys again", trial, di)
						}
					}
					for _, i := range v.Sel() {
						seq := v.SeqCol()[i]
						if w, ok := want[seq]; !ok || w != di {
							t.Fatalf("trial %d (p=%d %v %v): row %d reached target %d, row plane picks %d", trial, p, part, kind, seq, di, w)
						}
						if hs[i] != v.HashAt(0, int(i)) {
							t.Fatalf("trial %d: row %d hash %x, want %x", trial, seq, hs[i], v.HashAt(0, int(i)))
						}
						got++
					}
					held = append(held, v)
				}
			}
			if got != live {
				t.Fatalf("trial %d: %d of %d rows delivered", trial, got, live)
			}
			rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
			for _, v := range held {
				v.Release()
			}
			// The guard still holds the base: no view and not the
			// scatter released it twice. Its release is the last one.
			if payload[0] == "" {
				t.Fatalf("trial %d: base batch returned to the pool while the guard held it", trial)
			}
			guard.Release()
			if payload[0] != "" {
				t.Fatalf("trial %d: base batch not returned to the pool after its last holder", trial)
			}
		}
	}
}

// TestScatterSiblingViewsConcurrentReads: sibling views of one batch go
// to target goroutines that read them, re-hash them on another field
// and release them concurrently (run under -race).
func TestScatterSiblingViewsConcurrentReads(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	ts := scatterTargets(p)
	rt := newRouter(countWindowOp(core.PartitionHash), ts, 0, 0, 1)
	var wg sync.WaitGroup
	sums := make([]uint64, p)
	for di := range ts {
		wg.Add(1)
		go func(oi *opInstance) {
			defer wg.Done()
			for m := range oi.in {
				v := m.cb
				keys, hs := v.StrCol(0), v.HashKeys(0)
				for _, i := range v.Sel() {
					sums[oi.idx] += hs[i] + uint64(len(keys[i]))
				}
				v.HashKeys(1)
				v.Release()
			}
		}(ts[di])
	}
	for b := 0; b < 50; b++ {
		if !rt.sendColumns(ctx, 0, randomKeyBatch(rng, tuple.TypeString, 256)) {
			t.Fatal("send failed")
		}
	}
	for _, oi := range ts {
		close(oi.in)
	}
	wg.Wait()
	for di, s := range sums {
		if s == 0 {
			t.Errorf("target %d read nothing", di)
		}
	}
}

// TestScatterWatermarkReachesIdleTarget: a target that gets no row of
// a stamped batch still gets its watermark, once per advance.
func TestScatterWatermarkReachesIdleTarget(t *testing.T) {
	ctx := context.Background()
	ts := scatterTargets(2)
	rt := newRouter(countWindowOp(core.PartitionHash), ts, 0, 0, 1)
	rt.wmID = 3
	// Every row has the same key, so exactly one target gets rows.
	one := func(wm int64) *tuple.ColumnBatch {
		cb := tuple.GetColumnBatch([]tuple.Type{tuple.TypeInt, tuple.TypeDouble}, 4)
		for i := 0; i < 4; i++ {
			cb.IntCol(0)[i] = 7
			cb.AddRow(0, 0)
		}
		cb.Seal(4)
		cb.SetWatermark(wm)
		return cb
	}
	busy := int(tuple.Int(7).Hash() % 2)
	idle := 1 - busy
	var sent []*tuple.ColumnBatch
	for _, wm := range []int64{100, 100, 250} {
		cb := one(wm)
		sent = append(sent, cb)
		if !rt.sendColumns(ctx, 0, cb) {
			t.Fatal("send failed")
		}
	}
	msgs := drainInputs(ts)
	if len(msgs[busy]) != 3 {
		t.Fatalf("busy target got %d messages, want 3 batches", len(msgs[busy]))
	}
	for k, m := range msgs[busy] {
		if m.cb != sent[k] || m.cb.Live() != 4 {
			t.Fatal("the only target with rows should get the batch itself")
		}
		m.cb.Release()
	}
	var wms []int64
	for _, m := range msgs[idle] {
		if m.kind != msgWatermark || m.from != 3 {
			t.Fatalf("idle target got %+v, want watermarks only", m)
		}
		wms = append(wms, m.wm)
	}
	if fmt.Sprint(wms) != "[100 250]" {
		t.Fatalf("idle target saw watermarks %v, want [100 250]", wms)
	}
}
