package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"pdspbench/internal/core"
	"pdspbench/internal/stream"
	"pdspbench/internal/tuple"
)

// runColumnar executes plan with synthetic sources at the given seed and
// returns the sink multiset fingerprint plus the run report.
func runColumnar(t *testing.T, plan *core.PQP, seed int64, perSource int, opts Options) ([]string, *Report) {
	t.Helper()
	sink := &collectSink{}
	srcs := make(map[string]SourceFactory)
	for si, src := range plan.Sources() {
		spec := src.Source
		srcSeed := seed + int64(si)*104729
		srcs[src.ID] = func(idx int) SourceGenerator {
			return stream.NewSynthetic(spec.Schema, srcSeed+int64(idx)*7919, perSource, spec.EventRate, spec.Distribution)
		}
	}
	opts.Sources = srcs
	opts.SinkTap = sink.tap
	rt, err := New(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sortedRendering(sink.tuples()), rep
}

// chainedFilterPlan: src → f1 (rebalance) → f2 (forward) → f3 (hash)
// → sink, a chain of filters: the columnar plane's home turf.
func chainedFilterPlan() *core.PQP {
	p := core.NewPQP("columnar-filters", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 100_000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "f1", Kind: core.OpFilter, Parallelism: 3, Partition: core.PartitionRebalance,
		Filter:   &core.FilterSpec{Field: 1, Fn: core.FilterGreater, Literal: tuple.Double(0.25), Selectivity: 0.75},
		OutWidth: 2})
	p.Add(&core.Operator{ID: "f2", Kind: core.OpFilter, Parallelism: 3, Partition: core.PartitionForward,
		Filter:   &core.FilterSpec{Field: 0, Fn: core.FilterLess, Literal: tuple.Int(800), Selectivity: 0.8},
		OutWidth: 2})
	p.Add(&core.Operator{ID: "f3", Kind: core.OpFilter, Parallelism: 2, Partition: core.PartitionHash,
		Filter:   &core.FilterSpec{Field: 0, Fn: core.FilterNotEq, Literal: tuple.Int(7), Selectivity: 0.99},
		OutWidth: 2})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
	p.Connect("src", "f1")
	p.Connect("f1", "f2")
	p.Connect("f2", "f3")
	p.Connect("f3", "sink")
	return p
}

// TestColumnarMatchesRowUnchained: the columnar plane is an execution
// optimization, so a deterministic plan must deliver a bit-identical
// sink multiset on the row plane and on the columnar plane, with every
// link crossing a router, at batch capacities that never divide the
// input evenly — including capacity 1, the degenerate
// one-row-per-batch plane.
func TestColumnarMatchesRowUnchained(t *testing.T) {
	plan := chainedFilterPlan()
	for _, tc := range []struct {
		seed int64
		n    int
		rows []int // ColumnarBatch capacities; 0 is the default 1024
	}{
		{seed: 11, n: 2000, rows: []int{0}},
		{seed: 42, n: 3000, rows: []int{0, 1, 7, 4096}},
	} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			want, _ := runColumnar(t, plan, tc.seed, tc.n, Options{RowPlane: true})
			if len(want) == 0 {
				t.Fatal("row plan produced no output")
			}
			for _, rows := range tc.rows {
				got, rep := runColumnar(t, plan, tc.seed, tc.n, Options{ColumnarBatch: rows})
				if rep.ColumnarBatches == 0 {
					t.Fatalf("ColumnarBatch %d: no columnar batches routed", rows)
				}
				if len(got) != len(want) {
					t.Fatalf("ColumnarBatch %d: %d sink tuples, row plane produced %d", rows, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("ColumnarBatch %d: sink multiset diverges at %d: %q vs %q", rows, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestColumnarFallbackToRowChain: a columnar stretch feeding a row-only
// operator (a keyed windowed aggregate) must materialize at the router
// — automatically, with identical output and a visible fallback count.
// The filter also feeds a second sink: a stretch whose columns all end
// in the fallback stays on rows (columnsPay), so the sink is what keeps
// this one columnar.
func TestColumnarFallbackToRowChain(t *testing.T) {
	p := core.NewPQP("columnar-fallback", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 100_000}, OutWidth: 2})
	// Filter parallelism stays 1 so each aggregate instance sees one
	// ordered upstream channel: with several filter instances racing, the
	// row plane itself is not deterministic (channel interleaving skews
	// float-sum order and watermark progress).
	p.Add(&core.Operator{ID: "f", Kind: core.OpFilter, Parallelism: 1, Partition: core.PartitionRebalance,
		Filter:   &core.FilterSpec{Field: 1, Fn: core.FilterGreaterEq, Literal: tuple.Double(0.1), Selectivity: 0.9},
		OutWidth: 2})
	// The window spans the whole stream so every pane emits at the
	// deterministic sorted flush.
	p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 2, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyTime, LengthMs: 100},
			Fn:     core.AggSum, Field: 1, KeyField: 0,
		}, OutWidth: 2})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
	p.Add(&core.Operator{ID: "audit", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
	p.Connect("src", "f")
	p.Connect("f", "agg")
	p.Connect("f", "audit")
	p.Connect("agg", "sink")

	const n = 2000
	want, _ := runColumnar(t, p, 5, n, Options{RowPlane: true})
	got, rep := runColumnar(t, p, 5, n, Options{})
	if rep.ColumnarBatches == 0 {
		t.Fatal("no columnar batches routed")
	}
	if rep.ColumnarFallbackBatches == 0 {
		t.Fatal("columnar plan with a row-only aggregate reported no fallback batches")
	}
	if len(got) != len(want) {
		t.Fatalf("%d sink tuples, row plane produced %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sink multiset diverges at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestColumnarDisabledUnderThrottleAndFaults: pacing and chaos are
// per-row mechanisms, so the engine must drop to the row plane when
// either is armed.
func TestColumnarDisabledUnderThrottleAndFaults(t *testing.T) {
	plan := chainedFilterPlan()
	_, rep := runColumnar(t, plan, 3, 200, Options{Throttle: true})
	if rep.ColumnarBatches != 0 {
		t.Fatalf("throttled run routed %d columnar batches, want 0", rep.ColumnarBatches)
	}
}

// TestColumnarGenericFillPath: generators without the ColumnFiller fast
// path (FromTuples) convert row by row at the source boundary; the
// result must match the row plane exactly.
func TestColumnarGenericFillPath(t *testing.T) {
	p := core.NewPQP("columnar-generic", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "f", Kind: core.OpFilter, Parallelism: 2, Partition: core.PartitionRebalance,
		Filter:   &core.FilterSpec{Field: 0, Fn: core.FilterLess, Literal: tuple.Int(5), Selectivity: 0.5},
		OutWidth: 2})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
	p.Connect("src", "f")
	p.Connect("f", "sink")

	var input []*tuple.Tuple
	for i := 0; i < 100; i++ {
		input = append(input, kv(int64(i), int64(i%10), float64(i)))
	}
	run := func(rowPlane bool) []string {
		sink := &collectSink{}
		rt, err := New(p, Options{
			Sources: map[string]SourceFactory{"src": func(idx int) SourceGenerator {
				if idx == 0 {
					return stream.NewFromTuples(input...)
				}
				return stream.NewFromTuples()
			}},
			SinkTap:       sink.tap,
			RowPlane:      rowPlane,
			ColumnarBatch: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return sortedRendering(sink.tuples())
	}
	want, got := run(true), run(false)
	if len(want) != 50 || len(got) != len(want) {
		t.Fatalf("row/columnar delivered %d/%d tuples, want 50", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sink multiset diverges at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestColumnChannelsBoundedInRows: an instance fed column batches has
// room for as many in-flight rows of full batches in its input channel
// as a row-plane instance does (ChannelCapacity batches of BatchSize
// tuples), not ChannelCapacity whole column batches. An instance fed rows — here
// the sink behind a count window, whose results leave as rows — keeps
// ChannelCapacity messages.
func TestColumnChannelsBoundedInRows(t *testing.T) {
	p := core.NewPQP("column-channels", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "f", Kind: core.OpFilter, Parallelism: 2, Partition: core.PartitionRebalance,
		Filter:   &core.FilterSpec{Field: 1, Fn: core.FilterGreater, Literal: tuple.Double(0.5), Selectivity: 0.5},
		OutWidth: 2})
	p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 2, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyCount, LengthTups: 10},
			Fn:     core.AggCount, Field: 1, KeyField: 0,
		}, OutWidth: 2})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
	p.Connect("src", "f")
	p.Connect("f", "agg")
	p.Connect("agg", "sink")
	srcs := map[string]SourceFactory{"src": func(int) SourceGenerator { return stream.NewFromTuples() }}
	for _, o := range []Options{{}, {ChannelCapacity: 128, BatchSize: 32, ColumnarBatch: 512}} {
		o.Sources = srcs
		rt, err := New(p, o)
		if err != nil {
			t.Fatal(err)
		}
		o = rt.opts // defaults filled in
		rowPlaneRows := o.ChannelCapacity * o.BatchSize
		for _, id := range []string{"f", "agg"} {
			for _, oi := range rt.insts[id] {
				if rows := cap(oi.in) * o.ColumnarBatch; rows != rowPlaneRows {
					t.Errorf("%+v: %s holds %d batches of %d rows = %d rows, the row plane %d", o, id, cap(oi.in), o.ColumnarBatch, rows, rowPlaneRows)
				}
			}
		}
		if c := cap(rt.insts["sink"][0].in); c != o.ChannelCapacity {
			t.Errorf("sink behind the count window holds %d messages, want %d", c, o.ChannelCapacity)
		}
		rowRT, err := New(p, Options{Sources: srcs, RowPlane: true, ChannelCapacity: o.ChannelCapacity})
		if err != nil {
			t.Fatal(err)
		}
		if c := cap(rowRT.insts["f"][0].in); c != o.ChannelCapacity {
			t.Errorf("row plane: f holds %d messages, want %d", c, o.ChannelCapacity)
		}
	}
}

// TestCountWindowPlanesAgree: keyed tumbling count windows fold straight
// from columns; under hash and under rebalance partitioning (which
// scatters row by row onto a window, as the row plane routes) the sink
// multiset matches the row plane's at parallelism 3.
func TestCountWindowPlanesAgree(t *testing.T) {
	for _, part := range []core.PartitionStrategy{core.PartitionHash, core.PartitionRebalance} {
		p := core.NewPQP("count-planes", "linear")
		p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
			Source: &core.SourceSpec{Schema: kvSchema, EventRate: 100_000}, OutWidth: 2})
		p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 3, Partition: part,
			Agg: &core.AggregateSpec{
				Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyCount, LengthTups: 7},
				Fn:     core.AggMax, Field: 1, KeyField: 0,
			}, OutWidth: 2})
		p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
		p.Connect("src", "agg")
		p.Connect("agg", "sink")
		want, _ := runColumnar(t, p, 9, 3000, Options{RowPlane: true})
		got, rep := runColumnar(t, p, 9, 3000, Options{ColumnarBatch: 100})
		if rep.ColumnarBatches == 0 || rep.ColumnarFallbackBatches != 0 {
			t.Fatalf("%v: %d column batches, %d fallbacks; want the window on columns", part, rep.ColumnarBatches, rep.ColumnarFallbackBatches)
		}
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("%v: columnar delivered %d, row plane %d", part, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: sink multiset diverges at %d: %q vs %q", part, i, got[i], want[i])
			}
		}
	}
}

// passKeys is a ColumnUDO that forwards (key) and panics on key 13.
type passKeys struct{}

var passKinds = []tuple.Type{tuple.TypeInt}

func (passKeys) Process(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	if t.At(0).I == 13 {
		panic("key 13")
	}
	o := tuple.Get(1)
	o.Values[0] = t.At(0)
	o.EventTime, o.Ingest = t.EventTime, t.Ingest
	t.Release()
	emit(o)
}

func (passKeys) Flush(func(*tuple.Tuple)) {}

func (passKeys) OutKinds() []tuple.Type { return passKinds }

func (passKeys) ProcessColumns(in *tuple.ColumnBatch, out *ColumnOut) {
	keys, ev, inge := in.IntCol(0), in.EventCol(), in.IngestCol()
	for _, r := range in.Sel() {
		b, i := out.Row(ev[r], inge[r])
		if keys[r] == 13 {
			panic("key 13")
		}
		b.IntCol(0)[i] = keys[r]
	}
}

// TestColumnUDOPanicIsIsolated: a ColumnUDO that panics costs one UDO
// panic, the rest of its input batch and the row it reserved last; the
// run goes on and every other batch arrives whole.
func TestColumnUDOPanicIsIsolated(t *testing.T) {
	p := core.NewPQP("column-udo-panic", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "u", Kind: core.OpUDO, Parallelism: 1, Partition: core.PartitionForward,
		UDO: &core.UDOSpec{Name: "pass"}, OutWidth: 1})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	p.Connect("src", "u")
	p.Connect("u", "sink")
	var in []*tuple.Tuple
	for i := 0; i < 64; i++ {
		in = append(in, kv(int64(i), int64(i), 0))
	}
	for _, rowPlane := range []bool{true, false} {
		sink := &collectSink{}
		rt, err := New(p, Options{
			Sources:       map[string]SourceFactory{"src": func(int) SourceGenerator { return stream.NewFromTuples(in...) }},
			UDOs:          map[string]UDOFactory{"pass": func(int) UDO { return passKeys{} }},
			SinkTap:       sink.tap,
			RowPlane:      rowPlane,
			ColumnarBatch: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Row plane: only key 13 is lost. Columns: of the batch of keys
		// 0..15, keys 0..12 arrive and the row reserved for 13 is
		// dropped with the rest of the batch.
		want := 63
		if !rowPlane {
			want = 64 - 16 + 13
		}
		if rep.UDOPanics != 1 || len(sink.tuples()) != want {
			t.Errorf("rowPlane=%v: %d panics, %d rows delivered; want 1 and %d", rowPlane, rep.UDOPanics, len(sink.tuples()), want)
		}
	}
}

// TestFilterStretchIntoRowsStaysOnRows: when every column batch a
// source could produce would pass only filters and then fall back to
// rows, the source stays on the row plane (columnsPay): no batch is
// filled only to be materialized again.
func TestFilterStretchIntoRowsStaysOnRows(t *testing.T) {
	p := core.NewPQP("filter-then-rows", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 100_000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "f", Kind: core.OpFilter, Parallelism: 2, Partition: core.PartitionRebalance,
		Filter:   &core.FilterSpec{Field: 1, Fn: core.FilterGreaterEq, Literal: tuple.Double(0.1), Selectivity: 0.9},
		OutWidth: 2})
	p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 2, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyTime, LengthMs: 100},
			Fn:     core.AggSum, Field: 1, KeyField: 0,
		}, OutWidth: 2})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
	p.Connect("src", "f")
	p.Connect("f", "agg")
	p.Connect("agg", "sink")
	got, rep := runColumnar(t, p, 5, 500, Options{})
	if rep.ColumnarBatches != 0 {
		t.Fatalf("routed %d column batches; a filter stretch ending in rows should stay on rows", rep.ColumnarBatches)
	}
	if len(got) == 0 {
		t.Fatal("no sink output")
	}
}

// joinFanOutPlan: left, right → time-windowed join → {sink, tumbling
// time window → sink}. The sink route makes the join a columnar tail
// join; the window downstream drops any match that reaches it after a
// watermark covering the match's event time.
func joinFanOutPlan() *core.PQP {
	p := core.NewPQP("join-fan-out", "2-way-join")
	for _, id := range []string{"left", "right"} {
		p.Add(&core.Operator{ID: id, Kind: core.OpSource, Parallelism: 1,
			Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	}
	p.Add(&core.Operator{ID: "join", Kind: core.OpJoin, Parallelism: 2, Partition: core.PartitionHash,
		Join: &core.JoinSpec{
			Window:    core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyTime, LengthMs: 40, SlideRatio: 0.5},
			LeftField: 0, RightField: 0,
		}, OutWidth: 4})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
	p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 1, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyTime, LengthMs: 10},
			Fn:     core.AggCount, Field: 1, KeyField: 0,
		}, OutWidth: 2})
	p.Add(&core.Operator{ID: "counts", Kind: core.OpSink, Parallelism: 1})
	p.Connect("left", "join")
	p.Connect("right", "join")
	p.Connect("join", "sink")
	p.Connect("join", "agg")
	p.Connect("agg", "counts")
	return p
}

// TestColumnarJoinShipsMatchesBeforeWatermark: a columnar tail join
// ships its partial out-batch before it forwards a watermark, so a time
// window behind it sees every match before the marker that would make
// it late. Both planes deliver the same multiset and drop nothing.
func TestColumnarJoinShipsMatchesBeforeWatermark(t *testing.T) {
	var left, right []*tuple.Tuple
	for i := 0; i < 3000; i++ {
		left = append(left, kv(int64(i), int64(i%40), float64(i)))
		right = append(right, kv(int64(i), int64((i+3)%40), float64(-i)))
	}
	srcs := map[string][]*tuple.Tuple{"left": left, "right": right}
	rowOut, rowRep := runPlanOpts(t, joinFanOutPlan(), srcs, nil, Options{RowPlane: true})
	colOut, colRep := runPlanOpts(t, joinFanOutPlan(), srcs, nil, Options{})
	if colRep.ColumnarBatches == 0 {
		t.Fatal("the join routed no column batches; the test needs a columnar tail join")
	}
	if rowRep.LateDrops != 0 || colRep.LateDrops != 0 {
		t.Fatalf("late drops: row plane %d, columnar %d; want 0 on both", rowRep.LateDrops, colRep.LateDrops)
	}
	want, got := sortedRendering(rowOut), sortedRendering(colOut)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("columnar delivered %d, row plane %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sink multiset diverges at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestColumnarJoinFlushesWhenIdle: a columnar tail join whose input goes
// idle ships its partial out-batch at once instead of holding it until
// the batch fills or the stream ends. The right source stalls after its
// last tuple until the sink has seen every match (or 10 s pass).
func TestColumnarJoinFlushesWhenIdle(t *testing.T) {
	p := joinTestPlan(core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyCount, LengthTups: 100}, 1)
	const n = 10
	var left, right []*tuple.Tuple
	for i := 0; i < n; i++ {
		left = append(left, kv(int64(i), int64(i), 1))
		right = append(right, kv(int64(i), int64(i), 2))
	}
	var mu sync.Mutex
	seen := 0
	allSeen := make(chan struct{})
	seenAtStall := -1 // set if the sink still lacks matches after 10 s
	sources := map[string]SourceFactory{
		"left": func(int) SourceGenerator { return stream.NewFromTuples(left...) },
		"right": func(int) SourceGenerator {
			i := 0
			return stream.Func(func() (*tuple.Tuple, bool) {
				if i < n {
					i++
					return right[i-1], true
				}
				select {
				case <-allSeen:
				case <-time.After(10 * time.Second):
					mu.Lock()
					seenAtStall = seen
					mu.Unlock()
				}
				return nil, false
			})
		},
	}
	rt, err := New(p, Options{
		Sources:   sources,
		BatchSize: 1, // the sources ship each row at once
		SinkTap: func(string, *tuple.Tuple) {
			mu.Lock()
			defer mu.Unlock()
			if seen++; seen == n {
				close(allSeen)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColumnarBatches == 0 {
		t.Fatal("the join routed no column batches; the test needs a columnar tail join")
	}
	if seenAtStall >= 0 {
		t.Fatalf("the sink saw %d of %d matches in 10 s of idle join input", seenAtStall, n)
	}
	if seen != n {
		t.Fatalf("the sink saw %d matches, want %d", seen, n)
	}
}
