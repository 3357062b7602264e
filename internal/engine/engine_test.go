package engine

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"pdspbench/internal/core"
	"pdspbench/internal/stream"
	"pdspbench/internal/testutil"
	"pdspbench/internal/tuple"
)

// collectSink gathers sink deliveries thread-safely.
type collectSink struct {
	mu  sync.Mutex
	out []*tuple.Tuple
}

func (c *collectSink) tap(op string, t *tuple.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = append(c.out, t.Clone())
}

func (c *collectSink) tuples() []*tuple.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*tuple.Tuple, len(c.out))
	copy(out, c.out)
	return out
}

// kv builds a (int key, double value) tuple at the given event time (ms).
// Zero is a legitimate event time: "unset" is tuple.NoEventTime, so no
// offset trickery is needed to keep the source from re-stamping.
func kv(etMs int64, key int64, val float64) *tuple.Tuple {
	return &tuple.Tuple{
		Values:    []tuple.Value{tuple.Int(key), tuple.Double(val)},
		EventTime: etMs * 1e6,
	}
}

var kvSchema = tuple.NewSchema(
	tuple.Field{Name: "k", Type: tuple.TypeInt},
	tuple.Field{Name: "v", Type: tuple.TypeDouble},
)

// runPlan executes a plan over the given per-source tuples and returns
// sink deliveries.
func runPlan(t *testing.T, plan *core.PQP, sources map[string][]*tuple.Tuple, udos map[string]UDOFactory) []*tuple.Tuple {
	t.Helper()
	sink := &collectSink{}
	srcFactories := make(map[string]SourceFactory, len(sources))
	for id, ts := range sources {
		ts := ts
		srcFactories[id] = func(idx int) SourceGenerator {
			if idx == 0 {
				return stream.NewFromTuples(ts...)
			}
			return stream.NewFromTuples() // extra instances emit nothing
		}
	}
	rt, err := New(plan, Options{Sources: srcFactories, UDOs: udos, SinkTap: sink.tap})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return sink.tuples()
}

// simplePlan builds src → filter(v > lit) → sink with the given
// parallelism for the filter.
func filterPlan(par int, strategy core.PartitionStrategy) *core.PQP {
	p := core.NewPQP("filter-test", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "f", Kind: core.OpFilter, Parallelism: par, Partition: strategy,
		Filter:   &core.FilterSpec{Field: 1, Fn: core.FilterGreater, Literal: tuple.Double(0.5), Selectivity: 0.5},
		OutWidth: 2})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
	p.Connect("src", "f")
	p.Connect("f", "sink")
	return p
}

func TestFilterDropsNonMatching(t *testing.T) {
	in := []*tuple.Tuple{kv(1, 1, 0.2), kv(2, 2, 0.7), kv(3, 3, 0.5), kv(4, 4, 0.9)}
	out := runPlan(t, filterPlan(1, core.PartitionRebalance), map[string][]*tuple.Tuple{"src": in}, nil)
	if len(out) != 2 {
		t.Fatalf("delivered %d tuples, want 2 (0.7 and 0.9)", len(out))
	}
	var vals []float64
	for _, o := range out {
		vals = append(vals, o.At(1).D)
	}
	sort.Float64s(vals)
	if vals[0] != 0.7 || vals[1] != 0.9 {
		t.Errorf("filter passed %v, want [0.7 0.9]", vals)
	}
}

func TestParallelFilterPreservesAllMatches(t *testing.T) {
	var in []*tuple.Tuple
	want := 0
	for i := 0; i < 500; i++ {
		v := float64(i%10) / 10
		in = append(in, kv(int64(i), int64(i), v))
		if v > 0.5 {
			want++
		}
	}
	for _, strat := range []core.PartitionStrategy{core.PartitionRebalance, core.PartitionHash, core.PartitionForward} {
		out := runPlan(t, filterPlan(4, strat), map[string][]*tuple.Tuple{"src": in}, nil)
		if len(out) != want {
			t.Errorf("partition=%v: delivered %d, want %d", strat, len(out), want)
		}
	}
}

func TestHashPartitioningGroupsKeys(t *testing.T) {
	// With hash partitioning into a keyed count window, each key's window
	// fires exactly when that key has seen LengthTups tuples, regardless
	// of operator parallelism — only correct if all tuples of a key reach
	// the same instance.
	p := core.NewPQP("hash-test", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 4, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyCount, LengthTups: 5},
			Fn:     core.AggSum, Field: 1, KeyField: 0,
		}, OutWidth: 2})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
	p.Connect("src", "agg")
	p.Connect("agg", "sink")

	// 3 keys × 10 tuples each, value 1.0 → each key fires twice with sum 5.
	var in []*tuple.Tuple
	for i := 0; i < 30; i++ {
		in = append(in, kv(int64(i), int64(i%3), 1.0))
	}
	out := runPlan(t, p, map[string][]*tuple.Tuple{"src": in}, nil)
	if len(out) != 6 {
		t.Fatalf("delivered %d windows, want 6 (3 keys × 2 firings)", len(out))
	}
	for _, o := range out {
		if o.At(1).D != 5 {
			t.Errorf("window sum = %v, want 5 (key %v)", o.At(1).D, o.At(0))
		}
	}
}

func TestTumblingCountWindowAggregates(t *testing.T) {
	cases := []struct {
		fn   core.AggFn
		want []float64 // per firing over values 1..4 then 5..8
	}{
		{core.AggSum, []float64{10, 26}},
		{core.AggMin, []float64{1, 5}},
		{core.AggMax, []float64{4, 8}},
		{core.AggAvg, []float64{2.5, 6.5}},
		{core.AggMean, []float64{2.5, 6.5}},
		{core.AggCount, []float64{4, 4}},
	}
	for _, c := range cases {
		p := core.NewPQP("agg-test", "linear")
		p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
			Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
		p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 1, Partition: core.PartitionHash,
			Agg: &core.AggregateSpec{
				Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyCount, LengthTups: 4},
				Fn:     c.fn, Field: 1, KeyField: -1,
			}, OutWidth: 1})
		p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
		p.Connect("src", "agg")
		p.Connect("agg", "sink")

		var in []*tuple.Tuple
		for i := 1; i <= 8; i++ {
			in = append(in, kv(int64(i), 0, float64(i)))
		}
		out := runPlan(t, p, map[string][]*tuple.Tuple{"src": in}, nil)
		if len(out) != 2 {
			t.Fatalf("%v: %d firings, want 2", c.fn, len(out))
		}
		var got []float64
		for _, o := range out {
			got = append(got, o.At(0).D)
		}
		sort.Float64s(got)
		want := append([]float64(nil), c.want...)
		sort.Float64s(want)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v: firings = %v, want %v", c.fn, got, want)
				break
			}
		}
	}
}

func TestSlidingCountWindow(t *testing.T) {
	// Window length 4, slide 2 (ratio 0.5): firings over [1..4], [3..6], [5..8].
	p := core.NewPQP("slide-test", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 1, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyCount, LengthTups: 4, SlideRatio: 0.5},
			Fn:     core.AggSum, Field: 1, KeyField: -1,
		}, OutWidth: 1})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	p.Connect("src", "agg")
	p.Connect("agg", "sink")

	var in []*tuple.Tuple
	for i := 1; i <= 8; i++ {
		in = append(in, kv(int64(i), 0, float64(i)))
	}
	out := runPlan(t, p, map[string][]*tuple.Tuple{"src": in}, nil)
	var got []float64
	for _, o := range out {
		got = append(got, o.At(0).D)
	}
	sort.Float64s(got)
	want := []float64{10, 18, 26} // 1+2+3+4, 3+4+5+6, 5+6+7+8
	if len(got) != len(want) {
		t.Fatalf("firings = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firings = %v, want %v", got, want)
		}
	}
}

func TestTumblingTimeWindow(t *testing.T) {
	// 100ms tumbling windows; tuples at 10,20,110,120,250ms with values
	// 1,2,3,4,5 → windows [0,100)=3, [100,200)=7; the 250ms tuple's
	// window [200,300) is flushed at EOS = 5.
	p := core.NewPQP("time-test", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 1, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyTime, LengthMs: 100},
			Fn:     core.AggSum, Field: 1, KeyField: -1,
		}, OutWidth: 1})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	p.Connect("src", "agg")
	p.Connect("agg", "sink")

	in := []*tuple.Tuple{kv(10, 0, 1), kv(20, 0, 2), kv(110, 0, 3), kv(120, 0, 4), kv(250, 0, 5)}
	out := runPlan(t, p, map[string][]*tuple.Tuple{"src": in}, nil)
	var got []float64
	for _, o := range out {
		got = append(got, o.At(0).D)
	}
	sort.Float64s(got)
	want := []float64{3, 5, 7}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("windows = %v, want %v", got, want)
	}
}

func TestSlidingTimeWindowAssignsToOverlappingPanes(t *testing.T) {
	// Length 100ms, slide 50ms. A tuple at t=60 belongs to panes starting
	// at 0 and 50. Values: t=60→1, t=120→2, t=210→3 (flush fires rest).
	p := core.NewPQP("slidetime-test", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 1, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyTime, LengthMs: 100, SlideRatio: 0.5},
			Fn:     core.AggSum, Field: 1, KeyField: -1,
		}, OutWidth: 1})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	p.Connect("src", "agg")
	p.Connect("agg", "sink")

	in := []*tuple.Tuple{kv(60, 0, 1), kv(120, 0, 2), kv(210, 0, 3)}
	out := runPlan(t, p, map[string][]*tuple.Tuple{"src": in}, nil)
	// Panes: [0,100)={1}, [50,150)={1,2}, [100,200)={2}, [150,250)={3}, [200,300)={3}.
	var got []float64
	for _, o := range out {
		got = append(got, o.At(0).D)
	}
	sort.Float64s(got)
	want := []float64{1, 2, 3, 3, 3}
	if len(got) != len(want) {
		t.Fatalf("pane sums = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pane sums = %v, want %v", got, want)
		}
	}
}

func TestLateTupleDropped(t *testing.T) {
	p := core.NewPQP("late-test", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 1, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyTime, LengthMs: 100},
			Fn:     core.AggSum, Field: 1, KeyField: -1,
		}, OutWidth: 1})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	p.Connect("src", "agg")
	p.Connect("agg", "sink")

	// t=250 advances the watermark past [0,100); t=10 is then late.
	in := []*tuple.Tuple{kv(10, 0, 1), kv(250, 0, 2), kv(20, 0, 99)}
	sink := &collectSink{}
	rt, err := New(p, Options{
		Sources: map[string]SourceFactory{"src": func(int) SourceGenerator { return stream.NewFromTuples(in...) }},
		SinkTap: sink.tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LateDrops != 1 {
		t.Errorf("LateDrops = %d, want 1", rep.LateDrops)
	}
	var sum float64
	for _, o := range sink.tuples() {
		sum += o.At(0).D
	}
	if sum != 3 { // 1 + 2; the 99 must not appear anywhere
		t.Errorf("total of window sums = %v, want 3", sum)
	}
}

func joinTestPlan(window core.WindowSpec, par int) *core.PQP {
	p := core.NewPQP("join-test", "2-way-join")
	for _, id := range []string{"left", "right"} {
		p.Add(&core.Operator{ID: id, Kind: core.OpSource, Parallelism: 1,
			Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	}
	p.Add(&core.Operator{ID: "join", Kind: core.OpJoin, Parallelism: par, Partition: core.PartitionHash,
		Join: &core.JoinSpec{Window: window, LeftField: 0, RightField: 0}, OutWidth: 4})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	p.Connect("left", "join")
	p.Connect("right", "join")
	p.Connect("join", "sink")
	return p
}

func TestWindowedJoinMatchesKeysWithinWindow(t *testing.T) {
	w := core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyTime, LengthMs: 100, SlideRatio: 0.5}
	left := []*tuple.Tuple{kv(10, 1, 1.0), kv(20, 2, 2.0), kv(500, 3, 3.0)}
	right := []*tuple.Tuple{kv(30, 1, 10.0), kv(40, 9, 20.0), kv(490, 3, 30.0)}
	out := runPlan(t, joinTestPlan(w, 1), map[string][]*tuple.Tuple{"left": left, "right": right}, nil)
	// Matches: key 1 (|10-30| ≤ 100) and key 3 (|500-490| ≤ 100); key 2/9 unmatched.
	if len(out) != 2 {
		t.Fatalf("join emitted %d, want 2: %v", len(out), out)
	}
	for _, o := range out {
		if o.Width() != 4 {
			t.Errorf("joined width = %d, want 4", o.Width())
		}
		if !o.At(0).Equal(o.At(2)) {
			t.Errorf("joined keys differ: %v vs %v", o.At(0), o.At(2))
		}
	}
}

func TestWindowedJoinRespectsTimeBound(t *testing.T) {
	w := core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyTime, LengthMs: 50, SlideRatio: 0.5}
	left := []*tuple.Tuple{kv(10, 1, 1.0)}
	right := []*tuple.Tuple{kv(200, 1, 10.0)} // same key, 190ms apart > 50ms window
	out := runPlan(t, joinTestPlan(w, 1), map[string][]*tuple.Tuple{"left": left, "right": right}, nil)
	if len(out) != 0 {
		t.Fatalf("join emitted %d for out-of-window pair, want 0", len(out))
	}
}

func TestParallelJoinEqualsSequentialJoin(t *testing.T) {
	w := core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyTime, LengthMs: 1000, SlideRatio: 0.5}
	var left, right []*tuple.Tuple
	for i := 0; i < 60; i++ {
		left = append(left, kv(int64(i), int64(i%5), float64(i)))
		right = append(right, kv(int64(i+2), int64(i%5), float64(100+i)))
	}
	seq := runPlan(t, joinTestPlan(w, 1), map[string][]*tuple.Tuple{"left": left, "right": right}, nil)
	par := runPlan(t, joinTestPlan(w, 4), map[string][]*tuple.Tuple{"left": left, "right": right}, nil)
	if len(seq) == 0 {
		t.Fatal("sequential join produced nothing; test is vacuous")
	}
	if len(par) != len(seq) {
		t.Errorf("parallel join emitted %d, sequential %d — hash partitioning broke join completeness", len(par), len(seq))
	}
}

func TestCountPolicyJoinBoundsBuffer(t *testing.T) {
	w := core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyCount, LengthTups: 2}
	// Left fills with keys 1,2,3 (buffer cap 2 evicts key 1), then right
	// key 1 arrives: no match; right key 3 arrives: match.
	left := []*tuple.Tuple{kv(1, 1, 1), kv(2, 2, 2), kv(3, 3, 3)}
	right := []*tuple.Tuple{kv(10, 1, 10), kv(11, 3, 30)}
	// Single-instance join and serialized sources: left first by event time
	// is not guaranteed across goroutines, so run repeatedly to look for
	// violations of the buffer bound (matches with evicted entries).
	for i := 0; i < 5; i++ {
		out := runPlan(t, joinTestPlan(w, 1), map[string][]*tuple.Tuple{"left": left, "right": right}, nil)
		for _, o := range out {
			if o.At(0).I == 1 && o.At(2).I == 1 {
				// Key 1 may legitimately match if right#1 arrived before
				// the left buffer evicted key 1 — interleaving dependent —
				// but key 3 must always be able to match.
				continue
			}
		}
		found3 := false
		for _, o := range out {
			if o.At(0).I == 3 {
				found3 = true
			}
		}
		if !found3 {
			t.Fatalf("run %d: key-3 match missing: %v", i, out)
		}
	}
}

// doubler is a test UDO that emits every tuple twice and counts flushes.
type doubler struct {
	flushed *int32
	mu      *sync.Mutex
}

func (d *doubler) Process(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	emit(t)
	emit(t.Clone())
}

func (d *doubler) Flush(emit func(*tuple.Tuple)) {
	d.mu.Lock()
	*d.flushed++
	d.mu.Unlock()
}

func TestUDOProcessAndFlush(t *testing.T) {
	p := core.NewPQP("udo-test", "custom")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "u", Kind: core.OpUDO, Parallelism: 3, Partition: core.PartitionRebalance,
		UDO: &core.UDOSpec{Name: "doubler", CostFactor: 1, Selectivity: 2}, OutWidth: 2})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	p.Connect("src", "u")
	p.Connect("u", "sink")

	var flushed int32
	var mu sync.Mutex
	udos := map[string]UDOFactory{
		"doubler": func(idx int) UDO { return &doubler{flushed: &flushed, mu: &mu} },
	}
	in := []*tuple.Tuple{kv(1, 1, 1), kv(2, 2, 2), kv(3, 3, 3)}
	out := runPlan(t, p, map[string][]*tuple.Tuple{"src": in}, udos)
	if len(out) != 6 {
		t.Errorf("UDO emitted %d, want 6 (each tuple doubled)", len(out))
	}
	mu.Lock()
	defer mu.Unlock()
	if flushed != 3 {
		t.Errorf("Flush called %d times, want 3 (one per instance)", flushed)
	}
}

func TestNewRejectsMissingSourceAndUDO(t *testing.T) {
	p := filterPlan(1, core.PartitionRebalance)
	if _, err := New(p, Options{}); err == nil {
		t.Error("New accepted plan without source generators")
	}
	u := core.NewPQP("udo", "custom")
	u.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1}, OutWidth: 2})
	u.Add(&core.Operator{ID: "x", Kind: core.OpUDO, Parallelism: 1,
		UDO: &core.UDOSpec{Name: "missing"}})
	u.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	u.Connect("src", "x")
	u.Connect("x", "sink")
	_, err := New(u, Options{Sources: map[string]SourceFactory{
		"src": func(int) SourceGenerator { return stream.NewFromTuples() },
	}})
	if err == nil {
		t.Error("New accepted unregistered UDO")
	}
}

func TestReportCountsAndLatency(t *testing.T) {
	in := []*tuple.Tuple{kv(1, 1, 0.9), kv(2, 2, 0.8), kv(3, 3, 0.1)}
	sink := &collectSink{}
	rt, err := New(filterPlan(2, core.PartitionRebalance), Options{
		Sources: map[string]SourceFactory{"src": func(idx int) SourceGenerator {
			if idx == 0 {
				return stream.NewFromTuples(in...)
			}
			return stream.NewFromTuples()
		}},
		SinkTap: sink.tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TuplesIn != 3 {
		t.Errorf("TuplesIn = %d, want 3", rep.TuplesIn)
	}
	if rep.TuplesOut != 2 {
		t.Errorf("TuplesOut = %d, want 2", rep.TuplesOut)
	}
	if rep.LatencyP50 <= 0 {
		t.Errorf("LatencyP50 = %v, want > 0 (ingest-to-sink wall time)", rep.LatencyP50)
	}
	if rep.Throughput <= 0 {
		t.Errorf("Throughput = %v, want > 0", rep.Throughput)
	}
}

func TestContextCancellationStopsRun(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// An unbounded source with a cancelled context must terminate.
	p := filterPlan(2, core.PartitionRebalance)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	rt, err := New(p, Options{
		Sources: map[string]SourceFactory{"src": func(int) SourceGenerator {
			return stream.Func(func() (*tuple.Tuple, bool) {
				n++
				if n == 100 {
					cancel()
				}
				return kv(int64(n), int64(n), 0.9), true
			})
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(ctx); err != nil {
		t.Fatalf("Run after cancel: %v", err)
	}
}

func TestMultiStageTopology(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// src → filter → agg(count tumbling keyed) → sink exercises chained
	// stateful routing end to end with parallelism on every stage.
	p := core.NewPQP("e2e", "linear")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 2,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "f", Kind: core.OpFilter, Parallelism: 3, Partition: core.PartitionRebalance,
		Filter: &core.FilterSpec{Field: 1, Fn: core.FilterGreaterEq, Literal: tuple.Double(0), Selectivity: 1}, OutWidth: 2})
	p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 2, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyCount, LengthTups: 10},
			Fn:     core.AggCount, Field: 1, KeyField: 0,
		}, OutWidth: 2})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 2, Partition: core.PartitionRebalance})
	p.Connect("src", "f")
	p.Connect("f", "agg")
	p.Connect("agg", "sink")

	var a, b []*tuple.Tuple
	for i := 0; i < 100; i++ {
		a = append(a, kv(int64(i), int64(i%4), 1))
		b = append(b, kv(int64(i), int64(i%4), 1))
	}
	sink := &collectSink{}
	rt, err := New(p, Options{
		Sources: map[string]SourceFactory{"src": func(idx int) SourceGenerator {
			if idx == 0 {
				return stream.NewFromTuples(a...)
			}
			return stream.NewFromTuples(b...)
		}},
		SinkTap: sink.tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 200 tuples, 4 keys × 50 each, windows of 10 → 20 firings, each
	// counting exactly 10.
	out := sink.tuples()
	if len(out) != 20 {
		t.Fatalf("firings = %d, want 20", len(out))
	}
	for _, o := range out {
		if o.At(1).D != 10 {
			t.Errorf("count = %v, want 10", o.At(1).D)
		}
	}
}

func TestThrottlePacesSource(t *testing.T) {
	// 500 tuples at 2000/s should take ≈250ms wall-clock when throttled,
	// and far less unthrottled.
	build := func(throttle bool) time.Duration {
		p := filterPlan(1, core.PartitionRebalance)
		var in []*tuple.Tuple
		for i := 0; i < 500; i++ {
			in = append(in, kv(int64(i+1), int64(i), 0.9))
		}
		p.Op("src").Source.EventRate = 2000
		rt, err := New(p, Options{
			Sources: map[string]SourceFactory{"src": func(int) SourceGenerator {
				return stream.NewFromTuples(in...)
			}},
			Throttle: throttle,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	throttled := build(true)
	unthrottled := build(false)
	if throttled < 150*time.Millisecond {
		t.Errorf("throttled run finished in %v; pacing not applied", throttled)
	}
	if unthrottled > throttled/2 {
		t.Errorf("unthrottled run (%v) not much faster than throttled (%v)", unthrottled, throttled)
	}
}

func TestMultipleSinksEachReceive(t *testing.T) {
	// A plan fanning out to two sinks delivers every passing tuple to both.
	p := core.NewPQP("fanout", "custom")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "f", Kind: core.OpFilter, Parallelism: 2, Partition: core.PartitionRebalance,
		Filter:   &core.FilterSpec{Field: 1, Fn: core.FilterGreaterEq, Literal: tuple.Double(0), Selectivity: 1},
		OutWidth: 2})
	p.Add(&core.Operator{ID: "sinkA", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
	p.Add(&core.Operator{ID: "sinkB", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
	p.Connect("src", "f")
	p.Connect("f", "sinkA")
	p.Connect("f", "sinkB")

	counts := map[string]int{}
	var mu sync.Mutex
	var in []*tuple.Tuple
	for i := 0; i < 50; i++ {
		in = append(in, kv(int64(i+1), int64(i), 0.5))
	}
	rt, err := New(p, Options{
		Sources: map[string]SourceFactory{"src": func(int) SourceGenerator { return stream.NewFromTuples(in...) }},
		SinkTap: func(op string, tp *tuple.Tuple) {
			mu.Lock()
			counts[op]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts["sinkA"] != 50 || counts["sinkB"] != 50 {
		t.Errorf("sink deliveries = %v, want 50 each", counts)
	}
	if rep.TuplesOut != 100 {
		t.Errorf("TuplesOut = %d, want 100 across both sinks", rep.TuplesOut)
	}
}

func TestPerOperatorCounters(t *testing.T) {
	in := []*tuple.Tuple{kv(1, 1, 0.9), kv(2, 2, 0.1), kv(3, 3, 0.8)}
	p := filterPlan(2, core.PartitionRebalance)
	rt, err := New(p, Options{
		Sources: map[string]SourceFactory{"src": func(idx int) SourceGenerator {
			if idx == 0 {
				return stream.NewFromTuples(in...)
			}
			return stream.NewFromTuples()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.PerOperator["src"].Out; got != 3 {
		t.Errorf("src out = %d, want 3", got)
	}
	if got := rep.PerOperator["f"]; got.In != 3 || got.Out != 2 {
		t.Errorf("filter counters = %+v, want in=3 out=2 (0.1 dropped)", got)
	}
	if got := rep.PerOperator["sink"].In; got != 2 {
		t.Errorf("sink in = %d, want 2", got)
	}
}

// faultyUDO panics on every third tuple — failure injection for the
// engine's isolation guarantee.
type faultyUDO struct{ n int }

func (f *faultyUDO) Process(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	f.n++
	if f.n%3 == 0 {
		panic("injected UDO failure")
	}
	emit(t)
}

func (f *faultyUDO) Flush(func(*tuple.Tuple)) {}

func TestUDOPanicIsolation(t *testing.T) {
	p := core.NewPQP("fault-test", "custom")
	p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1000}, OutWidth: 2})
	p.Add(&core.Operator{ID: "u", Kind: core.OpUDO, Parallelism: 1, Partition: core.PartitionRebalance,
		UDO: &core.UDOSpec{Name: "faulty", CostFactor: 1, Selectivity: 1}, OutWidth: 2})
	p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	p.Connect("src", "u")
	p.Connect("u", "sink")

	var in []*tuple.Tuple
	for i := 0; i < 99; i++ {
		in = append(in, kv(int64(i+1), int64(i), 1))
	}
	sink := &collectSink{}
	rt, err := New(p, Options{
		Sources: map[string]SourceFactory{"src": func(int) SourceGenerator { return stream.NewFromTuples(in...) }},
		UDOs:    map[string]UDOFactory{"faulty": func(int) UDO { return &faultyUDO{} }},
		SinkTap: sink.tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.UDOPanics != 33 {
		t.Errorf("UDOPanics = %d, want 33 (every third of 99)", rep.UDOPanics)
	}
	if got := len(sink.tuples()); got != 66 {
		t.Errorf("delivered %d, want the 66 surviving tuples", got)
	}
	if rep.TuplesIn != 99 {
		t.Errorf("TuplesIn = %d", rep.TuplesIn)
	}
}
