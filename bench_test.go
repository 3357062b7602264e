// Package pdspbench_test holds the substrate micro-benchmarks (engine,
// simulator, columnar kernels, cost models) and the ablation
// benchmarks. The paper's tables and figures are regenerated by
// `go run ./cmd/pdspbench exp1|exp2|exp3` and recorded in EXPERIMENTS.md;
// their shapes are pinned by the controller's tier-1 tests.
package pdspbench_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pdspbench/internal/apps"
	"pdspbench/internal/cluster"
	"pdspbench/internal/controller"
	"pdspbench/internal/core"
	"pdspbench/internal/engine"
	"pdspbench/internal/ml"
	"pdspbench/internal/ml/feature"
	"pdspbench/internal/ml/gnn"
	"pdspbench/internal/mlmanager"
	"pdspbench/internal/simengine"
	"pdspbench/internal/stream"
	"pdspbench/internal/tuple"
	"pdspbench/internal/workload"
)

// --- substrate micro-benchmarks ----------------------------------------------

var kvSchema = tuple.NewSchema(
	tuple.Field{Name: "k", Type: tuple.TypeInt},
	tuple.Field{Name: "v", Type: tuple.TypeDouble},
)

// BenchmarkEngineFilterThroughput measures the real engine's tuple
// throughput through a parallel filter pipeline.
func BenchmarkEngineFilterThroughput(b *testing.B) {
	plan := core.NewPQP("bench-filter", "linear")
	plan.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1_000_000}, OutWidth: 2})
	plan.Add(&core.Operator{ID: "f", Kind: core.OpFilter, Parallelism: 4, Partition: core.PartitionRebalance,
		Filter:   &core.FilterSpec{Field: 1, Fn: core.FilterGreater, Literal: tuple.Double(0.5), Selectivity: 0.5},
		OutWidth: 2})
	plan.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	plan.Connect("src", "f")
	plan.Connect("f", "sink")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := engine.New(plan, engine.Options{
			Sources: map[string]engine.SourceFactory{"src": func(int) engine.SourceGenerator {
				return stream.NewSynthetic(kvSchema, int64(i), 50_000, 1_000_000, "poisson")
			}},
			// The default columnar plane: batches flow src→filter and
			// the sink counts off columns.
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Throughput, "tuples/s")
	}
	b.SetBytes(50_000 * 16)
}

// BenchmarkEngineWindowedJoin measures the real engine's windowed join.
func BenchmarkEngineWindowedJoin(b *testing.B) {
	plan := core.NewPQP("bench-join", "2-way-join")
	for _, id := range []string{"left", "right"} {
		plan.Add(&core.Operator{ID: id, Kind: core.OpSource, Parallelism: 1,
			Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1_000_000}, OutWidth: 2})
	}
	plan.Add(&core.Operator{ID: "join", Kind: core.OpJoin, Parallelism: 4, Partition: core.PartitionHash,
		Join: &core.JoinSpec{
			Window:    core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyTime, LengthMs: 10, SlideRatio: 0.5},
			LeftField: 0, RightField: 0,
		}, OutWidth: 4})
	plan.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	plan.Connect("left", "join")
	plan.Connect("right", "join")
	plan.Connect("join", "sink")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := engine.New(plan, engine.Options{
			Sources: map[string]engine.SourceFactory{
				"left": func(int) engine.SourceGenerator {
					return stream.NewSynthetic(kvSchema, int64(i), 20_000, 1_000_000, "poisson")
				},
				"right": func(int) engine.SourceGenerator {
					return stream.NewSynthetic(kvSchema, int64(i)+7, 20_000, 1_000_000, "poisson")
				},
			},
			// The default columnar plane: join matches ship as column
			// batches.
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Throughput, "tuples/s")
	}
}

// BenchmarkEngineDisorderedWindow measures the event-time plane under
// heavy-tailed disorder: a zipfburst-shuffled source into tumbling
// event-time windows with zero allowed lateness, reporting throughput
// and the late-drop rate the watermark heuristic produces.
func BenchmarkEngineDisorderedWindow(b *testing.B) {
	const tuples = 50_000
	d := &core.DisorderSpec{Kind: core.DisorderZipfBurst, MaxSkewMs: 5}
	plan := core.NewPQP("bench-disorder", "linear")
	plan.Add(&core.Operator{ID: "src", Kind: core.OpSource, Parallelism: 1,
		Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1_000_000, Disorder: d}, OutWidth: 2})
	plan.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Parallelism: 4, Partition: core.PartitionHash,
		Agg: &core.AggregateSpec{
			Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyTime, LengthMs: 10},
			Fn:     core.AggCount, Field: 1, KeyField: 0,
		}, OutWidth: 2})
	plan.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	plan.Connect("src", "agg")
	plan.Connect("agg", "sink")

	b.ResetTimer()
	var throughput, dropRate float64
	for i := 0; i < b.N; i++ {
		rt, err := engine.New(plan, engine.Options{
			Sources: map[string]engine.SourceFactory{"src": func(int) engine.SourceGenerator {
				return stream.NewDisordered(
					stream.NewSynthetic(kvSchema, int64(i), tuples, 1_000_000, "poisson"), d, int64(i)+13)
			}},
			WatermarkInterval: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		throughput = rep.Throughput
		dropRate = float64(rep.LateDrops) / tuples
	}
	b.ReportMetric(throughput, "tuples/s")
	b.ReportMetric(dropRate, "late-drop-rate")
}

// BenchmarkEngineWindowedJoinUnderSkew measures the windowed join with
// bounded-skew disorder on both inputs and a matching lateness
// allowance — the retention cost of absorbing out-of-order arrivals
// without dropping any (the late-drop rate must stay zero).
func BenchmarkEngineWindowedJoinUnderSkew(b *testing.B) {
	d := &core.DisorderSpec{Kind: core.DisorderBounded, MaxSkewMs: 5}
	plan := core.NewPQP("bench-join-skew", "2-way-join")
	for _, id := range []string{"left", "right"} {
		plan.Add(&core.Operator{ID: id, Kind: core.OpSource, Parallelism: 1,
			Source: &core.SourceSpec{Schema: kvSchema, EventRate: 1_000_000, Disorder: d}, OutWidth: 2})
	}
	plan.Add(&core.Operator{ID: "join", Kind: core.OpJoin, Parallelism: 4, Partition: core.PartitionHash,
		Join: &core.JoinSpec{
			Window:    core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyTime, LengthMs: 10, SlideRatio: 0.5},
			LeftField: 0, RightField: 0,
		}, OutWidth: 4})
	plan.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1})
	plan.Connect("left", "join")
	plan.Connect("right", "join")
	plan.Connect("join", "sink")

	b.ResetTimer()
	var throughput float64
	var drops uint64
	for i := 0; i < b.N; i++ {
		rt, err := engine.New(plan, engine.Options{
			Sources: map[string]engine.SourceFactory{
				"left": func(int) engine.SourceGenerator {
					return stream.NewDisordered(
						stream.NewSynthetic(kvSchema, int64(i), 20_000, 1_000_000, "poisson"), d, int64(i)+3)
				},
				"right": func(int) engine.SourceGenerator {
					return stream.NewDisordered(
						stream.NewSynthetic(kvSchema, int64(i)+7, 20_000, 1_000_000, "poisson"), d, int64(i)+11)
				},
			},
			WatermarkInterval: 64,
			AllowedLateness:   5 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		throughput = rep.Throughput
		drops = rep.LateDrops
	}
	if drops != 0 {
		b.Fatalf("bounded disorder with matching lateness dropped %d tuples", drops)
	}
	b.ReportMetric(throughput, "tuples/s")
}

// BenchmarkSimulatorEventRate measures discrete-event simulation speed.
func BenchmarkSimulatorEventRate(b *testing.B) {
	c := controller.Fast()
	plan, err := c.SyntheticPlan(workload.StructThreeJoin, 32)
	if err != nil {
		b.Fatal(err)
	}
	cl := c.Homogeneous()
	pl, err := cluster.Place(plan, cl, cluster.PlaceRoundRobin)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var tuples float64
	for i := 0; i < b.N; i++ {
		cfg := c.Cfg
		cfg.Seed = int64(i + 1)
		res, err := simengine.Simulate(plan, pl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		tuples += res.TuplesIn
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(tuples/s, "tuples/s")
	}
}

// sentenceReplay replays a prebuilt sentence arena as WordCount's
// source, one pooled tuple per sentence.
type sentenceReplay struct {
	sentences []string
	i         int
}

func (g *sentenceReplay) Next() (*tuple.Tuple, bool) {
	if g.i >= len(g.sentences) {
		return nil, false
	}
	t := tuple.Get(1)
	t.Values[0] = tuple.String(g.sentences[g.i])
	t.EventTime = int64(g.i)
	g.i++
	return t, true
}

// BenchmarkWordCountParallelism runs WordCount on the real engine's
// default (columnar) plane at parallelism 1, 2, 4 and 8 over a sentence
// arena built before the timer starts, and reports input sentences per
// second. Hash partitioning into the count windows ships each target
// its rows of every batch, so message sizes shrink as parallelism
// grows; on a host with fewer cores than the parallelism the points
// above the core count are oversubscribed.
func BenchmarkWordCountParallelism(b *testing.B) {
	const sentences = 100_000
	gen := apps.WordCount.Sources(1, sentences)["src"](0)
	arena := make([]string, 0, sentences)
	for {
		t, ok := gen.Next()
		if !ok {
			break
		}
		arena = append(arena, t.Values[0].S)
		t.Release()
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			plan := apps.WordCount.Build(1_000_000)
			plan.SetUniformParallelism(par)
			var in uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt, err := engine.New(plan, engine.Options{
					Sources: map[string]engine.SourceFactory{"src": func(int) engine.SourceGenerator {
						return &sentenceReplay{sentences: arena}
					}},
					UDOs: apps.WordCount.UDOs(),
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := rt.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				in += rep.TuplesIn
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(in)/s, "tuples/s")
			}
		})
	}
}

// BenchmarkColumnarFilterThroughput isolates the vectorized filter
// kernel: one resident column batch, repeatedly re-selected and run
// through the compiled kernel — the slab-scan rate with the source
// generation floor removed.
func BenchmarkColumnarFilterThroughput(b *testing.B) {
	const rows = 4096
	cb := tuple.GetColumnBatch([]tuple.Type{tuple.TypeInt, tuple.TypeDouble}, rows)
	t := tuple.Get(2)
	for i := 0; i < rows; i++ {
		t.Values[0] = tuple.Int(int64(i))
		t.Values[1] = tuple.Double(float64(i%1000) / 1000)
		cb.AppendRow(t)
	}
	t.Release()
	cb.Seal(rows)
	full := append([]int32(nil), cb.Sel()...)
	kern := core.CompileFilter(&core.FilterSpec{Field: 1, Fn: core.FilterGreater, Literal: tuple.Double(0.5)}, tuple.TypeDouble)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.SetSel(kern(cb, 1, full))
	}
	cb.Release()
	b.SetBytes(rows * 8)
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)*rows/s, "tuples/s")
	}
}

// BenchmarkColumnBatchConvert measures the row↔column boundary: filling
// a batch from pooled tuples and materializing every row back out — the
// cost a batch pays to enter and leave the columnar plane.
func BenchmarkColumnBatchConvert(b *testing.B) {
	const rows = 4096
	src := make([]*tuple.Tuple, rows)
	for i := range src {
		t := tuple.Get(2)
		t.Values[0] = tuple.Int(int64(i))
		t.Values[1] = tuple.Double(float64(i))
		src[i] = t
	}
	kinds := []tuple.Type{tuple.TypeInt, tuple.TypeDouble}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb := tuple.GetColumnBatch(kinds, rows)
		for _, t := range src {
			cb.AppendRow(t)
		}
		cb.Seal(rows)
		for _, r := range cb.Sel() {
			cb.MaterializeRow(int(r)).Release()
		}
		cb.Release()
	}
	b.SetBytes(rows * 16)
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)*rows/s, "tuples/s")
	}
}

// BenchmarkGNNInference measures cost-model prediction latency.
func BenchmarkGNNInference(b *testing.B) {
	c := controller.Fast()
	corpus, err := c.BuildCorpus(context.Background(), "rule-based", controller.SeenStructures, 40, c.Homogeneous(), 5)
	if err != nil {
		b.Fatal(err)
	}
	train, val, _ := corpus.Dataset.Split(0.8, 0.2, 1)
	model := gnn.New()
	if _, err := model.Train(train, val, ml.TrainOptions{MaxEpochs: 20, Patience: 5}); err != nil {
		b.Fatal(err)
	}
	ex := corpus.Dataset.Examples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(ex)
	}
}

// BenchmarkFeatureEncoding measures PQP featurization throughput.
func BenchmarkFeatureEncoding(b *testing.B) {
	c := controller.Fast()
	plan, err := c.SyntheticPlan(workload.StructSixJoin, 16)
	if err != nil {
		b.Fatal(err)
	}
	cl := c.Homogeneous()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feature.EncodeFlat(plan, cl)
		feature.EncodeGraph(plan, cl)
	}
}

// BenchmarkMLManagerCompare measures a full fair-comparison round on a
// pre-built corpus.
func BenchmarkMLManagerCompare(b *testing.B) {
	c := controller.Fast()
	corpus, err := c.BuildCorpus(context.Background(), "random", workload.Structures, 60, c.Homogeneous(), 9)
	if err != nil {
		b.Fatal(err)
	}
	mgr := mlmanager.New(ml.TrainOptions{MaxEpochs: 15, Patience: 4, LearningRate: 3e-3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Compare(mlmanager.DefaultModels(), corpus.Dataset); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks -------------------------------------------------------

// BenchmarkAblationPartitioning regenerates the partitioning-strategy ×
// key-distribution ablation (forward / rebalance / hashing under
// poisson / zipf).
func BenchmarkAblationPartitioning(b *testing.B) {
	c := controller.Fast()
	var hashUniform, hashSkew float64
	for i := 0; i < b.N; i++ {
		fig, err := c.ExpPartitioning(context.Background(), 8)
		if err != nil {
			b.Fatal(err)
		}
		hashUniform, _ = fig.SeriesByLabel("poisson").Get("hashing")
		hashSkew, _ = fig.SeriesByLabel("zipf").Get("hashing")
	}
	b.ReportMetric(hashUniform, "hash-uniform-ms")
	b.ReportMetric(hashSkew, "hash-zipf-ms")
}

// BenchmarkAblationAutoscaler compares static rule-based sizing, the
// DS2-style reactive autoscaler, and fixed category degrees.
func BenchmarkAblationAutoscaler(b *testing.B) {
	c := controller.Fast()
	var rule, auto float64
	for i := 0; i < b.N; i++ {
		fig, err := c.ExpAutoscaler(context.Background(), workload.StructTwoWayJoin)
		if err != nil {
			b.Fatal(err)
		}
		lat := fig.SeriesByLabel("median latency (ms)")
		rule, _ = lat.Get("rule-based")
		auto, _ = lat.Get("autoscaled")
	}
	b.ReportMetric(rule, "rule-based-ms")
	b.ReportMetric(auto, "autoscaled-ms")
}

// BenchmarkAblationSimulatorMechanisms isolates the cost mechanisms that
// produce the parallelism paradox: default vs no per-message cost vs no
// window-synchronization cost, on a 5-way join at degree 256.
func BenchmarkAblationSimulatorMechanisms(b *testing.B) {
	c := controller.Fast()
	plan, err := c.SyntheticPlan(workload.StructFiveJoin, 256)
	if err != nil {
		b.Fatal(err)
	}
	cl := c.Homogeneous()
	pl, err := cluster.Place(plan, cl, cluster.PlaceRoundRobin)
	if err != nil {
		b.Fatal(err)
	}
	variants := map[string]func(*simengine.Config){
		"default": func(*simengine.Config) {},
		"no-msg-cost": func(cfg *simengine.Config) {
			cfg.MsgCost = 1e-12
		},
		"no-sync-cost": func(cfg *simengine.Config) {
			cfg.SyncCost = 1e-12
		},
	}
	results := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for name, mutate := range variants {
			cfg := c.Cfg
			mutate(&cfg)
			res, err := simengine.Simulate(plan, pl, cfg)
			if err != nil {
				b.Fatal(err)
			}
			results[name] = res.LatencyP50 * 1000
		}
	}
	b.ReportMetric(results["default"], "default-ms")
	b.ReportMetric(results["no-msg-cost"], "no-msg-cost-ms")
	b.ReportMetric(results["no-sync-cost"], "no-sync-cost-ms")
}
