package controller

import (
	"context"
	"fmt"
	"time"

	"pdspbench/internal/backend"
	"pdspbench/internal/cluster"
	"pdspbench/internal/metrics"
	"pdspbench/internal/ml"
	"pdspbench/internal/ml/feature"
	"pdspbench/internal/mlmanager"
	"pdspbench/internal/workload"
)

// SeenStructures are the query structures the paper's Figure 6 trains on
// ("seen (linear, 2-way and 3-way join)"); every other synthetic
// structure is unseen.
var SeenStructures = []workload.Structure{
	workload.StructLinear, workload.StructTwoWayJoin, workload.StructThreeJoin,
}

// UnseenStructures are the remaining synthetic structures.
func UnseenStructures() []workload.Structure {
	seen := map[workload.Structure]bool{}
	for _, s := range SeenStructures {
		seen[s] = true
	}
	var out []workload.Structure
	for _, s := range workload.Structures {
		if !seen[s] {
			out = append(out, s)
		}
	}
	return out
}

// Corpus is a labeled training corpus with its collection cost — the
// workload-execution time that dominates the paper's training-overhead
// comparison (Figure 6b).
type Corpus struct {
	Strategy  string
	Dataset   *ml.Dataset
	BuildTime time.Duration
	// LabelCost is the collection cost that does not depend on the host:
	// the simulated instance-seconds of every labelling run, each run's
	// operator instances times its simulated length. A run that spreads
	// a query over more instances holds more of the cluster, and costs
	// the simulator more events, for the same simulated length.
	LabelCost float64
}

// LabelCostFor is the label cost of n queries at the corpus's mean cost
// per label.
func (c *Corpus) LabelCostFor(n int) float64 {
	if c.Dataset.Len() == 0 {
		return 0
	}
	if n > c.Dataset.Len() {
		n = c.Dataset.Len()
	}
	return c.LabelCost * float64(n) / float64(c.Dataset.Len())
}

// TimeFor estimates the collection time of the first n queries (labeling
// cost is per-query, so it scales linearly).
func (c *Corpus) TimeFor(n int) time.Duration {
	if c.Dataset.Len() == 0 {
		return 0
	}
	if n > c.Dataset.Len() {
		n = c.Dataset.Len()
	}
	return time.Duration(float64(c.BuildTime) * float64(n) / float64(c.Dataset.Len()))
}

// BuildCorpus generates n labeled examples: for each query it draws
// random data/query parameters (domain randomization), builds one of the
// given structures, lets the named parallelism-enumeration strategy
// assign degrees, executes the plan on the cluster simulator and labels
// the example with the measured median latency. Event rates are capped
// at 500k events/s to bound labeling cost.
func (c *Controller) BuildCorpus(ctx context.Context, strategyName string, structures []workload.Structure, n int, cl *cluster.Cluster, seed int64) (*Corpus, error) {
	if len(structures) == 0 {
		structures = workload.Structures
	}
	enum := workload.NewEnumerator(seed)
	enum.MaxEventRate = 500_000
	strategy, err := workload.StrategyByName(strategyName, enum.Rand())
	if err != nil {
		return nil, err
	}
	// Labeling is one simulated run per query to bound collection cost.
	sim := &backend.Sim{Cfg: c.Cfg}
	start := time.Now()
	ds := &ml.Dataset{}
	var cost float64
	for i := 0; i < n; i++ {
		st := structures[i%len(structures)]
		base, err := workload.Build(st, enum.RandomParams())
		if err != nil {
			return nil, fmt.Errorf("controller: corpus query %d: %w", i, err)
		}
		variants := strategy.Enumerate(base, cl, 1)
		if len(variants) == 0 {
			return nil, fmt.Errorf("controller: strategy %q produced no variant", strategyName)
		}
		plan := variants[0]
		rec, err := sim.Run(ctx, plan, cl, backend.RunSpec{
			Runs: 1, Seed: seed + int64(i), Placement: c.Placement,
		})
		if err != nil {
			return nil, err
		}
		cost += float64(plan.TotalInstances()) * rec.ElapsedSec
		ds.Examples = append(ds.Examples, ml.Example{
			Flat:      feature.EncodeFlat(plan, cl),
			Graph:     feature.EncodeGraph(plan, cl),
			Latency:   rec.LatencyP50,
			Structure: plan.Structure,
		})
	}
	return &Corpus{Strategy: strategyName, Dataset: ds, BuildTime: time.Since(start), LabelCost: cost}, nil
}

// Exp3Models regenerates Figure 5: the per-structure median q-error of
// the four learned cost models, trained fairly (same corpus, same split,
// same early stopping) by the ML Manager.
func (c *Controller) Exp3Models(corpus *ml.Dataset, opts ml.TrainOptions) (*metrics.Figure, []*mlmanager.Evaluation, error) {
	mgr := mlmanager.New(opts)
	evs, err := mgr.Compare(mlmanager.DefaultModels(), corpus)
	if err != nil {
		return nil, nil, err
	}
	fig := &metrics.Figure{
		ID:     metrics.FigCostModels,
		Title:  "Learned cost models: median q-error per synthetic query structure",
		XLabel: "structure",
		YLabel: "median q-error",
	}
	for _, ev := range evs {
		series := metrics.Series{Label: ev.Model}
		for _, st := range workload.Structures {
			if q, ok := ev.PerStructure[string(st)]; ok {
				series.Points = append(series.Points, metrics.Point{X: string(st), Y: q})
			}
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, evs, nil
}

// StrategyCurves is the Figure 6 result: per-strategy learning curves
// (6a) and total time — corpus collection plus training — per training
// size (6b).
type StrategyCurves struct {
	Fig6a  *metrics.Figure
	Fig6b  *metrics.Figure
	Curves map[string][]*mlmanager.CurvePoint
	// TotalTime[strategy][i] matches sizes[i]: collection + training.
	TotalTime map[string][]time.Duration
	// Cost[strategy][i] is the same effort counted instead of timed, so
	// it does not depend on the host: the label cost of sizes[i] queries
	// (Corpus.LabelCostFor, in simulated instance-seconds) plus training
	// examples × epochs run, each counting one unit.
	Cost  map[string][]float64
	Sizes []int
}

// Exp3Strategies regenerates Figure 6: GNN cost models are trained on
// corpora enumerated by the rule-based and random strategies at growing
// training-set sizes, and evaluated on fixed seen-structure and
// unseen-structure test sets (both enumerated rule-based, since
// meaningful parallelism configurations are what deployments run). The
// rule-based curve reaches a given accuracy with roughly a third of the
// queries — and hence roughly a third of the collection+training time —
// reproducing O9.
func (c *Controller) Exp3Strategies(ctx context.Context, sizes []int, testN int, opts ml.TrainOptions) (*StrategyCurves, error) {
	if len(sizes) == 0 {
		sizes = []int{25, 50, 100, 200, 400}
	}
	if testN <= 0 {
		testN = 45
	}
	cl := c.Homogeneous()
	maxSize := sizes[len(sizes)-1]
	// Corpus sized for the largest training cut plus the validation split.
	corpusN := maxSize*100/85 + 1

	seenTest, err := c.BuildCorpus(ctx, "rule-based", SeenStructures, testN, cl, c.Seed+1000)
	if err != nil {
		return nil, err
	}
	unseenTest, err := c.BuildCorpus(ctx, "rule-based", UnseenStructures(), testN, cl, c.Seed+2000)
	if err != nil {
		return nil, err
	}

	mgr := mlmanager.New(opts)
	gnnFactory := mlmanager.DefaultModels()[3]
	out := &StrategyCurves{
		Curves:    map[string][]*mlmanager.CurvePoint{},
		TotalTime: map[string][]time.Duration{},
		Cost:      map[string][]float64{},
		Sizes:     sizes,
		Fig6a: &metrics.Figure{
			ID:     metrics.FigEnumAccuracy,
			Title:  "GNN accuracy vs training queries, rule-based vs random enumeration",
			XLabel: "training queries",
			YLabel: "median q-error",
		},
		Fig6b: &metrics.Figure{
			ID:     metrics.FigEnumTime,
			Title:  "Total time (collection + training) vs training queries",
			XLabel: "training queries",
			YLabel: "seconds",
		},
	}
	for _, strat := range []string{"rule-based", "random"} {
		corpus, err := c.BuildCorpus(ctx, strat, SeenStructures, corpusN, cl, c.Seed+3000)
		if err != nil {
			return nil, err
		}
		points, err := mgr.LearningCurve(gnnFactory, corpus.Dataset, sizes, seenTest.Dataset, unseenTest.Dataset)
		if err != nil {
			return nil, err
		}
		out.Curves[strat] = points
		seen := metrics.Series{Label: strat + "/seen"}
		unseen := metrics.Series{Label: strat + "/unseen"}
		times := metrics.Series{Label: strat}
		var totals []time.Duration
		var costs []float64
		for _, p := range points {
			x := fmt.Sprintf("%d", p.TrainQueries)
			seen.Points = append(seen.Points, metrics.Point{X: x, Y: p.SeenMedianQ})
			unseen.Points = append(unseen.Points, metrics.Point{X: x, Y: p.UnseenMedianQ})
			total := corpus.TimeFor(p.TrainQueries) + p.TrainTime
			totals = append(totals, total)
			times.Points = append(times.Points, metrics.Point{X: x, Y: total.Seconds()})
			costs = append(costs, corpus.LabelCostFor(p.TrainQueries)+float64(p.TrainQueries*p.Epochs))
		}
		out.TotalTime[strat] = totals
		out.Cost[strat] = costs
		out.Fig6a.Series = append(out.Fig6a.Series, seen, unseen)
		out.Fig6b.Series = append(out.Fig6b.Series, times)
	}
	return out, nil
}

// QueriesToReach returns the smallest training size whose seen-set
// median q-error is at or below target, or -1 if never reached — the
// data-efficiency statistic behind O9 ("requires only ~⅓ of the
// queries").
func QueriesToReach(points []*mlmanager.CurvePoint, target float64) int {
	for _, p := range points {
		if p.SeenMedianQ <= target {
			return p.TrainQueries
		}
	}
	return -1
}
