package controller

import (
	"context"
	"testing"

	"pdspbench/internal/cluster"
	"pdspbench/internal/core"
	"pdspbench/internal/ml"
	"pdspbench/internal/mlmanager"
	"pdspbench/internal/storage"
	"pdspbench/internal/workload"
)

// tiny returns a controller with minimal simulation fidelity for unit
// tests; shape assertions use Fast() in the observation tests.
func tiny() *Controller {
	c := Fast()
	c.Cfg.Duration = 6
	c.Cfg.SourceBatches = 48
	return c
}

func TestMeasureProducesRecord(t *testing.T) {
	c := tiny()
	plan, err := c.SyntheticPlan(workload.StructLinear, 8)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Measure(context.Background(), plan, c.Homogeneous())
	if err != nil {
		t.Fatal(err)
	}
	if rec.LatencyP50 <= 0 {
		t.Errorf("latency %v, want > 0", rec.LatencyP50)
	}
	if rec.Category != "M" {
		t.Errorf("category %q, want M for degree 8", rec.Category)
	}
	if rec.Workload != string(workload.StructLinear) {
		t.Errorf("workload %q", rec.Workload)
	}
	if rec.EventRate != c.EventRate {
		t.Errorf("event rate %v, want %v", rec.EventRate, c.EventRate)
	}
}

func TestMeasureStoresRuns(t *testing.T) {
	c := tiny()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Store = st
	plan, _ := c.SyntheticPlan(workload.StructLinear, 2)
	if _, err := c.Measure(context.Background(), plan, c.Homogeneous()); err != nil {
		t.Fatal(err)
	}
	n, err := st.Count("runs")
	if err != nil || n != 1 {
		t.Errorf("stored %d runs (%v), want 1", n, err)
	}
}

func TestClusterProvisioning(t *testing.T) {
	c := New()
	if got := c.Homogeneous(); got.IsHeterogeneous() || len(got.Nodes) != 5 {
		t.Errorf("Homogeneous = %v", got)
	}
	if got := c.Mixed(); !got.IsHeterogeneous() {
		t.Error("Mixed cluster is not heterogeneous")
	}
	if c.HeteroEpyc().Nodes[0].Type.Name != "c6525_25g" {
		t.Error("HeteroEpyc wrong node type")
	}
	if c.HeteroHaswell().Nodes[0].Type.Name != "c6320" {
		t.Error("HeteroHaswell wrong node type")
	}
}

func TestExp1SyntheticFigureShape(t *testing.T) {
	c := tiny()
	cats := []core.ParallelismCategory{core.CatXS, core.CatM}
	structs := []workload.Structure{workload.StructLinear, workload.StructTwoWayJoin}
	fig, err := c.Exp1Synthetic(context.Background(), cats, structs)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig3-top" {
		t.Errorf("figure ID %q", fig.ID)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want one per category", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points, want one per structure", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("non-positive latency for %s/%s", s.Label, p.X)
			}
		}
	}
}

func TestExp1RealWorldFigure(t *testing.T) {
	c := tiny()
	fig, err := c.Exp1RealWorld(context.Background(), []core.ParallelismCategory{core.CatM}, []string{"WC", "SD"})
	if err != nil {
		t.Fatal(err)
	}
	if fig.SeriesByLabel("M") == nil {
		t.Fatal("missing M series")
	}
	if _, ok := fig.SeriesByLabel("M").Get("SD"); !ok {
		t.Error("missing SD point")
	}
}

func TestExp2Figures(t *testing.T) {
	c := tiny()
	fig, err := c.Exp2RealWorld(context.Background(), []string{"SD"})
	if err != nil {
		t.Fatal(err)
	}
	// One series per cluster: m510, c6525_25g, c6320, mixed.
	if len(fig.Series) != 4 {
		t.Fatalf("fig4-top series = %d, want 4", len(fig.Series))
	}
	fig2, err := c.Exp2Synthetic(context.Background(), []core.ParallelismCategory{core.CatM}, []workload.Structure{workload.StructLinear})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig2.Series) != 4 {
		t.Fatalf("fig4-bottom series = %d, want 4", len(fig2.Series))
	}
	for _, s := range fig2.Series {
		if y, ok := s.Get("M"); !ok || y <= 0 {
			t.Errorf("series %s missing M point", s.Label)
		}
	}
}

func TestBuildCorpusLabelsExamples(t *testing.T) {
	c := tiny()
	corpus, err := c.BuildCorpus(context.Background(), "rule-based", SeenStructures, 9, c.Homogeneous(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.Dataset.Len() != 9 {
		t.Fatalf("corpus = %d examples, want 9", corpus.Dataset.Len())
	}
	if err := ml.CheckDataset(corpus.Dataset, true, true); err != nil {
		t.Errorf("corpus incomplete: %v", err)
	}
	structs := map[string]bool{}
	for _, e := range corpus.Dataset.Examples {
		if e.Latency <= 0 {
			t.Errorf("example labeled with latency %v", e.Latency)
		}
		structs[e.Structure] = true
	}
	if len(structs) != 3 {
		t.Errorf("corpus covers %d structures, want the 3 seen ones", len(structs))
	}
	if corpus.BuildTime <= 0 {
		t.Error("corpus build time not recorded")
	}
	// TimeFor scales linearly and clamps.
	if corpus.TimeFor(3) >= corpus.TimeFor(9) {
		t.Error("TimeFor not increasing in n")
	}
	if corpus.TimeFor(100) != corpus.BuildTime {
		t.Error("TimeFor should clamp to full build time")
	}
}

func TestBuildCorpusUnknownStrategy(t *testing.T) {
	c := tiny()
	if _, err := c.BuildCorpus(context.Background(), "nope", nil, 2, c.Homogeneous(), 1); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestUnseenStructuresDisjointFromSeen(t *testing.T) {
	seen := map[workload.Structure]bool{}
	for _, s := range SeenStructures {
		seen[s] = true
	}
	unseen := UnseenStructures()
	if len(unseen)+len(SeenStructures) != len(workload.Structures) {
		t.Errorf("seen+unseen = %d, want %d", len(unseen)+len(SeenStructures), len(workload.Structures))
	}
	for _, s := range unseen {
		if seen[s] {
			t.Errorf("structure %s both seen and unseen", s)
		}
	}
}

func TestExp3ModelsProducesFig5(t *testing.T) {
	c := tiny()
	corpus, err := c.BuildCorpus(context.Background(), "random", workload.Structures, 60, c.Homogeneous(), 3)
	if err != nil {
		t.Fatal(err)
	}
	fig, evs, err := c.Exp3Models(corpus.Dataset, ml.TrainOptions{MaxEpochs: 15, Patience: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("models evaluated = %d, want 4", len(evs))
	}
	if len(fig.Series) != 4 {
		t.Fatalf("fig5 series = %d, want 4", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			t.Errorf("model %s has no per-structure points", s.Label)
		}
	}
}

func TestExp3StrategiesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exp3 strategies is slow")
	}
	c := tiny()
	curves, err := c.Exp3Strategies(context.Background(), []int{10, 30}, 9, ml.TrainOptions{MaxEpochs: 12, Patience: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"rule-based", "random"} {
		pts := curves.Curves[strat]
		if len(pts) != 2 {
			t.Fatalf("%s: %d curve points, want 2", strat, len(pts))
		}
		if len(curves.TotalTime[strat]) != 2 {
			t.Fatalf("%s: missing total time", strat)
		}
		for _, d := range curves.TotalTime[strat] {
			if d <= 0 {
				t.Errorf("%s: non-positive total time", strat)
			}
		}
		if len(curves.Cost[strat]) != 2 || curves.Cost[strat][0] <= 0 || curves.Cost[strat][1] <= 0 {
			t.Errorf("%s: cost %v, want two positive values", strat, curves.Cost[strat])
		}
	}
	if len(curves.Fig6a.Series) != 4 { // 2 strategies × seen/unseen
		t.Errorf("fig6a series = %d, want 4", len(curves.Fig6a.Series))
	}
	if len(curves.Fig6b.Series) != 2 {
		t.Errorf("fig6b series = %d, want 2", len(curves.Fig6b.Series))
	}
}

func TestQueriesToReach(t *testing.T) {
	pts := []*mlmanager.CurvePoint{
		{TrainQueries: 25, SeenMedianQ: 3.0},
		{TrainQueries: 100, SeenMedianQ: 1.4},
		{TrainQueries: 400, SeenMedianQ: 1.2},
	}
	if got := QueriesToReach(pts, 1.5); got != 100 {
		t.Errorf("QueriesToReach(1.5) = %d, want 100", got)
	}
	if got := QueriesToReach(pts, 1.0); got != -1 {
		t.Errorf("QueriesToReach(1.0) = %d, want -1", got)
	}
}

func TestRuleBasedNeverExceedsCoreBudget(t *testing.T) {
	c := tiny()
	cl := c.Homogeneous()
	corpus, err := c.BuildCorpus(context.Background(), "rule-based", SeenStructures, 6, cl, 11)
	if err != nil {
		t.Fatal(err)
	}
	_ = corpus
	// Rule-based corpora must contain no plan exceeding the cluster's
	// core budget; re-enumerate to inspect degrees directly.
	enum := workload.NewEnumerator(11)
	strat, _ := workload.StrategyByName("rule-based", enum.Rand())
	base, err := workload.Build(workload.StructTwoWayJoin, enum.RandomParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range strat.Enumerate(base, cl, 10) {
		if v.MaxParallelism() > cl.TotalCores() {
			t.Errorf("rule-based degree %d exceeds %d cores", v.MaxParallelism(), cl.TotalCores())
		}
	}
}

func TestPlacementStrategyConfigurable(t *testing.T) {
	c := tiny()
	c.Placement = cluster.PlaceLeastLoaded
	plan, _ := c.SyntheticPlan(workload.StructLinear, 4)
	if _, err := c.Measure(context.Background(), plan, c.Homogeneous()); err != nil {
		t.Fatalf("least-loaded placement failed: %v", err)
	}
}
