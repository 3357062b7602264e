package controller

// Shape tests for the paper's observations O1–O9 (Section 4). Each test
// regenerates the relevant slice of a figure with the Fast() controller
// and asserts the qualitative relationship the paper reports — who wins,
// by roughly what factor, where the crossovers fall — not absolute
// numbers.

import (
	"context"
	"testing"

	"pdspbench/internal/apps"
	"pdspbench/internal/core"
	"pdspbench/internal/ml"
	"pdspbench/internal/mlmanager"
	"pdspbench/internal/workload"
)

// measure returns the median latency of one synthetic structure at one
// degree on the homogeneous cluster.
func measureSynthetic(t *testing.T, c *Controller, s workload.Structure, degree int) float64 {
	t.Helper()
	plan, err := c.SyntheticPlan(s, degree)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Measure(context.Background(), plan, c.Homogeneous())
	if err != nil {
		t.Fatal(err)
	}
	return rec.LatencyP50
}

func measureApp(t *testing.T, c *Controller, code string, degree int) float64 {
	t.Helper()
	return measureAppOn(t, c, code, degree, "m510")
}

func measureAppOn(t *testing.T, c *Controller, code string, degree int, clusterName string) float64 {
	t.Helper()
	app := mustApp(t, code)
	plan := app.Build(c.EventRate)
	plan.SetUniformParallelism(degree)
	var cl = c.Homogeneous()
	switch clusterName {
	case "c6525_25g":
		cl = c.HeteroEpyc()
	case "c6320":
		cl = c.HeteroHaswell()
	case "mixed":
		cl = c.Mixed()
	}
	rec, err := c.Measure(context.Background(), plan, cl)
	if err != nil {
		t.Fatal(err)
	}
	return rec.LatencyP50
}

func TestO1JoinQueriesSpeedUpWithParallelism(t *testing.T) {
	c := Fast()
	xs := measureSynthetic(t, c, workload.StructThreeJoin, core.CatXS.Degree())
	m := measureSynthetic(t, c, workload.StructThreeJoin, core.CatM.Degree())
	if xs <= m*1.2 {
		t.Errorf("O1: 3-way join XS latency %.3fs not clearly above M latency %.3fs; parallelism should help joins", xs, m)
	}
}

func TestO1ComplexityIncreasesLatency(t *testing.T) {
	c := Fast()
	lin := measureSynthetic(t, c, workload.StructLinear, 8)
	twoWay := measureSynthetic(t, c, workload.StructTwoWayJoin, 8)
	threeWay := measureSynthetic(t, c, workload.StructThreeJoin, 8)
	if !(lin < threeWay) || !(twoWay < threeWay) {
		t.Errorf("O1 tipping point missing: linear=%.3f 2-way=%.3f 3-way=%.3f", lin, twoWay, threeWay)
	}
}

func TestO1FilterChainsStayConsistent(t *testing.T) {
	// "Initially, adding filters keeps latency consistent across
	// parallelism categories": for the linear structure, latency from M
	// to XXL varies within a modest band (no saturation collapse, no
	// blow-up).
	c := Fast()
	m := measureSynthetic(t, c, workload.StructLinear, core.CatM.Degree())
	xl := measureSynthetic(t, c, workload.StructLinear, core.CatXL.Degree())
	xxl := measureSynthetic(t, c, workload.StructLinear, core.CatXXL.Degree())
	for _, v := range []float64{xl, xxl} {
		if v > m*1.6 || v < m/1.6 {
			t.Errorf("O1: linear latency not consistent: M=%.3f XL=%.3f XXL=%.3f", m, xl, xxl)
		}
	}
}

func TestO2ParallelismParadoxForAD(t *testing.T) {
	// "Beyond a certain threshold of parallelism (128) … the overhead of
	// managing parallel operations … outweighs the benefits": the AD
	// application's heavy-state UDO degrades sharply past XL.
	c := Fast()
	l := measureApp(t, c, "AD", core.CatL.Degree())
	xxl := measureApp(t, c, "AD", core.CatXXL.Degree())
	if xxl <= l {
		t.Errorf("O2 paradox missing: AD L=%.3fs XXL=%.3fs", l, xxl)
	}
}

func TestO2MultiWayJoinGainsBecomeNegligible(t *testing.T) {
	// "performance improvements in multi-way joins are small or
	// negligible as parallelism increases from 128 to 256".
	c := Fast()
	xl := measureSynthetic(t, c, workload.StructFiveJoin, core.CatXL.Degree())
	xxl := measureSynthetic(t, c, workload.StructFiveJoin, core.CatXXL.Degree())
	rel := (xl - xxl) / xl
	if rel > 0.25 {
		t.Errorf("O2: 5-way join still gains %.0f%% from XL→XXL; expected negligible", rel*100)
	}
}

func TestO3DataIntensiveUDOsGainMost(t *testing.T) {
	// SA, SG, SD (data-intensive UDOs) improve far more with parallelism
	// than LR (standard operators).
	c := Fast()
	gain := func(code string) float64 {
		xs := measureApp(t, c, code, core.CatXS.Degree())
		l := measureApp(t, c, code, core.CatL.Degree())
		return xs / l
	}
	sd, sa, lr := gain("SD"), gain("SA"), gain("LR")
	if sd < 3 {
		t.Errorf("O3: SD gains only %.2f× from XS→L, want data-intensive speed-up", sd)
	}
	if sa < 2 {
		t.Errorf("O3: SA gains only %.2f× from XS→L", sa)
	}
	if lr > sd || lr > sa {
		t.Errorf("O3: standard-operator LR gains %.2f× ≥ data-intensive apps (SD %.2f×, SA %.2f×)", lr, sd, sa)
	}
}

func TestO4NonLinearParallelismEffect(t *testing.T) {
	// SG's improvement is concentrated at higher parallelism: the move
	// XS→S barely helps while S→L unlocks the speed-up (non-linearity).
	c := Fast()
	xs := measureApp(t, c, "SG", core.CatXS.Degree())
	s := measureApp(t, c, "SG", core.CatS.Degree())
	l := measureApp(t, c, "SG", core.CatL.Degree())
	firstStep := xs - s
	laterStep := s - l
	if laterStep <= firstStep {
		t.Errorf("O4: SG improvement linear or front-loaded: XS=%.3f S=%.3f L=%.3f", xs, s, l)
	}
}

func TestO5HeterogeneousHardwareHelpsSomeAppsNotAD(t *testing.T) {
	if testing.Short() {
		t.Skip("heterogeneous sweep is slow")
	}
	// "applications SA, CA, SD significantly benefited … AD struggles to
	// improve in heterogeneous configuration."
	c := Fast()
	ratio := func(code string) float64 {
		cores8 := measureAppOn(t, c, code, 8, "m510")
		cores16 := measureAppOn(t, c, code, 16, "c6525_25g")
		return cores8 / cores16
	}
	sd, ca, ad := ratio("SD"), ratio("CA"), ratio("AD")
	if sd < 1.5 {
		t.Errorf("O5: SD improves only %.2f× on heterogeneous hardware", sd)
	}
	if ca < 1.5 {
		t.Errorf("O5: CA improves only %.2f× on heterogeneous hardware", ca)
	}
	if ad >= sd || ad >= ca {
		t.Errorf("O5: AD (%.2f×) should benefit less than SD (%.2f×) and CA (%.2f×)", ad, sd, ca)
	}
}

func TestO6NoConsistentBalancingPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4-bottom sweep is slow")
	}
	c := Fast()
	structures := []workload.Structure{workload.StructLinear, workload.StructTwoWayJoin}
	cats := []core.ParallelismCategory{core.CatXS, core.CatS, core.CatM, core.CatL, core.CatXL}
	fig, err := c.Exp2Synthetic(context.Background(), cats, structures)
	if err != nil {
		t.Fatal(err)
	}
	argmins := map[string]bool{}
	for _, s := range fig.Series {
		bestCat, bestY := "", 0.0
		xsY, _ := s.Get("XS")
		for _, p := range s.Points {
			if bestCat == "" || p.Y < bestY {
				bestCat, bestY = p.X, p.Y
			}
		}
		// Parallelism helps every cluster initially …
		if bestCat == "XS" {
			t.Errorf("O6: cluster %s is best at XS; parallelism should help", s.Label)
		}
		if xsY < bestY*1.3 {
			t.Errorf("O6: cluster %s gains <30%% from parallelism", s.Label)
		}
		argmins[s.Label+"="+bestCat] = true
		_ = bestY
	}
	// … but the balancing point is not the same everywhere.
	distinct := map[string]bool{}
	for k := range argmins {
		distinct[k[len(k)-2:]] = true
	}
	if len(distinct) < 2 {
		t.Logf("O6 note: all clusters share one balancing point in this configuration: %v", argmins)
	}
}

func TestO7SyntheticGainsFromHeterogeneityAreModest(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-cluster sweep is slow")
	}
	// O7: there is no clear homogeneous/heterogeneous winner — synthetic
	// (standard-operator) queries benefit far less from the faster
	// heterogeneous clusters than data-intensive applications do.
	c := Fast()
	plan, err := c.SyntheticPlan(workload.StructTwoWayJoin, 8)
	if err != nil {
		t.Fatal(err)
	}
	ho, err := c.Measure(context.Background(), plan, c.Homogeneous())
	if err != nil {
		t.Fatal(err)
	}
	plan16, _ := c.SyntheticPlan(workload.StructTwoWayJoin, 16)
	he, err := c.Measure(context.Background(), plan16, c.HeteroEpyc())
	if err != nil {
		t.Fatal(err)
	}
	synthGain := ho.LatencyP50 / he.LatencyP50
	sdGain := measureAppOn(t, c, "SD", 8, "m510") / measureAppOn(t, c, "SD", 16, "c6525_25g")
	if synthGain >= sdGain {
		t.Errorf("O7: synthetic hetero gain %.2f× should be below data-intensive gain %.2f×", synthGain, sdGain)
	}
}

func TestO8GNNOutperformsOtherCostModels(t *testing.T) {
	if testing.Short() {
		t.Skip("full cost-model comparison is slow")
	}
	c := Fast()
	corpus, err := c.BuildCorpus(context.Background(), "random", workload.Structures, 500, c.Homogeneous(), 3)
	if err != nil {
		t.Fatal(err)
	}
	_, evs, err := c.Exp3Models(corpus.Dataset, ml.TrainOptions{MaxEpochs: 200, Patience: 15, LearningRate: 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*mlmanager.Evaluation{}
	for _, ev := range evs {
		byName[ev.Model] = ev
	}
	gnn := byName["GNN"].MedianQ
	for _, other := range []string{"LR", "MLP", "RF"} {
		// Allow a small tolerance against ties; the paper's O8 claim is
		// that the GNN consistently surpasses the others.
		if gnn > byName[other].MedianQ*1.02 {
			t.Errorf("O8: GNN median q-error %.3f worse than %s %.3f", gnn, other, byName[other].MedianQ)
		}
	}
	if gnn > byName["LR"].MedianQ*0.9 {
		t.Errorf("O8: GNN %.3f should clearly beat linear regression %.3f", gnn, byName["LR"].MedianQ)
	}
}

func TestO9RuleBasedEnumerationIsDataAndTimeEfficient(t *testing.T) {
	if testing.Short() {
		t.Skip("strategy comparison is slow")
	}
	c := Fast()
	c.Cfg.Duration = 6
	c.Cfg.SourceBatches = 48
	sizes := []int{25, 75, 200}
	curves, err := c.Exp3Strategies(context.Background(), sizes, 30, ml.TrainOptions{MaxEpochs: 80, Patience: 10, LearningRate: 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	rule, random := curves.Curves["rule-based"], curves.Curves["random"]
	last := len(sizes) - 1
	// Accuracy: the rule-based corpus must clearly beat the random corpus
	// with the same number of training queries.
	if rule[last].SeenMedianQ >= random[last].SeenMedianQ*0.95 {
		t.Errorf("O9: rule-based final q-error %.3f not clearly below random %.3f",
			rule[last].SeenMedianQ, random[last].SeenMedianQ)
	}
	// Data efficiency: random needs more queries than rule-based to reach
	// rule-based's achievable accuracy — ideally it never does within the
	// sweep (the paper: rule-based needs ≈⅓ of the queries).
	target := rule[last].SeenMedianQ * 1.1
	ruleN := QueriesToReach(rule, target)
	randN := QueriesToReach(random, target)
	if ruleN < 0 {
		t.Fatalf("O9: rule-based never reaches its own target %.3f", target)
	}
	if randN >= 0 && randN <= ruleN {
		t.Errorf("O9: random reaches q≤%.3f with %d queries, rule-based needs %d", target, randN, ruleN)
	}
	// Total (collection + training) effort advantage at the final size,
	// on the counted cost rather than wall time: the two strategies' wall
	// times come from runs seconds long, and the host's noise decided
	// the ratio about half the time.
	ruleC := curves.Cost["rule-based"][last]
	randC := curves.Cost["random"][last]
	if randC < 1.2*ruleC {
		t.Errorf("O9: random total cost %.0f not clearly above rule-based %.0f", randC, ruleC)
	}
}

func mustApp(t *testing.T, code string) *apps.App {
	t.Helper()
	a, err := apps.ByCode(code)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
