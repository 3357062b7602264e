package apps

import (
	"context"
	"strings"
	"sync"
	"testing"

	"pdspbench/internal/core"
	"pdspbench/internal/engine"
	"pdspbench/internal/tuple"
)

func TestRegistryHasAll14Applications(t *testing.T) {
	if len(Registry) != 14 {
		t.Fatalf("Registry has %d applications, Table 2 lists 14", len(Registry))
	}
	want := []string{"WC", "MO", "LR", "TT", "SA", "TPCH", "BI", "CA", "LP", "SG", "SD", "TM", "FD", "AD"}
	codes := Codes()
	seen := map[string]bool{}
	for _, c := range codes {
		seen[c] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("application %s missing from registry", w)
		}
	}
}

func TestByCode(t *testing.T) {
	a, err := ByCode("SG")
	if err != nil || a.Name != "Smart Grid" {
		t.Errorf("ByCode(SG) = %v, %v", a, err)
	}
	if _, err := ByCode("nope"); err == nil {
		t.Error("ByCode accepted unknown code")
	}
}

func TestEveryAppPlanValidates(t *testing.T) {
	for _, a := range Registry {
		plan := a.Build(100_000)
		if err := plan.Validate(); err != nil {
			t.Errorf("%s: plan invalid: %v", a.Code, err)
		}
		// Every UDO referenced in the plan must be implemented.
		udos := a.UDOs()
		for _, op := range plan.Operators {
			if op.UDO != nil {
				if _, ok := udos[op.UDO.Name]; !ok {
					t.Errorf("%s: operator %s references unimplemented UDO %q", a.Code, op.ID, op.UDO.Name)
				}
			}
		}
		// Every source must have a generator.
		srcs := a.Sources(1, 10)
		for _, s := range plan.Sources() {
			if _, ok := srcs[s.ID]; !ok {
				t.Errorf("%s: source %s has no generator", a.Code, s.ID)
			}
		}
	}
}

// runApp executes an application end to end on the real engine with
// bounded sources and returns the sink deliveries.
func runApp(t *testing.T, a *App, maxTuples int, parallelism int) []*tuple.Tuple {
	t.Helper()
	plan := a.Build(100_000)
	if parallelism > 1 {
		plan.SetUniformParallelism(parallelism)
	}
	var mu sync.Mutex
	var out []*tuple.Tuple
	rt, err := engine.New(plan, engine.Options{
		Sources: a.Sources(42, maxTuples),
		UDOs:    a.UDOs(),
		SinkTap: func(op string, tp *tuple.Tuple) {
			mu.Lock()
			out = append(out, tp.Clone())
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("%s: engine.New: %v", a.Code, err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatalf("%s: Run: %v", a.Code, err)
	}
	mu.Lock()
	defer mu.Unlock()
	res := out
	out = nil
	return res
}

func TestEveryAppRunsEndToEnd(t *testing.T) {
	for _, a := range Registry {
		a := a
		t.Run(a.Code, func(t *testing.T) {
			t.Parallel()
			out := runApp(t, a, 3000, 1)
			if len(out) == 0 {
				t.Fatalf("%s produced no output over 3000 input tuples", a.Code)
			}
		})
	}
}

func TestEveryAppRunsWithParallelism(t *testing.T) {
	for _, a := range Registry {
		a := a
		t.Run(a.Code, func(t *testing.T) {
			t.Parallel()
			out := runApp(t, a, 2000, 4)
			if len(out) == 0 {
				t.Fatalf("%s with parallelism 4 produced no output", a.Code)
			}
		})
	}
}

func TestWordCountCountsWords(t *testing.T) {
	out := runApp(t, WordCount, 2000, 1)
	// Output tuples are (word, count); counts are per tumbling 100-tuple
	// count window (plus a flush remainder) and must be ≥ 1.
	var total float64
	for _, o := range out {
		if o.Width() != 2 {
			t.Fatalf("WC output width %d, want 2", o.Width())
		}
		c := o.At(1).D
		if c < 1 {
			t.Errorf("word %q count %v < 1", o.At(0).S, c)
		}
		total += c
	}
	// Total counted words must be near 2000 sentences × mean 7 words.
	if total < 6000 || total > 22000 {
		t.Errorf("total words counted = %v, expected roughly 2000×[3,10]", total)
	}
}

// TestNewRejectsUnregisteredMapUDO checks that the engine refuses a
// plan whose flat-map names a UDO it was given no factory for, instead
// of starting instances that would call a nil factory.
func TestNewRejectsUnregisteredMapUDO(t *testing.T) {
	plan := WordCount.Build(1000)
	_, err := engine.New(plan, engine.Options{Sources: WordCount.Sources(1, 10)})
	if err == nil {
		t.Fatal("engine.New accepted WordCount without its UDOs")
	}
	if !strings.Contains(err.Error(), "wc/splitter") {
		t.Errorf("error %q does not name wc/splitter", err)
	}
}

func TestSentimentScoresAreBounded(t *testing.T) {
	out := runApp(t, SentimentAnalysis, 2000, 1)
	for _, o := range out {
		score := o.At(1).D
		// Mean polarity per window: lexicon scores are within [-1, 0.5] per
		// word and tweets have ≤ 14 words, so window means stay inside.
		if score < -15 || score > 8 {
			t.Errorf("mean polarity %v outside plausible range", score)
		}
	}
}

func TestSpikeDetectionOnlyEmitsSpikes(t *testing.T) {
	out := runApp(t, SpikeDetection, 4000, 1)
	if len(out) == 0 {
		t.Fatal("no spikes detected over 4000 readings with 3% spike rate")
	}
	for _, o := range out {
		v, avg := o.At(1).D, o.At(2).D
		if v <= 1.03*avg {
			t.Errorf("non-spike emitted: value %v vs avg %v", v, avg)
		}
	}
	// The 3% spike injection bounds expected output loosely.
	if len(out) > 1200 {
		t.Errorf("detected %d spikes in 4000 readings; detector fires far too often", len(out))
	}
}

func TestTrendingTopicsEmitsHashtags(t *testing.T) {
	out := runApp(t, TrendingTopics, 3000, 1)
	if len(out) == 0 {
		t.Fatal("no trending topics emitted")
	}
	for _, o := range out {
		if !strings.HasPrefix(o.At(0).S, "#") {
			t.Errorf("ranked topic %q is not a hashtag", o.At(0).S)
		}
		rank := o.At(1).I
		if rank < 1 || rank > 10 {
			t.Errorf("rank %d outside top-10", rank)
		}
	}
}

func TestFraudDetectionFlagsMinority(t *testing.T) {
	out := runApp(t, FraudDetection, 5000, 1)
	// With a 4% out-of-pattern rate plus the cold-start prior, flags must
	// be a small minority of the stream, not the bulk of it.
	if len(out) == 0 {
		t.Fatal("fraud detection flagged nothing")
	}
	if len(out) > 1500 {
		t.Errorf("flagged %d of 5000 transactions; threshold far too loose", len(out))
	}
	for _, o := range out {
		if p := o.At(2).D; p >= 0.05 {
			t.Errorf("flagged transaction with probability %v ≥ 0.05", p)
		}
	}
}

func TestLinearRoadTollsOnlyCongestedSegments(t *testing.T) {
	out := runApp(t, LinearRoad, 4000, 1)
	if len(out) == 0 {
		t.Fatal("no tolls emitted despite congested segments in the trace")
	}
	for _, o := range out {
		if toll := o.At(1).D; toll <= 0 {
			t.Errorf("non-positive toll %v", toll)
		}
	}
}

func TestAdAnalyticsCTRWithinUnitRange(t *testing.T) {
	out := runApp(t, AdAnalytics, 2500, 1)
	if len(out) == 0 {
		t.Fatal("no CTR outputs")
	}
	for _, o := range out {
		ctr := o.At(1).D
		if ctr <= 0 || ctr > 1.0001 {
			t.Errorf("CTR %v outside (0, 1]", ctr)
		}
	}
}

func TestLogProcessingCountsOnlyErrors(t *testing.T) {
	out := runApp(t, LogProcessing, 4000, 1)
	if len(out) == 0 {
		t.Fatal("no status-count windows emitted")
	}
	for _, o := range out {
		status := o.At(0).I
		if status < 400 {
			t.Errorf("status %d passed the ≥400 error filter", status)
		}
	}
}

func TestBargainIndexOnlyBelowVWAP(t *testing.T) {
	out := runApp(t, BargainIndex, 3000, 1)
	if len(out) == 0 {
		t.Fatal("no bargain indices emitted")
	}
	for _, o := range out {
		if idx := o.At(1).D; idx <= 0 {
			t.Errorf("bargain index %v not positive", idx)
		}
	}
}

func TestMachineOutlierScores(t *testing.T) {
	out := runApp(t, MachineOutlier, 4000, 1)
	if len(out) == 0 {
		t.Fatal("no outlier alerts over 4000 metrics with 2% anomalies")
	}
	if len(out) > 2000 {
		t.Errorf("alerted on %d of 4000; detector fires on half the fleet", len(out))
	}
	for _, o := range out {
		if s := o.At(2).D; s <= 3 {
			t.Errorf("alert with score %v ≤ 3 passed the filter", s)
		}
	}
}

func TestDataIntensiveFlagsMatchPaper(t *testing.T) {
	// The paper's O1/O5 name SA, SG, SD (and CA, TM) as the data-intensive
	// winners from parallelism; WC, LR, TPCH, LP are standard-operator apps.
	intensive := map[string]bool{}
	for _, a := range Registry {
		intensive[a.Code] = a.DataIntensive
	}
	for _, code := range []string{"SA", "SG", "SD", "CA", "TM"} {
		if !intensive[code] {
			t.Errorf("%s should be marked data-intensive", code)
		}
	}
	for _, code := range []string{"WC", "LR", "TPCH", "LP"} {
		if intensive[code] {
			t.Errorf("%s should not be marked data-intensive", code)
		}
	}
}

func TestAppUDOCostFactorsExceedStandardOps(t *testing.T) {
	// Data-intensive apps must carry UDO cost factors above the join cost
	// (6), so the simulator reproduces their saturation at low parallelism.
	for _, a := range Registry {
		if !a.DataIntensive {
			continue
		}
		plan := a.Build(100_000)
		maxCost := 0.0
		for _, op := range plan.Operators {
			if op.UDO != nil && op.UDO.CostFactor > maxCost {
				maxCost = op.UDO.CostFactor
			}
		}
		if maxCost < 8 {
			t.Errorf("%s: max UDO cost factor %v too low for a data-intensive app", a.Code, maxCost)
		}
	}
}

func TestAdAnalyticsHasJoinAndHighStateFactor(t *testing.T) {
	plan := AdAnalytics.Build(100_000)
	if plan.CountKind(core.OpJoin) != 1 {
		t.Error("AD plan should contain the view-click join of Figure 2 (right)")
	}
	var sf float64
	for _, op := range plan.Operators {
		if op.UDO != nil && op.UDO.StateFactor > sf {
			sf = op.UDO.StateFactor
		}
	}
	if sf < 1 {
		t.Errorf("AD max StateFactor %v; must be the suite's heaviest to reproduce its O5 plateau", sf)
	}
}
