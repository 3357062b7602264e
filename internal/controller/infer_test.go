package controller

import (
	"context"
	"sync"
	"testing"

	"pdspbench/internal/ml"
	"pdspbench/internal/stats"
	"pdspbench/internal/workload"
)

// testPredictor is the predictor both inference tests query: trained
// once per package on a 150-query random corpus (seed 21). Predict and
// PickParallelism only read the model, so the tests can share it.
var testPredictor struct {
	once sync.Once
	pred *Predictor
	err  error
}

func trainTestPredictor(t *testing.T) *Predictor {
	t.Helper()
	testPredictor.once.Do(func() {
		c := tiny()
		corpus, err := c.BuildCorpus(context.Background(), "random", workload.Structures, 150, c.Homogeneous(), 21)
		if err != nil {
			testPredictor.err = err
			return
		}
		testPredictor.pred, testPredictor.err = c.TrainPredictor(corpus.Dataset, c.Homogeneous(),
			ml.TrainOptions{MaxEpochs: 60, Patience: 8, LearningRate: 3e-3})
	})
	if testPredictor.err != nil {
		t.Fatal(testPredictor.err)
	}
	return testPredictor.pred
}

func TestPredictorAccuracyOnFreshPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor training is slow")
	}
	c := tiny()
	pred := trainTestPredictor(t)
	var truths, preds []float64
	for _, s := range []workload.Structure{workload.StructLinear, workload.StructTwoWayJoin, workload.StructThreeJoin} {
		for _, degree := range []int{2, 16} {
			plan, err := c.SyntheticPlan(s, degree)
			if err != nil {
				t.Fatal(err)
			}
			p, err := pred.Predict(plan)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := c.Measure(context.Background(), plan, c.Homogeneous())
			if err != nil {
				t.Fatal(err)
			}
			truths = append(truths, rec.LatencyP50)
			preds = append(preds, p)
		}
	}
	if q := stats.MedianQError(truths, preds); q > 3 {
		t.Errorf("predictor median q-error %v on fresh plans; model unusable for inference", q)
	}
}

func TestPredictorRejectsInvalidPlanAndTinyCorpus(t *testing.T) {
	c := tiny()
	if _, err := c.TrainPredictor(&ml.Dataset{}, c.Homogeneous(), ml.TrainOptions{}); err == nil {
		t.Error("TrainPredictor accepted empty corpus")
	}
}

func TestPickParallelismAvoidsExtremes(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor training is slow")
	}
	c := tiny()
	pred := trainTestPredictor(t)
	// A multi-way join at 500k events/s saturates at degree 1 — the
	// corpus contains that regime, so the tuned degree must not be 1.
	plan, err := c.SyntheticPlan(workload.StructThreeJoin, 1)
	if err != nil {
		t.Fatal(err)
	}
	degree, lat, err := pred.PickParallelism(plan, []int{1, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if degree == 1 {
		t.Errorf("tuner picked degree 1 for a saturating UDO app (predicted %.3fs)", lat)
	}
	if lat <= 0 {
		t.Errorf("predicted latency %v", lat)
	}
}
