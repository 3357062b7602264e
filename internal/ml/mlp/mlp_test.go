package mlp

import (
	"math"
	"math/rand"
	"testing"

	"pdspbench/internal/ml"
	"pdspbench/internal/ml/mltest"
	"pdspbench/internal/stats"
	"pdspbench/internal/testutil"
)

func TestLearnsNonlinearFunction(t *testing.T) {
	// y = exp(x₀² + 0.5·x₁) is out of reach for a linear model; a small
	// MLP must fit it well.
	rng := rand.New(rand.NewSource(2))
	ds := &ml.Dataset{}
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		ds.Examples = append(ds.Examples, ml.Example{
			Flat: x, Latency: math.Exp(x[0]*x[0] + 0.5*x[1]),
		})
	}
	train, val, test := ds.Split(0.7, 0.15, 1)
	m := New()
	st, err := m.Train(train, val, ml.TrainOptions{MaxEpochs: 150, Patience: 15, LearningRate: 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	q := stats.NewSampleFrom(ml.QErrors(m, test)).Median()
	if q > 1.25 {
		t.Errorf("median q-error %v on smooth nonlinear target (epochs=%d)", q, st.Epochs)
	}
}

func TestEarlyStoppingTriggers(t *testing.T) {
	// Pure-noise labels give nothing to learn: validation loss plateaus
	// and the patience rule must stop training before MaxEpochs.
	rng := rand.New(rand.NewSource(3))
	ds := &ml.Dataset{}
	for i := 0; i < 120; i++ {
		ds.Examples = append(ds.Examples, ml.Example{
			Flat:    []float64{rng.Float64()},
			Latency: math.Exp(rng.NormFloat64()),
		})
	}
	train, val, _ := ds.Split(0.7, 0.3, 1)
	m := New()
	st, err := m.Train(train, val, ml.TrainOptions{MaxEpochs: 500, Patience: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stopped != "early" {
		t.Errorf("training ran %d epochs without early stop on pure noise", st.Epochs)
	}
	if st.Epochs >= 500 {
		t.Errorf("epochs = %d, expected early termination", st.Epochs)
	}
}

func TestBeatsLinearBaselineOnWorkloadCorpus(t *testing.T) {
	ds := mltest.Corpus(400, 6, nil)
	train, val, test := ds.Split(0.7, 0.15, 1)
	m := New()
	if _, err := m.Train(train, val, ml.TrainOptions{MaxEpochs: 120, Patience: 12, LearningRate: 2e-3}); err != nil {
		t.Fatal(err)
	}
	q := stats.NewSampleFrom(ml.QErrors(m, test)).Median()
	if q > 2.5 {
		t.Errorf("median q-error %v on workload corpus", q)
	}
}

func TestEmptyTrainingSetFails(t *testing.T) {
	if _, err := New().Train(&ml.Dataset{}, &ml.Dataset{}, ml.TrainOptions{}); err == nil {
		t.Error("training on empty set should fail")
	}
}

func TestUntrainedPredictIsFinite(t *testing.T) {
	p := New().Predict(ml.Example{Flat: []float64{1}})
	if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
		t.Errorf("untrained Predict = %v", p)
	}
}

func TestBestWeightsRestoredAfterEarlyStop(t *testing.T) {
	// After training, the reported FinalValLoss must match the restored
	// weights' validation loss (best snapshot, not last epoch's).
	ds := mltest.Corpus(150, 8, nil)
	train, val, _ := ds.Split(0.7, 0.3, 1)
	m := New()
	st, err := m.Train(train, val, ml.TrainOptions{MaxEpochs: 60, Patience: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := ml.ValLoss(m, val)
	if math.Abs(got-st.FinalValLoss) > 1e-9 {
		t.Errorf("restored val loss %v != reported best %v", got, st.FinalValLoss)
	}
}

// TestTrainingPassesDoNotAllocate: backprop and the validation forward
// pass run in the training workspace and allocate nothing.
func TestTrainingPassesDoNotAllocate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ds := mltest.Corpus(20, 5, nil)
	m := New()
	if _, err := m.Train(ds, ds, ml.TrainOptions{MaxEpochs: 1}); err != nil {
		t.Fatal(err)
	}
	ws := m.newWorkspace()
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		m.backprop(ws, ds.Examples[i%ds.Len()])
		i++
	}); n != 0 {
		t.Errorf("backprop: %v allocs per example, want 0", n)
	}
	predict := func(e ml.Example) float64 { return math.Exp(m.forward(ws, e.Flat)) }
	if n := testing.AllocsPerRun(10, func() { ml.ValLossFunc(ds, predict) }); n != 0 {
		t.Errorf("validation pass: %v allocs, want 0", n)
	}
}
