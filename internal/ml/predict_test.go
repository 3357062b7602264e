package ml_test

import (
	"sync"
	"testing"

	"pdspbench/internal/ml"
	"pdspbench/internal/ml/gnn"
	"pdspbench/internal/ml/mlp"
	"pdspbench/internal/ml/mltest"
	"pdspbench/internal/testutil"
)

// TestConcurrentPredictMatchesSerial: a trained model serves concurrent
// Predict calls (controller.Predictor is a library type) with the same
// results as serial calls. Run under -race it also shows that Predict
// shares no buffer between callers.
func TestConcurrentPredictMatchesSerial(t *testing.T) {
	ds := mltest.Corpus(60, 17, nil)
	train, val, test := ds.Split(0.7, 0.15, 1)
	opts := ml.TrainOptions{MaxEpochs: 3, Patience: 3}
	for _, m := range []ml.Model{mlp.New(), gnn.New()} {
		if _, err := m.Train(train, val, opts); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, test.Len())
		for i, e := range test.Examples {
			want[i] = m.Predict(e)
		}
		const workers = 4
		got := make([][]float64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			got[w] = make([]float64, test.Len())
			wg.Add(1)
			go func(out []float64) {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					for i, e := range test.Examples {
						out[i] = m.Predict(e)
					}
				}
			}(got[w])
		}
		wg.Wait()
		for w := range got {
			for i := range want {
				if got[w][i] != want[i] {
					t.Fatalf("%s: worker %d prediction %d = %v, serial %v", m.Name(), w, i, got[w][i], want[i])
				}
			}
		}
	}
}

// TestQErrorsScoreInConstantAllocations: scoring a dataset allocates the
// result and at most one workspace, whatever the dataset's length, and
// PredictAll gives Predict's bits.
func TestQErrorsScoreInConstantAllocations(t *testing.T) {
	ds := mltest.Corpus(60, 19, nil)
	train, val, test := ds.Split(0.7, 0.15, 1)
	// Four copies of the test split hold the same graphs, so a workspace
	// grows to the same size on both.
	long := &ml.Dataset{}
	for i := 0; i < 4; i++ {
		long.Examples = append(long.Examples, test.Examples...)
	}
	for name, newModel := range factories() {
		m := newModel()
		if _, err := m.Train(train, val, ml.TrainOptions{MaxEpochs: 2, Patience: 2}); err != nil {
			t.Fatal(err)
		}
		qs := ml.QErrors(m, long)
		for i, e := range long.Examples {
			if got := ml.QErrors(m, &ml.Dataset{Examples: []ml.Example{e}})[0]; got != qs[i] {
				t.Fatalf("%s: q-error %d is %v scored alone and %v in the dataset", name, i, got, qs[i])
			}
		}
		if testutil.RaceEnabled {
			continue // the race detector allocates on its own
		}
		short := testing.AllocsPerRun(5, func() { ml.QErrors(m, test) })
		four := testing.AllocsPerRun(5, func() { ml.QErrors(m, long) })
		if four != short {
			t.Errorf("%s: scoring %d examples allocates %v times, %d examples %v times", name, test.Len(), short, long.Len(), four)
		}
	}
}
