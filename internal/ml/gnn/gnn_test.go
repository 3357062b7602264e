package gnn

import (
	"math"
	"math/rand"
	"testing"

	"pdspbench/internal/ml"
	"pdspbench/internal/ml/feature"
	"pdspbench/internal/ml/mltest"
	"pdspbench/internal/stats"
	"pdspbench/internal/testutil"
	"pdspbench/internal/workload"
)

// TestGradientCheck verifies the full GNN backward pass (pooling,
// message passing, embedding) against central finite differences on a
// real plan graph — the load-bearing correctness test of this package.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := &Model{Hidden: 6, Layers: 2}
	m.init(rng)
	g := feature.EncodeGraph(mltest.Plan(workload.StructTwoWayJoin, 4, 100_000), nil)
	e := ml.Example{Graph: g, Latency: 2.5}

	ws := m.newWorkspace()
	loss := func() float64 {
		d := m.forward(ws, g) - e.LogLabel()
		return d * d
	}
	m.backprop(ws, e)

	const eps = 1e-6
	check := func(name string, w []float64, grad []float64) {
		for i := range w {
			orig := w[i]
			w[i] = orig + eps
			up := loss()
			w[i] = orig - eps
			down := loss()
			w[i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", name, i, grad[i], num)
			}
		}
	}
	layers := m.all
	names := []string{"emb", "self0", "self1", "nb0", "nb1", "head1", "head2"}
	for li, l := range layers {
		for o := range l.W {
			check(names[li]+".W", l.W[o], l.GW[o])
		}
		check(names[li]+".B", l.B, l.GB)
	}
}

func TestLearnsWorkloadCorpus(t *testing.T) {
	ds := mltest.Corpus(300, 12, nil)
	train, val, test := ds.Split(0.7, 0.15, 1)
	m := New()
	st, err := m.Train(train, val, ml.TrainOptions{MaxEpochs: 80, Patience: 10, LearningRate: 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	q := stats.NewSampleFrom(ml.QErrors(m, test)).Median()
	if q > 1.6 {
		t.Errorf("median q-error %v (epochs=%d)", q, st.Epochs)
	}
}

func TestDistinguishesStructures(t *testing.T) {
	// Plans with different join counts must get different predictions
	// after training — the structural signal is the GNN's raison d'être.
	ds := mltest.Corpus(250, 13, nil)
	train, val, _ := ds.Split(0.8, 0.2, 1)
	m := New()
	if _, err := m.Train(train, val, ml.TrainOptions{MaxEpochs: 60, Patience: 8, LearningRate: 3e-3}); err != nil {
		t.Fatal(err)
	}
	linear := ml.Example{Graph: feature.EncodeGraph(mltest.Plan(workload.StructLinear, 8, 100_000), nil)}
	sixJoin := ml.Example{Graph: feature.EncodeGraph(mltest.Plan(workload.StructSixJoin, 8, 100_000), nil)}
	pl, pj := m.Predict(linear), m.Predict(sixJoin)
	if pj <= pl {
		t.Errorf("6-way join predicted %v ≤ linear %v; structure signal lost", pj, pl)
	}
}

func TestEmptyTrainingSetFails(t *testing.T) {
	if _, err := New().Train(&ml.Dataset{}, &ml.Dataset{}, ml.TrainOptions{}); err == nil {
		t.Error("training on empty set should fail")
	}
}

func TestUntrainedPredictIsFinite(t *testing.T) {
	g := feature.EncodeGraph(mltest.Plan(workload.StructLinear, 1, 1000), nil)
	p := New().Predict(ml.Example{Graph: g})
	if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
		t.Errorf("untrained Predict = %v", p)
	}
}

func TestRejectsDatasetWithoutGraphs(t *testing.T) {
	ds := &ml.Dataset{Examples: []ml.Example{{Flat: []float64{1}, Latency: 1}}}
	if _, err := New().Train(ds, ds, ml.TrainOptions{}); err == nil {
		t.Error("GNN accepted dataset without graph encodings")
	}
}

// TestTrainingPassesDoNotAllocate: once a workspace has seen the largest
// graph, backprop and the validation forward pass allocate nothing.
func TestTrainingPassesDoNotAllocate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	m := New()
	m.init(rand.New(rand.NewSource(3)))
	ds := mltest.Corpus(20, 5, nil)
	ws := m.newWorkspace()
	for _, e := range ds.Examples {
		m.backprop(ws, e)
	}
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		m.backprop(ws, ds.Examples[i%ds.Len()])
		i++
	}); n != 0 {
		t.Errorf("backprop: %v allocs per example, want 0", n)
	}
	predict := func(e ml.Example) float64 { return math.Exp(m.forward(ws, e.Graph)) }
	if n := testing.AllocsPerRun(10, func() { ml.ValLossFunc(ds, predict) }); n != 0 {
		t.Errorf("validation pass: %v allocs, want 0", n)
	}
}
