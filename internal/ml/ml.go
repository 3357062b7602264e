// Package ml defines the common contract of PDSP-Bench's learned cost
// models: a labeled dataset of (encoded PQP, measured latency) examples,
// a Model interface with uniform training options (so the ML Manager can
// compare architectures "fairly" on identical corpora, splits and early
// stopping, per the paper's C3), and per-model training statistics.
package ml

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pdspbench/internal/ml/feature"
)

// Example is one labeled workload: both encodings of the same plan plus
// its measured median end-to-end latency in seconds.
type Example struct {
	Flat    []float64
	Graph   *feature.Graph
	Latency float64
	// Structure tags the synthetic query structure (or application code)
	// for per-structure q-error reporting (Figure 5's x-axis).
	Structure string
}

// LogLabel is the regression target: log(latency). Costs span orders of
// magnitude, and the q-error metric is multiplicative, so all models
// regress in log space.
func (e Example) LogLabel() float64 {
	l := e.Latency
	if l < 1e-9 {
		l = 1e-9
	}
	return math.Log(l)
}

// Dataset is an ordered example collection.
type Dataset struct {
	Examples []Example
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// Split shuffles with the seed and cuts into train/validation/test
// portions. Fractions must sum to at most 1; the remainder joins test.
func (d *Dataset) Split(trainFrac, valFrac float64, seed int64) (train, val, test *Dataset) {
	idx := rand.New(rand.NewSource(seed)).Perm(len(d.Examples))
	nTrain := int(trainFrac * float64(len(idx)))
	nVal := int(valFrac * float64(len(idx)))
	pick := func(ids []int) *Dataset {
		out := &Dataset{Examples: make([]Example, 0, len(ids))}
		for _, i := range ids {
			out.Examples = append(out.Examples, d.Examples[i])
		}
		return out
	}
	return pick(idx[:nTrain]), pick(idx[nTrain : nTrain+nVal]), pick(idx[nTrain+nVal:])
}

// Subset returns the first n examples (callers shuffle via Split first);
// n beyond the dataset length is clamped.
func (d *Dataset) Subset(n int) *Dataset {
	if n > len(d.Examples) {
		n = len(d.Examples)
	}
	return &Dataset{Examples: d.Examples[:n]}
}

// TrainOptions are applied uniformly to every model under comparison.
type TrainOptions struct {
	MaxEpochs int
	// Patience is the early-stopping window: training halts when the
	// validation loss has not improved for this many consecutive epochs
	// (the paper: "halting training if it did not improve for N
	// consecutive epochs ... uniformly applied across all models").
	Patience     int
	LearningRate float64
	BatchSize    int
	Seed         int64
}

// Defaults fills unset options.
func (o TrainOptions) Defaults() TrainOptions {
	if o.MaxEpochs <= 0 {
		o.MaxEpochs = 200
	}
	if o.Patience <= 0 {
		o.Patience = 10
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 1e-3
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// TrainStats reports training effort — the paper's training-efficiency
// metrics (Exp-3: "training overhead (queries and time)").
type TrainStats struct {
	Epochs       int
	TrainTime    time.Duration
	FinalValLoss float64
	Stopped      string // "early" or "max-epochs"
}

// Model is one learned cost model architecture.
type Model interface {
	Name() string
	// Train fits on train, early-stopping on val.
	Train(train, val *Dataset, opts TrainOptions) (*TrainStats, error)
	// Predict returns the predicted latency in seconds.
	Predict(e Example) float64
}

// DatasetPredictor is implemented by models that predict a whole dataset
// in one call more cheaply than example by example, for instance in one
// reused workspace. PredictAll writes the prediction for ds.Examples[i]
// to out[i], bit-identical to Predict, and is as safe for concurrent use
// as Predict.
type DatasetPredictor interface {
	PredictAll(ds *Dataset, out []float64)
}

// ValLoss computes mean squared error in log space over a dataset — the
// uniform early-stopping criterion.
func ValLoss(m Model, ds *Dataset) float64 { return ValLossFunc(ds, m.Predict) }

// ValLossFunc is ValLoss over any prediction function, such as a
// training loop's forward pass in buffers it already holds.
func ValLossFunc(ds *Dataset, predict func(Example) float64) float64 {
	if ds.Len() == 0 {
		return 0
	}
	var sum float64
	for _, e := range ds.Examples {
		p := predict(e)
		if p < 1e-9 {
			p = 1e-9
		}
		d := math.Log(p) - e.LogLabel()
		sum += d * d
	}
	return sum / float64(ds.Len())
}

// QErrors evaluates a trained model over a dataset, returning per-example
// q-errors q(c, c') = max(c/c', c'/c). A DatasetPredictor predicts the
// dataset in one call.
func QErrors(m Model, ds *Dataset) []float64 {
	out := make([]float64, ds.Len())
	if dp, ok := m.(DatasetPredictor); ok {
		dp.PredictAll(ds, out)
	} else {
		for i, e := range ds.Examples {
			out[i] = m.Predict(e)
		}
	}
	for i, e := range ds.Examples {
		truth, pred := e.Latency, out[i]
		if truth < 1e-9 {
			truth = 1e-9
		}
		if pred < 1e-9 {
			pred = 1e-9
		}
		if truth > pred {
			out[i] = truth / pred
		} else {
			out[i] = pred / truth
		}
	}
	return out
}

// CheckDataset validates that examples carry the encodings a model
// family needs.
func CheckDataset(ds *Dataset, needFlat, needGraph bool) error {
	for i, e := range ds.Examples {
		if needFlat && len(e.Flat) == 0 {
			return fmt.Errorf("ml: example %d missing flat encoding", i)
		}
		if needGraph && e.Graph == nil {
			return fmt.Errorf("ml: example %d missing graph encoding", i)
		}
	}
	return nil
}
