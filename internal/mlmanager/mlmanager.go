// Package mlmanager is PDSP-Bench's ML Manager (Section 2, S3): it
// trains the registered learned cost models on identical corpora with
// identical splits and a uniform early-stopping rule, and reports both
// accuracy (q-error) and training overhead (queries and time) — the
// "fair comparison" the paper argues existing benchmarks lack (C3).
package mlmanager

import (
	"fmt"
	"sort"
	"time"

	"pdspbench/internal/ml"
	"pdspbench/internal/ml/gnn"
	"pdspbench/internal/ml/linreg"
	"pdspbench/internal/ml/mlp"
	"pdspbench/internal/ml/rf"
	"pdspbench/internal/stats"
)

// Factory creates a fresh untrained model.
type Factory struct {
	Name string
	New  func() ml.Model
}

// DefaultModels lists the four architectures of the paper's Exp-3 in
// presentation order: LR, MLP, RF, GNN.
func DefaultModels() []Factory {
	return []Factory{
		{Name: "LR", New: func() ml.Model { return linreg.New() }},
		{Name: "MLP", New: func() ml.Model { return mlp.New() }},
		{Name: "RF", New: func() ml.Model { return rf.New() }},
		{Name: "GNN", New: func() ml.Model { return gnn.New() }},
	}
}

// Evaluation is one model's scorecard.
type Evaluation struct {
	Model        string             `json:"model"`
	MedianQ      float64            `json:"median_q_error"`
	P90Q         float64            `json:"p90_q_error"`
	MeanQ        float64            `json:"mean_q_error"`
	TrainTime    time.Duration      `json:"train_time"`
	Epochs       int                `json:"epochs"`
	Stopped      string             `json:"stopped"`
	PerStructure map[string]float64 `json:"per_structure_median_q"`
	TestExamples int                `json:"test_examples"`
}

// Manager runs fair comparisons.
type Manager struct {
	// Opts is applied unchanged to every model (uniform early stopping).
	Opts ml.TrainOptions
	// SplitSeed fixes the train/val/test shuffle shared by all models.
	SplitSeed int64
}

// New creates a manager with the given uniform training options.
func New(opts ml.TrainOptions) *Manager {
	return &Manager{Opts: opts.Defaults(), SplitSeed: 7}
}

// Compare trains every factory's model on the same 70/15/15 split of the
// corpus and evaluates q-error on the held-out test set.
func (m *Manager) Compare(factories []Factory, corpus *ml.Dataset) ([]*Evaluation, error) {
	if corpus.Len() < 10 {
		return nil, fmt.Errorf("mlmanager: corpus of %d examples is too small to split", corpus.Len())
	}
	train, val, test := corpus.Split(0.7, 0.15, m.SplitSeed)
	var out []*Evaluation
	for _, f := range factories {
		ev, err := m.trainAndScore(f, train, val, test)
		if err != nil {
			return nil, fmt.Errorf("mlmanager: %s: %w", f.Name, err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// trainAndScore fits one model and evaluates it.
func (m *Manager) trainAndScore(f Factory, train, val, test *ml.Dataset) (*Evaluation, error) {
	model := f.New()
	ts, err := model.Train(train, val, m.Opts)
	if err != nil {
		return nil, err
	}
	qs := ml.QErrors(model, test)
	sample := stats.NewSample(len(qs))
	sample.AddAll(qs...)
	ev := &Evaluation{
		Model:        f.Name,
		MedianQ:      sample.Median(),
		P90Q:         sample.Quantile(0.9),
		MeanQ:        sample.Mean(),
		TrainTime:    ts.TrainTime,
		Epochs:       ts.Epochs,
		Stopped:      ts.Stopped,
		PerStructure: perStructureMedian(qs, test),
		TestExamples: test.Len(),
	}
	return ev, nil
}

// perStructureMedian groups test q-errors, qs[i] the q-error of
// test.Examples[i], by query structure — the x-axis of the paper's
// Figure 5.
func perStructureMedian(qs []float64, test *ml.Dataset) map[string]float64 {
	byStruct := map[string]*stats.Sample{}
	for i, e := range test.Examples {
		s, ok := byStruct[e.Structure]
		if !ok {
			s = stats.NewSample(16)
			byStruct[e.Structure] = s
		}
		s.Add(qs[i])
	}
	out := make(map[string]float64, len(byStruct))
	for k, s := range byStruct {
		out[k] = s.Median()
	}
	return out
}

// CurvePoint is one training-set size of a learning curve (Figure 6a)
// with its training overhead (Figure 6b).
type CurvePoint struct {
	TrainQueries  int           `json:"train_queries"`
	SeenMedianQ   float64       `json:"seen_median_q"`
	UnseenMedianQ float64       `json:"unseen_median_q"`
	TrainTime     time.Duration `json:"train_time"`
	Epochs        int           `json:"epochs"`
}

// LearningCurve trains fresh models on growing prefixes of the corpus
// and evaluates on fixed seen-structure and unseen-structure test sets.
// This regenerates Figure 6: comparing the curve of a rule-based corpus
// with a random corpus shows the data-efficiency gap (O9).
func (m *Manager) LearningCurve(f Factory, corpus *ml.Dataset, sizes []int, seenTest, unseenTest *ml.Dataset) ([]*CurvePoint, error) {
	shuffled, val, _ := corpus.Split(0.85, 0.15, m.SplitSeed)
	var out []*CurvePoint
	for _, n := range sizes {
		if n > shuffled.Len() {
			n = shuffled.Len()
		}
		model := f.New()
		ts, err := model.Train(shuffled.Subset(n), val, m.Opts)
		if err != nil {
			return nil, fmt.Errorf("mlmanager: curve at %d queries: %w", n, err)
		}
		out = append(out, &CurvePoint{
			TrainQueries:  n,
			SeenMedianQ:   stats.MedianQError(labels(seenTest), preds(model, seenTest)),
			UnseenMedianQ: stats.MedianQError(labels(unseenTest), preds(model, unseenTest)),
			TrainTime:     ts.TrainTime,
			Epochs:        ts.Epochs,
		})
	}
	return out, nil
}

func labels(ds *ml.Dataset) []float64 {
	out := make([]float64, ds.Len())
	for i, e := range ds.Examples {
		out[i] = e.Latency
	}
	return out
}

func preds(model ml.Model, ds *ml.Dataset) []float64 {
	out := make([]float64, ds.Len())
	for i, e := range ds.Examples {
		out[i] = model.Predict(e)
	}
	return out
}

// FormatEvaluations renders a fixed-width comparison table, most
// accurate first.
func FormatEvaluations(evs []*Evaluation) string {
	sorted := append([]*Evaluation(nil), evs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].MedianQ < sorted[j].MedianQ })
	s := fmt.Sprintf("%-6s %12s %12s %12s %12s %8s\n", "model", "median-q", "p90-q", "mean-q", "train-time", "epochs")
	for _, e := range sorted {
		s += fmt.Sprintf("%-6s %12.3f %12.3f %12.3f %12s %8d\n",
			e.Model, e.MedianQ, e.P90Q, e.MeanQ, e.TrainTime.Round(time.Millisecond), e.Epochs)
	}
	return s
}
