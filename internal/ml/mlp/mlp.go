// Package mlp implements the multi-layer-perceptron cost model of the
// paper's Exp-3: a ReLU network over the flat PQP encoding, trained with
// Adam on log-latency MSE, with the uniform early-stopping rule the ML
// Manager applies to every architecture.
package mlp

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"pdspbench/internal/ml"
	"pdspbench/internal/ml/mlmath"
)

// Model is a feed-forward ReLU regressor.
type Model struct {
	// Hidden lists hidden layer widths; nil selects [64, 32].
	Hidden []int

	layers []*mlmath.Dense
}

// New returns an untrained model with default architecture.
func New() *Model { return &Model{} }

// Name implements ml.Model.
func (m *Model) Name() string { return "MLP" }

// Train implements ml.Model.
func (m *Model) Train(train, val *ml.Dataset, opts ml.TrainOptions) (*ml.TrainStats, error) {
	if err := ml.CheckDataset(train, true, false); err != nil {
		return nil, err
	}
	if train.Len() == 0 {
		return nil, fmt.Errorf("mlp: empty training set")
	}
	opts = opts.Defaults()
	start := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))

	hidden := m.Hidden
	if len(hidden) == 0 {
		hidden = []int{64, 32}
	}
	in := len(train.Examples[0].Flat)
	dims := append([]int{in}, hidden...)
	dims = append(dims, 1)
	m.layers = nil
	for i := 0; i+1 < len(dims); i++ {
		m.layers = append(m.layers, mlmath.NewDense(dims[i], dims[i+1], rng))
	}

	ws := m.newWorkspace()
	backprop := func(e ml.Example) { m.backprop(ws, e) }
	predict := func(e ml.Example) float64 { return math.Exp(m.forward(ws, e.Flat)) }
	return ml.Epochs(train, val, opts, rng, m.layers, backprop, predict, start), nil
}

// workspace holds one pass's per-layer buffers: pre[i] is layer i's
// output, act[i] its input (act[0] is the example's own encoding), and
// grad[i] the gradient with respect to pre[i]. Train owns one workspace;
// every Predict and PredictAll call makes its own, so concurrent
// predictions share nothing mutable.
type workspace struct {
	pre, act, grad [][]float64
}

func (m *Model) newWorkspace() *workspace {
	ws := &workspace{act: make([][]float64, len(m.layers))}
	for i, l := range m.layers {
		ws.pre = append(ws.pre, make([]float64, l.Out))
		ws.grad = append(ws.grad, make([]float64, l.Out))
		if i > 0 {
			ws.act[i] = make([]float64, l.In)
		}
	}
	return ws
}

// forward leaves every layer's input and output in ws and returns the
// predicted log latency.
func (m *Model) forward(ws *workspace, x []float64) float64 {
	ws.act[0] = x
	last := len(m.layers) - 1
	for i, l := range m.layers {
		l.ForwardInto(ws.pre[i], ws.act[i])
		if i < last {
			mlmath.ReLUInto(ws.act[i+1], ws.pre[i])
		}
	}
	return ws.pre[last][0]
}

// backprop accumulates gradients for one example (MSE on log latency).
func (m *Model) backprop(ws *workspace, e ml.Example) {
	out := m.forward(ws, e.Flat)
	last := len(m.layers) - 1
	ws.grad[last][0] = 2 * (out - e.LogLabel())
	for i := last; i > 0; i-- {
		m.layers[i].BackwardInto(ws.grad[i-1], ws.act[i], ws.grad[i])
		mlmath.ReLUGradInto(ws.grad[i-1], ws.pre[i-1], ws.grad[i-1])
	}
	// The input encoding needs no gradient.
	m.layers[0].BackwardInto(nil, ws.act[0], ws.grad[0])
}

// Predict implements ml.Model. It is safe for concurrent use: each call
// runs in a workspace of its own.
func (m *Model) Predict(e ml.Example) float64 {
	if m.layers == nil {
		return 1
	}
	return math.Exp(m.forward(m.newWorkspace(), e.Flat))
}

// PredictAll implements ml.DatasetPredictor: one workspace of its own
// serves the whole dataset.
func (m *Model) PredictAll(ds *ml.Dataset, out []float64) {
	if m.layers == nil {
		for i := range ds.Examples {
			out[i] = 1
		}
		return
	}
	ws := m.newWorkspace()
	for i, e := range ds.Examples {
		out[i] = math.Exp(m.forward(ws, e.Flat))
	}
}

// mlpExport is the persisted form: layer dimensions plus the flattened
// weight blocks in snapshot order.
type mlpExport struct {
	Dims   []int       `json:"dims"` // in, hidden..., 1
	Blocks [][]float64 `json:"blocks"`
}

// MarshalModel implements ml.Persistable.
func (m *Model) MarshalModel() ([]byte, error) {
	if m.layers == nil {
		return nil, fmt.Errorf("mlp: model not trained")
	}
	e := mlpExport{Blocks: mlmath.Snapshot(nil, m.layers)}
	e.Dims = append(e.Dims, m.layers[0].In)
	for _, l := range m.layers {
		e.Dims = append(e.Dims, l.Out)
	}
	return json.Marshal(e)
}

// UnmarshalModel implements ml.Persistable.
func (m *Model) UnmarshalModel(data []byte) error {
	var e mlpExport
	if err := json.Unmarshal(data, &e); err != nil {
		return err
	}
	if len(e.Dims) < 2 || len(e.Blocks) != len(e.Dims)-1 {
		return fmt.Errorf("mlp: malformed export (%d dims, %d blocks)", len(e.Dims), len(e.Blocks))
	}
	rng := rand.New(rand.NewSource(1))
	m.layers = nil
	m.Hidden = e.Dims[1 : len(e.Dims)-1]
	for i := 0; i+1 < len(e.Dims); i++ {
		l := mlmath.NewDense(e.Dims[i], e.Dims[i+1], rng)
		if want := l.ParamCount(); len(e.Blocks[i]) != want {
			return fmt.Errorf("mlp: block %d has %d params, want %d", i, len(e.Blocks[i]), want)
		}
		m.layers = append(m.layers, l)
	}
	mlmath.Restore(m.layers, e.Blocks)
	return nil
}
