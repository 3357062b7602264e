// Package gnn implements the graph-neural-network cost model of the
// paper's Exp-3 [after ZeroTune/COSTREAM]: the PQP is encoded as a DAG
// whose nodes are operators and whose edges are dataflow relationships;
// GraphSAGE-style message-passing layers (mean aggregation over upstream
// neighbours) produce node embeddings that are read out with
// jumping-knowledge pooling: every layer's embeddings (not just the
// last) are pooled by mean, max and sum, so deep plans whose dataflow
// paths exceed the receptive field still contribute bottleneck (max)
// and total-work (sum) signals, and an MLP head regresses log latency. The graph representation lets
// it "capture and utilize the intricate dependencies within the query
// structures", the property the paper credits for the GNN's consistently
// lowest q-error (O8).
package gnn

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"pdspbench/internal/ml"
	"pdspbench/internal/ml/feature"
	"pdspbench/internal/ml/mlmath"
)

// sumPoolScale damps the sum pool (≈1/typical plan size).
const sumPoolScale = 0.125

// Model is the message-passing cost model.
type Model struct {
	// Hidden is the embedding width; zero selects 32.
	Hidden int
	// Layers is the number of message-passing rounds; zero selects 2.
	Layers int

	emb   *mlmath.Dense
	self  []*mlmath.Dense
	nb    []*mlmath.Dense
	head1 *mlmath.Dense
	head2 *mlmath.Dense
	// all lists every layer in snapshot order: emb, self..., nb...,
	// head1, head2.
	all []*mlmath.Dense
}

// New returns an untrained model with default architecture.
func New() *Model { return &Model{} }

// Name implements ml.Model.
func (m *Model) Name() string { return "GNN" }

func (m *Model) init(rng *rand.Rand) {
	h := m.Hidden
	if h <= 0 {
		h = 32
		m.Hidden = h
	}
	if m.Layers <= 0 {
		m.Layers = 2
	}
	m.emb = mlmath.NewDense(feature.NodeDim, h, rng)
	m.self = nil
	m.nb = nil
	for l := 0; l < m.Layers; l++ {
		m.self = append(m.self, mlmath.NewDense(h, h, rng))
		m.nb = append(m.nb, mlmath.NewDense(h, h, rng))
	}
	m.head1 = mlmath.NewDense(3*h*(m.Layers+1), 32, rng)
	m.head2 = mlmath.NewDense(32, 1, rng)
	m.all = append([]*mlmath.Dense{m.emb}, m.self...)
	m.all = append(m.all, m.nb...)
	m.all = append(m.all, m.head1, m.head2)
}

// workspace holds the buffers of one forward and backward pass. Per-node
// vectors are Hidden-wide rows of flat slabs, and per-layer slabs follow
// one another. The node-sized slabs only grow, so once a workspace has
// seen the largest graph a pass allocates nothing. Train owns one
// workspace; every Predict and PredictAll call makes its own, so
// concurrent predictions share nothing mutable.
type workspace struct {
	n, hd, layers int // graph size, Hidden, Layers

	pre0 []float64 // n×H embedding pre-activations
	h    []float64 // (Layers+1)×n×H activations
	msg  []float64 // Layers×n×H: msg of node i = mean of h over In(i)
	z    []float64 // Layers×n×H pre-activations of layer l+1
	nbz  []float64 // H: one node's neighbour transform
	pool []float64 // per layer mean ‖ max ‖ sum, concatenated
	amax []int     // (Layers+1)×H argmax node per dim, for max-pool backprop
	hid1 []float64 // head hidden pre-activation
	act1 []float64 // and activation
	out  [1]float64

	// Backward buffers.
	dout  [1]float64
	dact1 []float64
	dpool []float64
	dh    []float64 // n×H gradient w.r.t. one layer's node activations
	dPrev []float64 // n×H the same for the layer below
	dIn   []float64 // H gradient w.r.t. one node's layer input
}

func (m *Model) newWorkspace() *workspace {
	h, pool := m.Hidden, m.head1.In
	return &workspace{
		hd:     h,
		layers: m.Layers,
		nbz:    make([]float64, h),
		pool:   make([]float64, pool),
		amax:   make([]int, h*(m.Layers+1)),
		hid1:   make([]float64, m.head1.Out),
		act1:   make([]float64, m.head1.Out),
		dact1:  make([]float64, m.head1.Out),
		dpool:  make([]float64, pool),
		dIn:    make([]float64, h),
	}
}

// grow sizes a slab to n elements, reallocating only when it is too small.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// size fits the node-sized slabs to an n-node graph.
func (ws *workspace) size(n int) {
	ws.n = n
	nh := n * ws.hd
	ws.pre0 = grow(ws.pre0, nh)
	ws.h = grow(ws.h, (ws.layers+1)*nh)
	ws.msg = grow(ws.msg, ws.layers*nh)
	ws.z = grow(ws.z, ws.layers*nh)
	ws.dh = grow(ws.dh, nh)
	ws.dPrev = grow(ws.dPrev, nh)
}

// row is node i's Hidden-wide row of a slab.
func (ws *workspace) row(s []float64, i int) []float64 { return s[i*ws.hd : (i+1)*ws.hd] }

// layer is layer l's n×Hidden part of a per-layer slab.
func (ws *workspace) layer(s []float64, l int) []float64 {
	w := ws.n * ws.hd
	return s[l*w : (l+1)*w]
}

// forward runs the network on one graph, leaving every intermediate in
// ws for backprop, and returns the predicted log latency.
func (m *Model) forward(ws *workspace, g *feature.Graph) float64 {
	n, hd := len(g.Nodes), m.Hidden
	ws.size(n)
	h0 := ws.layer(ws.h, 0)
	for i, x := range g.Nodes {
		pre := ws.row(ws.pre0, i)
		m.emb.ForwardInto(pre, x)
		mlmath.ReLUInto(ws.row(h0, i), pre)
	}
	for l := 0; l < m.Layers; l++ {
		prev, next := ws.layer(ws.h, l), ws.layer(ws.h, l+1)
		msgs, zs := ws.layer(ws.msg, l), ws.layer(ws.z, l)
		for i := 0; i < n; i++ {
			msg := ws.row(msgs, i)
			clear(msg)
			for _, j := range g.In[i] {
				mlmath.Add(msg, ws.row(prev, j))
			}
			if k := len(g.In[i]); k > 0 {
				mlmath.Scale(msg, 1/float64(k))
			}
			z := ws.row(zs, i)
			m.self[l].ForwardInto(z, ws.row(prev, i))
			m.nb[l].ForwardInto(ws.nbz, msg)
			mlmath.Add(z, ws.nbz)
			mlmath.ReLUInto(ws.row(next, i), z)
		}
	}
	for l := 0; l <= m.Layers; l++ {
		layer := ws.layer(ws.h, l)
		pool := ws.pool[3*hd*l : 3*hd*(l+1)]
		mlmath.MeanInto(pool[:hd], layer)
		mlmath.MaxElemInto(pool[hd:2*hd], ws.amax[hd*l:hd*(l+1)], layer)
		// The sum pool carries total-work signal; scale it so deep plans
		// do not blow up the head's input magnitude and destabilize Adam.
		sum := pool[2*hd:]
		clear(sum)
		for i := 0; i < n; i++ {
			mlmath.Add(sum, ws.row(layer, i))
		}
		mlmath.Scale(sum, sumPoolScale)
	}
	m.head1.ForwardInto(ws.hid1, ws.pool)
	mlmath.ReLUInto(ws.act1, ws.hid1)
	m.head2.ForwardInto(ws.out[:], ws.act1)
	return ws.out[0]
}

// backprop accumulates gradients for one example.
func (m *Model) backprop(ws *workspace, e ml.Example) {
	g := e.Graph
	out := m.forward(ws, g)
	n := len(g.Nodes)
	ws.dout[0] = 2 * (out - e.LogLabel())
	m.head2.BackwardInto(ws.dact1, ws.act1, ws.dout[:])
	mlmath.ReLUGradInto(ws.dact1, ws.hid1, ws.dact1)
	m.head1.BackwardInto(ws.dpool, ws.pool, ws.dact1)

	dh := ws.dh
	clear(dh)
	m.poolGrad(ws, m.Layers, dh)

	// Reverse through message-passing layers, folding in each layer's
	// jumping-knowledge pool gradient as we reach it.
	dPrev := ws.dPrev
	for l := m.Layers - 1; l >= 0; l-- {
		prev := ws.layer(ws.h, l)
		zs, msgs := ws.layer(ws.z, l), ws.layer(ws.msg, l)
		clear(dPrev)
		for i := 0; i < n; i++ {
			dz := ws.row(dh, i)
			mlmath.ReLUGradInto(dz, ws.row(zs, i), dz)
			m.self[l].BackwardInto(ws.dIn, ws.row(prev, i), dz)
			mlmath.Add(ws.row(dPrev, i), ws.dIn)
			k := len(g.In[i])
			if k == 0 {
				// The message is zero and reaches no node.
				m.nb[l].BackwardInto(nil, ws.row(msgs, i), dz)
				continue
			}
			m.nb[l].BackwardInto(ws.dIn, ws.row(msgs, i), dz)
			mlmath.Scale(ws.dIn, 1/float64(k))
			for _, j := range g.In[i] {
				mlmath.Add(ws.row(dPrev, j), ws.dIn)
			}
		}
		m.poolGrad(ws, l, dPrev)
		dh, dPrev = dPrev, dh
	}
	for i, x := range g.Nodes {
		dp := ws.row(dh, i)
		mlmath.ReLUGradInto(dp, ws.row(ws.pre0, i), dp)
		m.emb.BackwardInto(nil, x, dp)
	}
}

// poolGrad distributes layer l's slice of the pooled gradient onto that
// layer's node embeddings.
func (m *Model) poolGrad(ws *workspace, l int, dh []float64) {
	n, hd := ws.n, m.Hidden
	off := 3 * hd * l
	amax := ws.amax[hd*l : hd*(l+1)]
	for d := 0; d < hd; d++ {
		gMean := ws.dpool[off+d] / float64(n)
		gSum := ws.dpool[off+2*hd+d] * sumPoolScale
		for i := 0; i < n; i++ {
			dh[i*hd+d] += gMean + gSum
		}
		dh[amax[d]*hd+d] += ws.dpool[off+hd+d]
	}
}

// Train implements ml.Model.
func (m *Model) Train(train, val *ml.Dataset, opts ml.TrainOptions) (*ml.TrainStats, error) {
	if err := ml.CheckDataset(train, false, true); err != nil {
		return nil, err
	}
	if train.Len() == 0 {
		return nil, fmt.Errorf("gnn: empty training set")
	}
	opts = opts.Defaults()
	start := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	m.init(rng)
	ws := m.newWorkspace()
	backprop := func(e ml.Example) { m.backprop(ws, e) }
	predict := func(e ml.Example) float64 { return math.Exp(m.forward(ws, e.Graph)) }
	return ml.Epochs(train, val, opts, rng, m.all, backprop, predict, start), nil
}

// Predict implements ml.Model. It is safe for concurrent use: each call
// runs in a workspace of its own.
func (m *Model) Predict(e ml.Example) float64 {
	if m.emb == nil {
		return 1
	}
	return math.Exp(m.forward(m.newWorkspace(), e.Graph))
}

// PredictAll implements ml.DatasetPredictor: one workspace of its own
// serves the whole dataset.
func (m *Model) PredictAll(ds *ml.Dataset, out []float64) {
	if m.emb == nil {
		for i := range ds.Examples {
			out[i] = 1
		}
		return
	}
	ws := m.newWorkspace()
	for i, e := range ds.Examples {
		out[i] = math.Exp(m.forward(ws, e.Graph))
	}
}

// gnnExport is the persisted form.
type gnnExport struct {
	Hidden int         `json:"hidden"`
	Layers int         `json:"layers"`
	Blocks [][]float64 `json:"blocks"` // snapshot order: emb, self..., nb..., head1, head2
}

// MarshalModel implements ml.Persistable.
func (m *Model) MarshalModel() ([]byte, error) {
	if m.emb == nil {
		return nil, fmt.Errorf("gnn: model not trained")
	}
	return json.Marshal(gnnExport{Hidden: m.Hidden, Layers: m.Layers, Blocks: mlmath.Snapshot(nil, m.all)})
}

// UnmarshalModel implements ml.Persistable.
func (m *Model) UnmarshalModel(data []byte) error {
	var e gnnExport
	if err := json.Unmarshal(data, &e); err != nil {
		return err
	}
	if e.Hidden <= 0 || e.Layers <= 0 {
		return fmt.Errorf("gnn: malformed export (hidden=%d layers=%d)", e.Hidden, e.Layers)
	}
	m.Hidden = e.Hidden
	m.Layers = e.Layers
	m.init(rand.New(rand.NewSource(1)))
	if len(e.Blocks) != len(m.all) {
		return fmt.Errorf("gnn: export has %d blocks, want %d", len(e.Blocks), len(m.all))
	}
	for i, l := range m.all {
		if len(e.Blocks[i]) != l.ParamCount() {
			return fmt.Errorf("gnn: block %d has %d params, want %d", i, len(e.Blocks[i]), l.ParamCount())
		}
	}
	mlmath.Restore(m.all, e.Blocks)
	return nil
}
