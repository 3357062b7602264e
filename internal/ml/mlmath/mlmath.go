// Package mlmath provides the small dense-linear-algebra and optimizer
// toolkit shared by the learned cost models (MLP and GNN): vectors,
// dense layers with manual backpropagation, ReLU, and Adam.
//
// Every kernel writes into memory its caller supplies, so a training
// loop that keeps its buffers allocates nothing per example. The
// kernels are bit-for-bit equal to the textbook loops they replace:
// each reduction runs in index order from zero, with no fused
// multiply-add, so a trained model does not depend on which kernel
// trained it.
package mlmath

import (
	"math"
	"math/rand"
)

// Dot returns the inner product; it panics on mismatched lengths (a
// wiring bug, not a data condition).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mlmath: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Add accumulates src into dst element-wise.
func Add(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies the vector in place.
func Scale(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// MeanInto writes the mean of rows, a row-major slab of len(dst)-wide
// rows, into dst; no rows yields zeros.
func MeanInto(dst, rows []float64) {
	clear(dst)
	if len(dst) == 0 || len(rows) == 0 {
		return
	}
	n := len(rows) / len(dst)
	for r := 0; r < n; r++ {
		Add(dst, rows[r*len(dst):(r+1)*len(dst)])
	}
	Scale(dst, 1/float64(n))
}

// MaxElemInto writes the element-wise max of rows, a row-major slab of
// len(dst)-wide rows, into dst, and into arg the index of the first row
// holding each maximum; no rows yields zeros in both.
func MaxElemInto(dst []float64, arg []int, rows []float64) {
	clear(dst)
	clear(arg)
	w := len(dst)
	if w == 0 || len(rows) == 0 {
		return
	}
	arg = arg[:w]
	copy(dst, rows[:w])
	for r := 1; r < len(rows)/w; r++ {
		for i, v := range rows[r*w : (r+1)*w] {
			if v > dst[i] {
				dst[i] = v
				arg[i] = r
			}
		}
	}
}

// ReLUInto writes max(0, x) into dst.
func ReLUInto(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReLUGradInto writes the upstream gradient masked by the activation's
// sign into dst, which may alias grad.
func ReLUGradInto(dst, preact, grad []float64) {
	dst, preact = dst[:len(grad)], preact[:len(grad)]
	for i, g := range grad {
		if preact[i] > 0 {
			dst[i] = g
		} else {
			dst[i] = 0
		}
	}
}

// Dense is a fully connected layer y = W·x + b with gradient buffers.
// Its parameters live in one slab laid out as W row by row, then B (the
// persisted block order); W[o] and B are views into it, and GW and GB
// into the gradient slab of the same layout.
type Dense struct {
	In, Out int
	W       [][]float64 // Out × In
	B       []float64
	GW      [][]float64
	GB      []float64
	params  []float64
	grads   []float64
	opt     *Adam
}

// NewDense initializes with He-scaled weights, appropriate for the ReLU
// networks the cost models use.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	n := out*in + out
	d := &Dense{In: in, Out: out, params: make([]float64, n), grads: make([]float64, n), opt: NewAdam(n)}
	d.W, d.B = views(d.params, in, out)
	d.GW, d.GB = views(d.grads, in, out)
	scale := math.Sqrt(2.0 / float64(in))
	for i := range d.params[:out*in] {
		d.params[i] = rng.NormFloat64() * scale
	}
	return d
}

// views splits a [W | B] slab into row views and the bias.
func views(slab []float64, in, out int) ([][]float64, []float64) {
	rows := make([][]float64, out)
	for o := range rows {
		rows[o] = slab[o*in : (o+1)*in : (o+1)*in]
	}
	return rows, slab[out*in:]
}

// Params is the layer's parameter slab: W row by row, then B.
func (d *Dense) Params() []float64 { return d.params }

// ParamCount reports the number of trainable parameters.
func (d *Dense) ParamCount() int { return len(d.params) }

// ForwardInto writes W·x + b into out. Four output rows are summed at a
// time, each in its own accumulator and in index order, so every out[o]
// equals Dot(W[o], x) + B[o] to the bit.
func (d *Dense) ForwardInto(out, x []float64) {
	if len(x) != d.In {
		panic("mlmath: Dot length mismatch")
	}
	out = out[:d.Out]
	o := 0
	for ; o+4 <= d.Out; o += 4 {
		w0, w1, w2, w3 := d.W[o][:len(x)], d.W[o+1][:len(x)], d.W[o+2][:len(x)], d.W[o+3][:len(x)]
		var s0, s1, s2, s3 float64
		for i, xi := range x {
			s0 += w0[i] * xi
			s1 += w1[i] * xi
			s2 += w2[i] * xi
			s3 += w3[i] * xi
		}
		out[o] = s0 + d.B[o]
		out[o+1] = s1 + d.B[o+1]
		out[o+2] = s2 + d.B[o+2]
		out[o+3] = s3 + d.B[o+3]
	}
	for ; o < d.Out; o++ {
		out[o] = Dot(d.W[o], x) + d.B[o]
	}
}

// BackwardInto accumulates parameter gradients for the pair (x, gradOut)
// and writes the gradient with respect to x into gradIn. A nil gradIn
// skips that product, for a layer whose input needs no gradient.
//
// Rows whose upstream gradient is zero are skipped, and the rest are
// taken four at a time, in order: every gradIn[i] receives the same
// additions in the same order as a row-at-a-time loop would make.
func (d *Dense) BackwardInto(gradIn, x, gradOut []float64) {
	x = x[:d.In]
	if gradIn != nil {
		gradIn = gradIn[:d.In]
		clear(gradIn)
	}
	var rows [4]int
	k := 0
	for o, g := range gradOut[:d.Out] {
		if g == 0 {
			continue
		}
		d.GB[o] += g
		rows[k] = o
		if k++; k < 4 {
			continue
		}
		k = 0
		g0, g1, g2, g3 := gradOut[rows[0]], gradOut[rows[1]], gradOut[rows[2]], gradOut[rows[3]]
		gw0, gw1, gw2, gw3 := d.GW[rows[0]][:len(x)], d.GW[rows[1]][:len(x)], d.GW[rows[2]][:len(x)], d.GW[rows[3]][:len(x)]
		for i, xi := range x {
			gw0[i] += g0 * xi
			gw1[i] += g1 * xi
			gw2[i] += g2 * xi
			gw3[i] += g3 * xi
		}
		if gradIn != nil {
			w0, w1, w2, w3 := d.W[rows[0]][:len(gradIn)], d.W[rows[1]][:len(gradIn)], d.W[rows[2]][:len(gradIn)], d.W[rows[3]][:len(gradIn)]
			for i, gi := range gradIn {
				gi += g0 * w0[i]
				gi += g1 * w1[i]
				gi += g2 * w2[i]
				gi += g3 * w3[i]
				gradIn[i] = gi
			}
		}
	}
	for _, o := range rows[:k] {
		g, gwo := gradOut[o], d.GW[o][:len(x)]
		for i, xi := range x {
			gwo[i] += g * xi
		}
		if gradIn != nil {
			for i, w := range d.W[o][:len(gradIn)] {
				gradIn[i] += g * w
			}
		}
	}
}

// Step applies one Adam update scaled by 1/batch and clears gradients.
func (d *Dense) Step(lr float64, batch int) {
	inv := 1.0
	if batch > 0 {
		inv = 1 / float64(batch)
	}
	d.opt.Step(d.params, d.grads, inv, lr)
}

// Snapshot copies each layer's parameter slab into dst, reusing dst's
// blocks when it already holds one per layer, and returns it.
func Snapshot(dst [][]float64, layers []*Dense) [][]float64 {
	if len(dst) != len(layers) {
		dst = make([][]float64, len(layers))
	}
	for i, l := range layers {
		dst[i] = append(dst[i][:0], l.params...)
	}
	return dst
}

// Restore copies blocks taken by Snapshot back into the layers.
func Restore(layers []*Dense, blocks [][]float64) {
	for i, l := range layers {
		copy(l.params, blocks[i])
	}
}

// Adam is the Adam optimizer state for a flat parameter block.
type Adam struct {
	m, v []float64
	t    int
	b1   float64
	b2   float64
	eps  float64
}

// NewAdam allocates optimizer state for n parameters.
func NewAdam(n int) *Adam {
	return &Adam{m: make([]float64, n), v: make([]float64, n), b1: 0.9, b2: 0.999, eps: 1e-8}
}

// Step advances the timestep and updates every parameter from its
// gradient times scale, then clears the gradients. The bias corrections
// 1 − β₁ᵗ and 1 − β₂ᵗ are computed once per step; each moment is still
// divided by them, as the per-parameter form did.
func (a *Adam) Step(params, grads []float64, scale, lr float64) {
	a.t++
	b1, b2, eps := a.b1, a.b2, a.eps
	// Computed in float64 at run time, like the per-parameter form:
	// the constant expression 1-0.9 would round differently.
	k1, k2 := 1-b1, 1-b2
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	m, v := a.m[:len(grads)], a.v[:len(grads)]
	params = params[:len(grads)]
	for i, g := range grads {
		g *= scale
		m[i] = b1*m[i] + k1*g
		v[i] = b2*v[i] + k2*g*g
		mh := m[i] / c1
		vh := v[i] / c2
		params[i] -= lr * mh / (math.Sqrt(vh) + eps)
		grads[i] = 0
	}
}
