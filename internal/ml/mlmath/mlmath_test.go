package mlmath

import (
	"math"
	"math/rand"
	"testing"

	"pdspbench/internal/testutil"
)

func TestDotAddScale(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	v := []float64{1, 2}
	Add(v, []float64{10, 20})
	if v[0] != 11 || v[1] != 22 {
		t.Errorf("Add = %v", v)
	}
	Scale(v, 2)
	if v[0] != 22 || v[1] != 44 {
		t.Errorf("Scale = %v", v)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	d := NewDense(3, 8, rand.New(rand.NewSource(1)))
	for name, call := range map[string]func(){
		"Dot":         func() { Dot([]float64{1}, []float64{1, 2}) },
		"ForwardInto": func() { d.ForwardInto(make([]float64, 8), make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted mismatched lengths", name)
				}
			}()
			call()
		}()
	}
}

func TestMeanAndMaxElem(t *testing.T) {
	rows := []float64{1, 5, 3, 1, 2, 5}
	m := make([]float64, 2)
	MeanInto(m, rows)
	if m[0] != 2 || m[1] != 11.0/3 {
		t.Errorf("MeanInto = %v", m)
	}
	mx, arg := []float64{9, 9}, []int{7, 7}
	MaxElemInto(mx, arg, rows)
	if mx[0] != 3 || mx[1] != 5 || arg[0] != 1 || arg[1] != 0 {
		t.Errorf("MaxElemInto = %v at rows %v, want [3 5] at [1 0] (first row on ties)", mx, arg)
	}
	z := []float64{4, 4, 4}
	MeanInto(z, nil)
	MaxElemInto(mx, arg, nil)
	if z[0] != 0 || z[2] != 0 || mx[0] != 0 || arg[0] != 0 {
		t.Errorf("empty input: mean %v, max %v at %v; want zeros", z, mx, arg)
	}
}

func TestReLUAndGrad(t *testing.T) {
	x := []float64{-1, 0, 2}
	y := []float64{7, 7, 7}
	ReLUInto(y, x)
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Errorf("ReLUInto = %v", y)
	}
	g := []float64{5, 5, 5}
	ReLUGradInto(g, x, g)
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Errorf("ReLUGradInto = %v", g)
	}
}

// TestDenseGradientCheck verifies analytic gradients against central
// finite differences — the load-bearing correctness property for every
// model built on Dense.
func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense(4, 3, rng)
	x := []float64{0.5, -1, 2, 0.3}
	target := []float64{1, -2, 0.5}

	y := make([]float64, 3)
	loss := func() float64 {
		d.ForwardInto(y, x)
		var s float64
		for i := range y {
			diff := y[i] - target[i]
			s += diff * diff
		}
		return s
	}

	// Analytic gradients.
	d.ForwardInto(y, x)
	gradOut := make([]float64, 3)
	for i := range y {
		gradOut[i] = 2 * (y[i] - target[i])
	}
	gradIn := make([]float64, 4)
	d.BackwardInto(gradIn, x, gradOut)

	const eps = 1e-6
	// Check weight gradients.
	for o := 0; o < 3; o++ {
		for i := 0; i < 4; i++ {
			orig := d.W[o][i]
			d.W[o][i] = orig + eps
			up := loss()
			d.W[o][i] = orig - eps
			down := loss()
			d.W[o][i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-d.GW[o][i]) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("dW[%d][%d]: analytic %v vs numeric %v", o, i, d.GW[o][i], num)
			}
		}
	}
	// Check input gradients.
	for i := 0; i < 4; i++ {
		orig := x[i]
		x[i] = orig + eps
		up := loss()
		x[i] = orig - eps
		down := loss()
		x[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-gradIn[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("dx[%d]: analytic %v vs numeric %v", i, gradIn[i], num)
		}
	}
}

func TestDenseStepClearsGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, rng)
	d.BackwardInto(nil, []float64{1, 1}, []float64{1, 1})
	d.Step(0.01, 1)
	for o := range d.GW {
		for i := range d.GW[o] {
			if d.GW[o][i] != 0 {
				t.Fatal("Step did not clear weight gradients")
			}
		}
	}
	for _, g := range d.GB {
		if g != 0 {
			t.Fatal("Step did not clear bias gradients")
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (x-3)² with Adam; must converge near 3.
	a := NewAdam(1)
	x, g := []float64{0}, []float64{0}
	for i := 0; i < 3000; i++ {
		g[0] = 2 * (x[0] - 3)
		a.Step(x, g, 1, 0.05)
	}
	if math.Abs(x[0]-3) > 0.05 {
		t.Errorf("Adam converged to %v, want ≈3", x[0])
	}
}

func TestDenseLearnsLinearMap(t *testing.T) {
	// A single Dense layer trained with Adam must fit y = 2x₀ − x₁ + 1.
	rng := rand.New(rand.NewSource(3))
	d := NewDense(2, 1, rng)
	y := make([]float64, 1)
	for epoch := 0; epoch < 2000; epoch++ {
		x := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		want := 2*x[0] - x[1] + 1
		d.ForwardInto(y, x)
		d.BackwardInto(nil, x, []float64{2 * (y[0] - want)})
		d.Step(0.02, 1)
	}
	d.ForwardInto(y, []float64{1, 1})
	if got := y[0]; math.Abs(got-2) > 0.1 {
		t.Errorf("learned f(1,1) = %v, want 2", got)
	}
	if d.ParamCount() != 3 {
		t.Errorf("ParamCount = %d, want 3", d.ParamCount())
	}
}

// TestBlockedKernelsMatchRowAtATime pins the register-blocked kernels
// to their row-at-a-time definitions, bit for bit, across shapes that
// leave every remainder of the four-row blocking: ForwardInto to one Dot
// per row, BackwardInto to one row at a time with zero-gradient rows
// skipped.
func TestBlockedKernelsMatchRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, out := range []int{1, 3, 4, 5, 33} {
		for _, in := range []int{0, 1, 7, 32} {
			d := NewDense(in, out, rng)
			for i := range d.B {
				d.B[i] = rng.NormFloat64()
			}
			x := make([]float64, in)
			for i := range x {
				x[i] = rng.NormFloat64() * 3
			}
			got := make([]float64, out)
			d.ForwardInto(got, x)
			for o := 0; o < out; o++ {
				if want := Dot(d.W[o], x) + d.B[o]; !same(got[o], want) {
					t.Errorf("forward out=%d in=%d: row %d = %v, want %v", out, in, o, got[o], want)
				}
			}

			gradOut := make([]float64, out)
			for o := range gradOut {
				if rng.Intn(3) > 0 {
					gradOut[o] = rng.NormFloat64()
				}
			}
			wantGW := make([][]float64, out)
			wantGB := append([]float64(nil), d.GB...)
			wantIn := make([]float64, in)
			for o, g := range gradOut {
				wantGW[o] = append([]float64(nil), d.GW[o]...)
				if g == 0 {
					continue
				}
				wantGB[o] += g
				for i := range x {
					wantGW[o][i] += g * x[i]
					wantIn[i] += g * d.W[o][i]
				}
			}
			gradIn := make([]float64, in)
			d.BackwardInto(gradIn, x, gradOut)
			for i := range gradIn {
				if !same(gradIn[i], wantIn[i]) {
					t.Errorf("backward out=%d in=%d: gradIn[%d] = %v, want %v", out, in, i, gradIn[i], wantIn[i])
				}
			}
			for o := range wantGW {
				if !same(d.GB[o], wantGB[o]) {
					t.Errorf("backward out=%d in=%d: GB[%d] = %v, want %v", out, in, o, d.GB[o], wantGB[o])
				}
				for i := range x {
					if !same(d.GW[o][i], wantGW[o][i]) {
						t.Errorf("backward out=%d in=%d: GW[%d][%d] = %v, want %v", out, in, o, i, d.GW[o][i], wantGW[o][i])
					}
				}
			}
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layers := []*Dense{NewDense(3, 5, rng), NewDense(5, 1, rng)}
	snap := Snapshot(nil, layers)
	if len(snap[0]) != 20 || snap[0][15] != layers[0].B[0] || snap[1][5] != layers[1].B[0] {
		t.Fatalf("snapshot blocks are not W row by row, then B: %v", snap)
	}
	want := append([]float64(nil), snap[0]...)
	layers[0].W[1][2] = 42
	again := Snapshot(snap, layers)
	if &again[0][0] != &snap[0][0] || again[0][5] != 42 {
		t.Error("Snapshot did not reuse and refresh the blocks it was given")
	}
	again[0][5] = want[5]
	Restore(layers, again)
	if layers[0].W[1][2] != want[5] {
		t.Errorf("Restore left W[1][2] = %v, want %v", layers[0].W[1][2], want[5])
	}
}

func TestDenseKernelsDoNotAllocate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	d := NewDense(32, 33, rand.New(rand.NewSource(4)))
	x, y, gradIn := make([]float64, 32), make([]float64, 33), make([]float64, 32)
	for i := range x {
		x[i] = float64(i) - 10
	}
	if n := testing.AllocsPerRun(100, func() { d.ForwardInto(y, x) }); n != 0 {
		t.Errorf("ForwardInto: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.BackwardInto(gradIn, x, y) }); n != 0 {
		t.Errorf("BackwardInto: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.Step(1e-3, 4) }); n != 0 {
		t.Errorf("Step: %v allocs per call, want 0", n)
	}
}
