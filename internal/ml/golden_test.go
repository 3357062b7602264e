package ml_test

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pdspbench/internal/ml"
	"pdspbench/internal/ml/gnn"
	"pdspbench/internal/ml/mlp"
	"pdspbench/internal/ml/mltest"
)

// goldenTraining pins the exact bits that training produces. The
// constants were computed with the straightforward kernels (one Dot per
// output row, allocating ReLU/Mean helpers, math.Pow per parameter in
// Adam) before any of them was optimised. The optimised kernels promise
// bit-for-bit the same weights and predictions, so any reordered
// floating-point reduction, fused multiply-add or changed Adam algebra
// changes a hash and fails here.
var goldenTraining = map[string]uint64{
	"MLP": 0x180a44f289a3512c,
	"GNN": 0xc1dd3e45a7b3239c,
}

// trainedBitsHash trains m on a small seeded corpus for a few epochs and
// hashes, with FNV-64a, the Float64bits of every exported parameter (in
// the persisted block order) followed by every prediction on the test
// split.
func trainedBitsHash(t *testing.T, m ml.Persistable) uint64 {
	t.Helper()
	ds := mltest.Corpus(80, 41, nil)
	train, val, test := ds.Split(0.7, 0.15, 1)
	opts := ml.TrainOptions{MaxEpochs: 4, Patience: 4, LearningRate: 3e-3, BatchSize: 8}
	if _, err := m.Train(train, val, opts); err != nil {
		t.Fatal(err)
	}
	data, err := m.MarshalModel()
	if err != nil {
		t.Fatal(err)
	}
	var export struct {
		Blocks [][]float64 `json:"blocks"`
	}
	if err := json.Unmarshal(data, &export); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) {
		b := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, block := range export.Blocks {
		for _, x := range block {
			put(x)
		}
	}
	for _, e := range test.Examples {
		put(m.Predict(e))
	}
	return h.Sum64()
}

func TestGoldenTrainingBits(t *testing.T) {
	for name, m := range map[string]ml.Persistable{"MLP": mlp.New(), "GNN": gnn.New()} {
		got := trainedBitsHash(t, m)
		t.Logf("%s: %#x", name, got)
		if want := goldenTraining[name]; got != want {
			t.Errorf("%s: trained parameters and predictions hash to %#x, want %#x: a kernel changed the floating-point result", name, got, want)
		}
	}
}

// TestStoredExportsLoadBitIdentically loads small models exported, in
// the persisted Blocks format, before parameters moved into one flat
// slab per layer, and checks that they predict exactly what they
// predicted when they were saved.
func TestStoredExportsLoadBitIdentically(t *testing.T) {
	ds := mltest.Corpus(40, 43, nil)
	_, _, test := ds.Split(0.7, 0.15, 1)
	want := map[string][]float64{
		"mlp": {1.1087263660869586, 1.3055536656144486, 1.3475838515684562, 1.0318415076651801, 1.0318415076651801, 1.0318415076651801},
		"gnn": {1.940054804922934, 1.4423657294652747, 1.4901844814695213, 6.039802781041165, 5.671280251617331, 4.214269090130157},
	}
	for name, preds := range want {
		data, err := os.ReadFile(filepath.Join("testdata", name+"_export.json"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := ml.LoadModel(data, factories())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(test.Examples) != len(preds) {
			t.Fatalf("%s: probe set has %d examples, want %d", name, len(test.Examples), len(preds))
		}
		for i, e := range test.Examples {
			if got := m.Predict(e); got != preds[i] {
				t.Errorf("%s: prediction %d = %v, want %v", name, i, got, preds[i])
			}
		}
	}
}
