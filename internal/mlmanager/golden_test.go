package mlmanager

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"pdspbench/internal/ml"
	"pdspbench/internal/ml/mltest"
)

// goldenEvaluations is the FNV-64a digest of every Evaluation field
// except the wall-clock TrainTime, for the four default models on a
// small seeded corpus. Scoring may be restructured, but the q-errors,
// their quantiles and the per-structure medians must keep their bits.
const goldenEvaluations = 0xe55356535eec026d

func TestGoldenEvaluationBits(t *testing.T) {
	mgr := New(ml.TrainOptions{MaxEpochs: 4, Patience: 4, LearningRate: 3e-3, BatchSize: 16, Seed: 1})
	evs, err := mgr.Compare(DefaultModels(), mltest.Corpus(120, 9, nil))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	put := func(x float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x))) }
	for _, ev := range evs {
		h.Write([]byte(ev.Model + "\x00" + ev.Stopped + "\x00"))
		put(ev.MedianQ)
		put(ev.P90Q)
		put(ev.MeanQ)
		put(float64(ev.Epochs))
		put(float64(ev.TestExamples))
		keys := make([]string, 0, len(ev.PerStructure))
		for k := range ev.PerStructure {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h.Write([]byte(k + "\x00"))
			put(ev.PerStructure[k])
		}
	}
	if got := h.Sum64(); got != goldenEvaluations {
		t.Errorf("evaluations hash to %#x, want %#x", got, uint64(goldenEvaluations))
	}
}
