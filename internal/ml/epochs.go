package ml

import (
	"math"
	"math/rand"
	"time"

	"pdspbench/internal/ml/mlmath"
)

// Epochs is the mini-batch training loop the gradient-trained models
// (MLP, GNN) share. Each epoch shuffles the training indexes with rng,
// calls backprop once per example of a mini-batch, then steps every
// layer by the batch size. After each epoch predict scores val; the
// layers' best-validation weights are snapshotted and restored at the
// end, and training stops early after opts.Patience epochs without an
// improvement. opts must already carry its Defaults. The returned
// stats measure TrainTime from start.
func Epochs(train, val *Dataset, opts TrainOptions, rng *rand.Rand, layers []*mlmath.Dense,
	backprop func(Example), predict func(Example) float64, start time.Time) *TrainStats {
	best := math.Inf(1)
	bestW := mlmath.Snapshot(nil, layers)
	sinceBest := 0
	stats := &TrainStats{Stopped: "max-epochs"}
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	for epoch := 1; epoch <= opts.MaxEpochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for b := 0; b < len(idx); b += opts.BatchSize {
			end := b + opts.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for _, i := range idx[b:end] {
				backprop(train.Examples[i])
			}
			for _, l := range layers {
				l.Step(opts.LearningRate, end-b)
			}
		}
		stats.Epochs = epoch
		loss := ValLossFunc(val, predict)
		if loss < best-1e-6 {
			best = loss
			bestW = mlmath.Snapshot(bestW, layers)
			sinceBest = 0
		} else if sinceBest++; sinceBest >= opts.Patience {
			stats.Stopped = "early"
			break
		}
	}
	mlmath.Restore(layers, bestW)
	stats.TrainTime = time.Since(start)
	stats.FinalValLoss = best
	return stats
}
