package sft

import (
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TrainHeadOnly implements the Table II "Linear" strategy the way it is fast
// in practice: the backbone is frozen, every training sentence is encoded
// ONCE to its pooled representation — on the serving forward, fanned out in
// evaluation chunks — and only the classification head is trained on the
// cached features. Epochs after the first cost a single
// [n, d]×[d, classes] matmul instead of n transformer forward passes — this
// is where the paper's 2849s → 314s speedup comes from.
//
// The model's backbone is frozen as a side effect; predictions afterwards go
// through the updated head as usual.
func TrainHeadOnly(c *Classifier, train []Example, cfg TrainConfig) []EpochStats {
	if cfg.Epochs <= 0 {
		panic("sft: non-positive epochs")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	c.Model.FreezeBackbone()
	data := make([]Example, 0, len(train)+len(cfg.Augment))
	data = append(data, train...)
	data = append(data, cfg.Augment...)

	// One-time feature extraction through the frozen backbone.
	d := c.Model.Config.DModel
	feats := tensor.New(len(data), d)
	labels := make([]int, len(data))
	for i, ex := range data {
		labels[i] = ex.Label
	}
	fanOut(len(data), func(lo, hi int, ws *tensor.Workspace) {
		seqs := make([][]int, hi-lo)
		for i, ex := range data[lo:hi] {
			seqs[i] = c.Tok.Encode(ex.Text, true)
		}
		copy(feats.Data[lo*d:hi*d], c.Model.PooledBatchWS(seqs, ws).Data)
	})

	head := c.Model.ClsHead
	opt := nn.NewAdamW(cfg.LR, cfg.WeightDecay)
	ce := nn.NewSoftmaxCrossEntropy()
	rng := tensor.NewRNG(cfg.Seed)
	order := make([]int, len(data))
	for i := range order {
		order[i] = i
	}
	stats := make([]EpochStats, 0, cfg.Epochs)
	tape := nn.NewTape()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		rng.Shuffle(order)
		var total float64
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			xb := tensor.New(hi-lo, d)
			yb := make([]int, hi-lo)
			for k, idx := range order[lo:hi] {
				copy(xb.Row(k), feats.Row(idx))
				yb[k] = labels[idx]
			}
			logits := head.Forward(xb, tape.WS(), tape)
			loss, grad := ce.Loss(logits, yb, nil)
			total += loss * float64(hi-lo)
			head.Backward(tape, grad)
			tape.Reset()
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(head.Params(), cfg.ClipNorm)
			}
			opt.Step(head.Params())
		}
		stats = append(stats, EpochStats{
			Epoch:     epoch,
			TrainLoss: total / float64(max(1, len(data))),
			Duration:  time.Since(start),
		})
	}
	return stats
}
