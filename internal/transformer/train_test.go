package transformer

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// handTrain is Trainer's recipe spelled out, the reference the test below
// holds it to: per sequence a taped forward, cross-entropy, the gradient
// scaled by 1/window and the backward pass; per window of sequences one clip
// (none at clip 0) and one AdamW step. It returns each window's loss sum.
func handTrain(m *Model, seqs, targets [][]int, lm bool, clip float64, window int) []float64 {
	opt, ce, params, tape := nn.NewAdamW(1e-3, 0.01), nn.NewSoftmaxCrossEntropy(), m.Params(), nn.NewTape()
	var sums []float64
	for lo := 0; lo < len(seqs); lo += window {
		var sum float64
		for i := lo; i < min(lo+window, len(seqs)); i++ {
			var logits *tensor.Matrix
			if lm {
				logits = m.forwardLMTape(seqs[i:i+1], tape)
			} else {
				logits = m.forwardClsTape(seqs[i:i+1], tape)
			}
			loss, grad := ce.Loss(logits, targets[i], nil)
			sum += loss
			tensor.Scale(grad, grad, 1/float32(window))
			m.backward(tape, grad)
			tape.Reset()
		}
		if clip > 0 {
			nn.ClipGradNorm(params, clip)
		}
		opt.Step(params)
		sums = append(sums, sum)
	}
	return sums
}

// TestTrainerMatchesHandLoop: Trainer's steps leave the parameters and
// return the losses the hand-written loop does, bit for bit, with dropout
// live — for classification and language-model steps, a window of three
// sequences taken as one AdamW step, a short last window (seven sequences),
// a clip that binds, and clip 0, which must skip clipping (ClipGradNorm to 0
// would zero every gradient).
func TestTrainerMatchesHandLoop(t *testing.T) {
	const window = 3
	for _, lm := range []bool{false, true} {
		trained := map[string]bool{}
		for _, clip := range []float64{0.05, 0} {
			cfg := smallConfig(lm)
			cfg.Dropout = 0.1
			want, got := New(cfg, tensor.NewRNG(31)), New(cfg, tensor.NewRNG(31))
			seqs := batchTestSeqs(7, cfg.VocabSize, cfg.MaxSeqLen, 32)
			targets, labels := make([][]int, len(seqs)), make([]int, len(seqs))
			for i, ids := range seqs {
				labels[i] = i % 2
				targets[i] = []int{labels[i]}
				if lm {
					targets[i] = append(append([]int{}, ids[1:]...), -1)
				}
			}
			sums := handTrain(want, seqs, targets, lm, clip, window)
			tr := NewTrainer(got, 1e-3, 0.01, clip, window)
			for w, lo := 0, 0; lo < len(seqs); w, lo = w+1, lo+window {
				hi := min(lo+window, len(seqs))
				var sum float64
				if lm {
					sum = tr.LM(seqs[lo:hi], targets[lo:hi])
				} else {
					sum = tr.Cls(seqs[lo:hi], labels[lo:hi])
				}
				if math.Float64bits(sum) != math.Float64bits(sums[w]) {
					t.Fatalf("lm=%v clip=%v: window %d loss %v, hand loop %v", lm, clip, w, sum, sums[w])
				}
			}
			for i, p := range got.Params() {
				if !sameBits(p.W.Data, want.Params()[i].W.Data) {
					t.Fatalf("lm=%v clip=%v: %s differs from the hand loop's", lm, clip, p.Name)
				}
			}
			trained[paramsFNV(got.Params())] = true
		}
		if len(trained) != 2 {
			t.Fatalf("lm=%v: the clip never bound, so clip 0 went untested", lm)
		}
	}
}

// TestTrainerWindowBound: a step takes one to window sequences.
func TestTrainerWindowBound(t *testing.T) {
	tr := NewTrainer(New(smallConfig(false), tensor.NewRNG(33)), 1e-3, 0, 1, 2)
	for _, seqs := range [][][]int{nil, {{1}, {2}, {3}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("a step of %d sequences at window 2 did not panic", len(seqs))
				}
			}()
			tr.Cls(seqs, make([]int, len(seqs)))
		}()
	}
}
