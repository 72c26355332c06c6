package transformer

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Golden bit patterns for the numerical paths kernel work can drift: batched
// encoder logits, cached-prefix decoder scores, both at fp32 and int8, and
// the parameters after a few training steps (which run the training kernels
// MatMul/TMatMul/MatMulT and the strided backward kernels that inference
// never touches). Values are stored as float32 bit patterns, so the file
// pins every bit, not a tolerance.
//
// The file is asserted on amd64 only: elsewhere the compiler may fuse x*y+z
// into one rounding, which legitimately changes low bits.
//
// `go test ./internal/transformer -run TestGoldenBits -update` re-records it;
// a kernel change that claims to preserve the arithmetic must pass without.

var updateGolden = flag.Bool("update", false, "re-record testdata/golden_bits.json")

const goldenBitsPath = "testdata/golden_bits.json"

type goldenBits struct {
	// ForwardClsBatchWS logits [B, NumClasses], row-major.
	EncoderLogitsFP32 []uint32 `json:"encoder_logits_fp32"`
	EncoderLogitsInt8 []uint32 `json:"encoder_logits_int8"`
	// nextTokenLogits logits [B, VocabSize] over the cached
	// prefix, then ScoreChoiceBatchWithCacheWS probabilities [B, choices].
	DecoderLogitsFP32 []uint32 `json:"decoder_logits_fp32"`
	DecoderLogitsInt8 []uint32 `json:"decoder_logits_int8"`
	DecoderProbsFP32  []uint32 `json:"decoder_probs_fp32"`
	DecoderProbsInt8  []uint32 `json:"decoder_probs_int8"`
	// FNV-64a over every parameter's bits after goldenTrainSteps AdamW steps.
	EncoderTrainFNV string `json:"encoder_train_fnv64"`
	DecoderTrainFNV string `json:"decoder_train_fnv64"`
	// The same hash over training with frozen weights: the decoder 4-bit
	// quantized under LoRA adapters on next-token loss, then the encoder with
	// its backbone frozen. Frozen parameters do not move, so what it pins is
	// the gradient that flows through them to what does.
	FrozenTrainFNV string `json:"frozen_train_fnv64"`
	// The two trained models above, run forward over goldenSeqs: the
	// encoder's classification logits [B, NumClasses], then the decoder's
	// last-position next-token logits [B, VocabSize]. The inference fields
	// run untrained models (γ = 1, β = 0), which hide the order in which
	// LayerNorm applies γ; trained parameters do not.
	TrainedLogitsFP32 []uint32 `json:"trained_logits_fp32"`
	// The hash over training with dropout 0.1 (every registry model's
	// rate): a shared-layer encoder on classification, then a decoder on
	// next-token loss. It pins the order of the dropout draws.
	DropoutTrainFNV string `json:"dropout_train_fnv64"`
}

const (
	goldenPrefixLen  = 40
	goldenTrainSteps = 5
)

// goldenConfig is the fixed 2-layer architecture: the encoder at the
// bert-base-uncased head width (12), the decoder at mistral's (24).
func goldenConfig(causal bool) Config {
	cfg := Config{Name: "golden-enc", VocabSize: 80, MaxSeqLen: 96, DModel: 48, NumHeads: 4, NumLayers: 2, FFNDim: 96, NumClasses: 2}
	if causal {
		cfg.Name, cfg.Causal, cfg.DModel, cfg.FFNDim = "golden-dec", true, 96, 192
	}
	return cfg
}

// goldenModel builds the fixed-seed golden model.
func goldenModel(causal bool) *Model { return New(goldenConfig(causal), tensor.NewRNG(1201)) }

// goldenSeqs are fixed token sequences whose lengths cross the kernels'
// unroll remainders and include the 1-token edge.
func goldenSeqs(vocab int) [][]int {
	rng := tensor.NewRNG(1202)
	var seqs [][]int
	for _, n := range []int{27, 32, 5, 1, 19, 30} {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(vocab)
		}
		seqs = append(seqs, ids)
	}
	return seqs
}

func floatBits(v []float32) []uint32 {
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}

func paramsFNV(params []*nn.Param) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, p := range params {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenTrain runs goldenTrainSteps single-sequence Trainer steps (no clip)
// on m and returns its parameters: classification steps, or with lm
// next-token steps. Every random draw is seeded, so the run is
// deterministic.
func goldenTrain(m *Model, lm bool) []*nn.Param {
	seqs := goldenSeqs(m.Config.VocabSize)
	tr := NewTrainer(m, 1e-3, 0.01, 0, 1)
	for step := 0; step < goldenTrainSteps; step++ {
		ids := seqs[step%len(seqs)]
		if lm {
			// Each position predicts the next token, the last one the first
			// (so the 1-token sequence has a target too).
			tr.LM([][]int{ids}, [][]int{append(slices.Clone(ids[1:]), ids[0])})
		} else {
			tr.Cls([][]int{ids}, []int{step % 2})
		}
	}
	return m.Params()
}

// goldenFrozenTrain hashes both frozen-weight runs of FrozenTrainFNV.
func goldenFrozenTrain() string {
	dec := goldenModel(true)
	dec.Quantize4Bit()
	dec.ApplyLoRA(4, 8, 0.05, tensor.NewRNG(1204))
	enc := goldenModel(false)
	enc.FreezeBackbone()
	return paramsFNV(append(goldenTrain(dec, true), goldenTrain(enc, false)...))
}

// goldenDropoutTrain hashes both dropout runs of DropoutTrainFNV.
func goldenDropoutTrain() string {
	encCfg, decCfg := goldenConfig(false), goldenConfig(true)
	encCfg.ShareLayers, encCfg.Dropout, decCfg.Dropout = true, 0.1, 0.1
	enc, dec := New(encCfg, tensor.NewRNG(1201)), New(decCfg, tensor.NewRNG(1201))
	return paramsFNV(append(goldenTrain(enc, false), goldenTrain(dec, true)...))
}

// trainedLogits runs enc's classification forward and dec's next-token
// forward over seqs, packed in one batch each, for TrainedLogitsFP32. Run
// one sequence at a time, as training runs them, they give the same bits.
func trainedLogits(enc, dec *Model, seqs [][]int) []uint32 {
	out := floatBits(enc.ForwardClsBatchWS(seqs, nil).Data)
	return append(out, floatBits(dec.nextTokenLogits(nil, seqs, nil, nil).Data)...)
}

func computeGoldenBits() goldenBits {
	var g goldenBits
	ws := tensor.NewWorkspace()

	enc := goldenModel(false)
	seqs := goldenSeqs(enc.Config.VocabSize)
	g.EncoderLogitsFP32 = floatBits(enc.ForwardClsBatchWS(seqs, ws).Data)
	enc.QuantizeInt8(0)
	ws.Reset()
	g.EncoderLogitsInt8 = floatBits(enc.ForwardClsBatchWS(seqs, ws).Data)

	dec := goldenModel(true)
	prng := tensor.NewRNG(1203)
	prefix := make([]int, goldenPrefixLen)
	for i := range prefix {
		prefix[i] = prng.Intn(dec.Config.VocabSize)
	}
	choices := []int{3, 17, 29, 41, 58, 77}
	score := func() (logits, probs []uint32) {
		cache := dec.InferKVCache(prefix)
		ws.Reset()
		logits = floatBits(dec.nextTokenLogits(cache, seqs, ws, nil).Data)
		ws.Reset()
		_, ps := dec.ScoreChoiceBatchWithCacheWS(cache, seqs, choices, ws)
		for _, p := range ps {
			probs = append(probs, floatBits(p)...)
		}
		return logits, probs
	}
	g.DecoderLogitsFP32, g.DecoderProbsFP32 = score()
	dec.QuantizeInt8(0)
	g.DecoderLogitsInt8, g.DecoderProbsInt8 = score()

	enc, dec = goldenModel(false), goldenModel(true)
	g.EncoderTrainFNV = paramsFNV(goldenTrain(enc, false))
	g.DecoderTrainFNV = paramsFNV(goldenTrain(dec, false))
	g.FrozenTrainFNV = goldenFrozenTrain()
	g.TrainedLogitsFP32 = trainedLogits(enc, dec, seqs)
	g.DropoutTrainFNV = goldenDropoutTrain()
	return g
}

func TestGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bit patterns are recorded on amd64; the compiler may fuse x*y+z on %s", runtime.GOARCH)
	}
	got := computeGoldenBits()
	if *updateGolden {
		// One field per line: compact enough to diff, small enough to read.
		gv := reflect.ValueOf(got)
		lines := make([]string, gv.NumField())
		for i := range lines {
			val, err := json.Marshal(gv.Field(i).Interface())
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = fmt.Sprintf("%q: %s", gv.Type().Field(i).Tag.Get("json"), val)
		}
		if err := os.WriteFile(goldenBitsPath, []byte("{\n"+strings.Join(lines, ",\n")+"\n}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-recorded %s", goldenBitsPath)
		return
	}
	data, err := os.ReadFile(goldenBitsPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	var want goldenBits
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenBitsPath, err)
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Tag.Get("json")
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s drifted from %s:\n got  %v\n want %v", name, goldenBitsPath, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
}
