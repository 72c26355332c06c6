// Detector artifacts: the whole trained detector — transformer weights,
// tokenizer vocabulary, and approach-specific state — as one versioned,
// checksummed binary file. Train once (anomalyd -train-out), then serve in
// milliseconds (anomalyd -load), so new weights reach a fleet by a rolling
// restart; weights are data, not a boot-time side effect.
//
// Format (all integers little-endian; sections are uint32-length-prefixed
// byte blocks so each layer parses its own payload without over-reading):
//
//	uint32  magic "WFDA"
//	uint32  format version
//	section approach name ("sft" | "icl")
//	section weight precision ("fp32" | "int8")           [v2+]
//	section transformer.Config as JSON (full architecture; no registry needed)
//	section tokenizer vocabulary (tokenizer.Save wire format)
//	section approach metadata as JSON (ICL: LoRA shape + few-shot examples)
//	section model weights (transformer.Model.Save wire format; for int8
//	        artifacts this is the fp32 residue: embeddings, norms, biases,
//	        classification head)
//	section int8 projection weights (transformer.Model.SaveQuantized wire
//	        format)                                      [v2+, int8 only]
//	section cascade gate as JSON (cascade.Params: the ngram count table
//	        and calibrated thresholds; zero-length when the detector was
//	        saved without a gate)                        [v3+]
//	uint32  CRC-32 (IEEE) of every preceding byte
//
// Version 1 artifacts (PR 4, fp32-only: no precision section, no int8
// section) and version 2 artifacts (PR 5, no cascade section) still load;
// version 3 is what this build writes. A wrong magic, an unknown version, or
// a checksum mismatch fails loudly with a descriptive error — old or corrupt
// artifacts never load silently.
package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cascade"
	"repro/internal/nn"
	"repro/internal/prompt"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

const (
	// artifactMagic identifies a detector artifact ("WFDA": workflow
	// detector artifact).
	artifactMagic = uint32(0x57464441)
	// artifactVersion is the artifact format version this build writes.
	// Versions 1 (fp32-only) and 2 (no cascade section) are still read;
	// versions above artifactVersion are rejected at load.
	artifactVersion = uint32(3)
	// artifactMinVersion is the oldest format this build still reads.
	artifactMinVersion = uint32(1)
	// maxSectionBytes bounds one artifact section (the weights of the
	// largest registry model are well under this). A larger declared length
	// means corruption, and catching it avoids a garbage-sized allocation.
	maxSectionBytes = 1 << 28
)

// iclMeta is the approach-specific artifact payload for ICL detectors: how
// to rebuild the model's LoRA structure before loading weights, and the
// few-shot examples whose PromptCache the serving layer rebuilds on first
// use. LoRAScale is stored directly (rather than alpha) so the reconstructed
// adapter scale is bit-identical to the trained one.
type iclMeta struct {
	LoRARank  int              `json:"lora_rank,omitempty"`
	LoRAScale float32          `json:"lora_scale,omitempty"`
	Examples  []prompt.Example `json:"examples"`
}

// loraShape inspects a model for LoRA-wrapped attention projections (the
// Wq/Wv target set ApplyLoRA installs) and returns the adapter shape needed
// to reconstruct an identical parameter layout at load time: rank 0 when the
// model has none.
func loraShape(m *transformer.Model) (rank int, scale float32) {
	for _, b := range m.Blocks {
		if l, ok := b.Attn.Wq.(*nn.LoRALinear); ok {
			return l.Rank, l.Scale
		}
	}
	return 0, 0
}

// applyLoRAShape re-installs rank-r adapters on a freshly built model so its
// parameter order and shapes match a saved LoRA-tuned model, then pins the
// exact trained scale (ApplyLoRA recomputes scale from alpha; assigning the
// stored float32 avoids any round-trip drift).
func applyLoRAShape(m *transformer.Model, rank int, scale float32) {
	m.ApplyLoRA(rank, float64(scale)*float64(rank), 0, tensor.NewRNG(1))
	for _, b := range m.Blocks {
		if l, ok := b.Attn.Wq.(*nn.LoRALinear); ok {
			l.Scale = scale
		}
		if l, ok := b.Attn.Wv.(*nn.LoRALinear); ok {
			l.Scale = scale
		}
	}
}

// saveDetector writes det and an optional calibrated stage-1 gate to w as
// one detector artifact, so a trained cascade ships with the detector it was
// calibrated against (thresholds are meaningless against any other model's
// verdicts). A nil gate writes an empty cascade section. Only detectors
// produced by this package (Train, NewSFTDetector, NewICLDetector,
// loadDetector) can be saved; foreign Detector implementations are rejected.
func saveDetector(w io.Writer, det Detector, gate *cascade.Gate) error {
	d, ok := det.(*localDetector)
	if !ok {
		return fmt.Errorf("core: cannot save detector of type %T (not produced by core.Train or core.LoadDetectorFile)", det)
	}
	approach, model, tok := d.approach, d.model, d.tok
	var meta any = struct{}{}
	if approach == ICL {
		im := iclMeta{Examples: d.examples}
		im.LoRARank, im.LoRAScale = loraShape(model)
		meta = im
	}

	precision := PrecisionFP32
	if model.IsQuantized() {
		precision = PrecisionInt8
	}
	h := crc32.NewIEEE()
	mw := io.MultiWriter(w, h)
	for _, v := range []uint32{artifactMagic, artifactVersion} {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := writeSection(mw, []byte(approach)); err != nil {
		return fmt.Errorf("core: writing approach: %w", err)
	}
	if err := writeSection(mw, []byte(precision)); err != nil {
		return fmt.Errorf("core: writing precision: %w", err)
	}
	cfgJSON, err := json.Marshal(model.Config)
	if err != nil {
		return err
	}
	if err := writeSection(mw, cfgJSON); err != nil {
		return fmt.Errorf("core: writing model config: %w", err)
	}
	var tokBuf bytes.Buffer
	if err := tok.Save(&tokBuf); err != nil {
		return err
	}
	if err := writeSection(mw, tokBuf.Bytes()); err != nil {
		return fmt.Errorf("core: writing tokenizer: %w", err)
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if err := writeSection(mw, metaJSON); err != nil {
		return fmt.Errorf("core: writing metadata: %w", err)
	}
	var wBuf bytes.Buffer
	if err := model.Save(&wBuf); err != nil {
		return err
	}
	if err := writeSection(mw, wBuf.Bytes()); err != nil {
		return fmt.Errorf("core: writing weights: %w", err)
	}
	if precision == PrecisionInt8 {
		var qBuf bytes.Buffer
		if err := model.SaveQuantized(&qBuf); err != nil {
			return err
		}
		if err := writeSection(mw, qBuf.Bytes()); err != nil {
			return fmt.Errorf("core: writing quantized weights: %w", err)
		}
	}
	var gateJSON []byte
	if gate != nil {
		if gateJSON, err = json.Marshal(gate.Params()); err != nil {
			return err
		}
	}
	if err := writeSection(mw, gateJSON); err != nil {
		return fmt.Errorf("core: writing cascade gate: %w", err)
	}
	// The checksum trailer goes to w only: it covers, not includes, itself.
	return binary.Write(w, binary.LittleEndian, h.Sum32())
}

// loadDetector reads a detector artifact written by saveDetector and
// reconstructs a ready-to-serve Detector: model rebuilt from the embedded
// config (including LoRA structure for fine-tuned ICL detectors), weights
// loaded bit-exactly, tokenizer restored, and — for ICL — the few-shot
// PromptCache rebuilt lazily on first batched use. Detection results are
// bitwise identical to the detector that was saved.
//
// The second result is the calibrated stage-1 gate the artifact carries:
// nil for v1/v2 artifacts and v3 artifacts saved without one. A
// present-but-invalid gate section — corrupt, or naming a stage-1 scorer this
// build does not have — fails the whole load.
func loadDetector(r io.Reader) (Detector, *cascade.Gate, error) {
	h := crc32.NewIEEE()
	tr := io.TeeReader(r, h)
	var magic, version uint32
	if err := binary.Read(tr, binary.LittleEndian, &magic); err != nil {
		return nil, nil, fmt.Errorf("core: reading artifact magic: %w", err)
	}
	if magic != artifactMagic {
		return nil, nil, fmt.Errorf("core: not a detector artifact (magic %#x, want %#x)", magic, artifactMagic)
	}
	if err := binary.Read(tr, binary.LittleEndian, &version); err != nil {
		return nil, nil, fmt.Errorf("core: reading artifact version: %w", err)
	}
	if version < artifactMinVersion || version > artifactVersion {
		return nil, nil, fmt.Errorf("core: detector artifact format v%d; this build reads v%d–v%d",
			version, artifactMinVersion, artifactVersion)
	}
	approachBytes, err := readSection(tr, "approach")
	if err != nil {
		return nil, nil, err
	}
	approach := Approach(approachBytes)
	if approach != SFT && approach != ICL {
		return nil, nil, fmt.Errorf("core: artifact has unknown approach %q", approach)
	}
	// v1 predates mixed precision and is implicitly fp32.
	precision := PrecisionFP32
	if version >= 2 {
		precBytes, err := readSection(tr, "precision")
		if err != nil {
			return nil, nil, err
		}
		precision = Precision(precBytes)
		if precision != PrecisionFP32 && precision != PrecisionInt8 {
			return nil, nil, fmt.Errorf("core: artifact has unknown weight precision %q", precision)
		}
	}
	cfgJSON, err := readSection(tr, "model config")
	if err != nil {
		return nil, nil, err
	}
	var cfg transformer.Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, nil, fmt.Errorf("core: decoding model config: %w", err)
	}
	if err := validateArtifactConfig(cfg); err != nil {
		return nil, nil, err
	}
	tokBytes, err := readSection(tr, "tokenizer")
	if err != nil {
		return nil, nil, err
	}
	tok, err := tokenizer.Load(bytes.NewReader(tokBytes))
	if err != nil {
		return nil, nil, err
	}
	if tok.VocabSize() != cfg.VocabSize {
		return nil, nil, fmt.Errorf("core: artifact tokenizer has %d words, model config expects %d", tok.VocabSize(), cfg.VocabSize)
	}
	metaJSON, err := readSection(tr, "metadata")
	if err != nil {
		return nil, nil, err
	}
	weights, err := readSection(tr, "weights")
	if err != nil {
		return nil, nil, err
	}
	var quantized []byte
	if precision == PrecisionInt8 {
		if quantized, err = readSection(tr, "quantized weights"); err != nil {
			return nil, nil, err
		}
	}
	// v3 appends the cascade gate; v1/v2 artifacts simply have none.
	var gateJSON []byte
	if version >= 3 {
		if gateJSON, err = readSection(tr, "cascade gate"); err != nil {
			return nil, nil, err
		}
	}
	sum := h.Sum32()
	var stored uint32
	if err := binary.Read(r, binary.LittleEndian, &stored); err != nil {
		return nil, nil, fmt.Errorf("core: artifact truncated reading checksum: %w", err)
	}
	if stored != sum {
		return nil, nil, fmt.Errorf("core: artifact checksum mismatch (stored %#x, computed %#x): file corrupted?", stored, sum)
	}
	var gate *cascade.Gate
	if len(gateJSON) > 0 {
		if gate, err = decodeGate(gateJSON); err != nil {
			return nil, nil, err
		}
	}

	// Seed is irrelevant: every parameter is overwritten by Load below.
	model := transformer.New(cfg, tensor.NewRNG(1))
	var meta iclMeta
	switch approach {
	case SFT:
		// The SFT detector serves normal/abnormal; a wider head (the
		// anomaly-type task's) would panic on its first batch.
		if k := model.Config.NumClasses; k != 2 {
			return nil, nil, fmt.Errorf("core: SFT artifact has a %d-class head, want 2", k)
		}
	default: // ICL, validated above
		if err := json.Unmarshal(metaJSON, &meta); err != nil {
			return nil, nil, fmt.Errorf("core: decoding ICL metadata: %w", err)
		}
		// Quantized artifacts never carry LoRA structure: QuantizeInt8 merges
		// adapters into the bases before the projections are quantized.
		if meta.LoRARank > 0 && precision == PrecisionFP32 {
			applyLoRAShape(model, meta.LoRARank, meta.LoRAScale)
		}
	}
	// For int8 artifacts the quantized projections install first, so the fp32
	// stream's parameter walk matches the residue the artifact carries.
	if precision == PrecisionInt8 {
		if err := model.LoadQuantized(bytes.NewReader(quantized)); err != nil {
			return nil, nil, err
		}
	}
	if err := model.Load(bytes.NewReader(weights)); err != nil {
		return nil, nil, err
	}
	return newLocalDetector(approach, model, tok, meta.Examples), gate, nil
}

// decodeGate rebuilds the stage-1 gate from a cascade section's JSON.
func decodeGate(b []byte) (*cascade.Gate, error) {
	var gp cascade.Params
	if err := json.Unmarshal(b, &gp); err != nil {
		return nil, fmt.Errorf("core: decoding cascade gate: %w", err)
	}
	g, err := cascade.FromParams(gp)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding cascade gate: %w", err)
	}
	return g, nil
}

// maxConfigDim bounds any single model dimension an artifact may declare.
// The checksum protects against corruption, not construction: a crafted
// artifact with a valid CRC and a huge-but-positive dimension would otherwise
// reach transformer.New and allocate gigabytes before Load ever saw the
// weights. 2^20 is orders of magnitude above any model this repo trains.
const maxConfigDim = 1 << 20

// validateArtifactConfig rejects model configs that transformer.New cannot
// build a sane model from, before any allocation happens: non-positive or
// absurd dimensions, head widths that do not divide the residual stream, and
// embedding tables that could not possibly fit the bounded weights section.
func validateArtifactConfig(cfg transformer.Config) error {
	for _, d := range []struct {
		name string
		v    int
	}{
		{"VocabSize", cfg.VocabSize},
		{"MaxSeqLen", cfg.MaxSeqLen},
		{"DModel", cfg.DModel},
		{"NumHeads", cfg.NumHeads},
		{"NumLayers", cfg.NumLayers},
		{"FFNDim", cfg.FFNDim},
	} {
		if d.v <= 0 || d.v > maxConfigDim {
			return fmt.Errorf("core: artifact model config is implausible: %s=%d (want 1..%d)", d.name, d.v, maxConfigDim)
		}
	}
	// Zero NumClasses is legal (transformer.New defaults it to 2).
	if cfg.NumClasses < 0 || cfg.NumClasses > maxConfigDim {
		return fmt.Errorf("core: artifact model config is implausible: NumClasses=%d", cfg.NumClasses)
	}
	if cfg.DModel%cfg.NumHeads != 0 {
		return fmt.Errorf("core: artifact model config is implausible: DModel=%d not divisible by NumHeads=%d", cfg.DModel, cfg.NumHeads)
	}
	// The token and positional embedding tables alone must fit the weights
	// section cap; anything bigger cannot be a loadable artifact.
	if int64(cfg.VocabSize)*int64(cfg.DModel)*4 > maxSectionBytes ||
		int64(cfg.MaxSeqLen)*int64(cfg.DModel)*4 > maxSectionBytes {
		return fmt.Errorf("core: artifact model config implies weights beyond the %d-byte section bound", maxSectionBytes)
	}
	return nil
}

// SaveDetectorFile writes det and an optional gate (see saveDetector) to
// path atomically: the artifact lands under a temporary name first and is
// renamed into place, so a reader (or a crash) never sees a half-written
// artifact — the property a rolling restart that loads from a shared
// artifact path relies on.
func SaveDetectorFile(path string, det Detector, gate *cascade.Gate) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// CreateTemp's 0600 would break the train-once/serve-many handoff when
	// training and serving run as different users; artifacts are plain data.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := saveDetector(tmp, det, gate); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadDetectorFile reads a detector artifact from path along with the
// calibrated stage-1 gate it carries (see loadDetector).
func LoadDetectorFile(path string) (Detector, *cascade.Gate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	det, gate, err := loadDetector(f)
	if err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return det, gate, err
}

// writeSection writes one uint32-length-prefixed byte block.
func writeSection(w io.Writer, data []byte) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(data))); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// readSection reads one length-prefixed block, rejecting implausible lengths
// and naming the section in truncation errors.
func readSection(r io.Reader, what string) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("core: artifact truncated reading %s length: %w", what, err)
	}
	if n > maxSectionBytes {
		return nil, fmt.Errorf("core: artifact %s section declares %d bytes (corrupt artifact?)", what, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("core: artifact truncated reading %s (%d bytes): %w", what, n, err)
	}
	return buf, nil
}
