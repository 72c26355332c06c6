// Int8 model quantization: converting a trained model's linear projections to
// the integer inference path, and serializing/restoring the int8 weights.
//
// QuantizeInt8 is the serving-time counterpart of Quantize4Bit: where the
// 4-bit path is storage-only fake-quant (dequantize, then compute in fp32),
// the int8 path swaps every projection for an nn.QuantizedLinear whose
// forward computes in integers end-to-end (tensor.MatMulQ8). LoRA adapters
// are merged into their bases first — the deployment recipe — so a quantized
// model has a uniform layer structure regardless of how it was fine-tuned.
//
// After quantization Params() no longer includes the projection weight
// matrices (only their fp32 biases), so Save/Load carry the residual fp32
// parameters while SaveQuantized/LoadQuantized carry the int8 codes and
// scales through their own section. The two streams together round-trip a
// quantized model exactly.
package transformer

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// QuantInt8Stats reports what QuantizeInt8 did.
type QuantInt8Stats struct {
	// Layers is the number of distinct projections quantized (shared-layer
	// models count each shared projection once).
	Layers int
	// PackedBytes is the resident size of the int8 compute form.
	PackedBytes int
	// CodesBytes is the serialized size (1 byte per weight plus scales).
	CodesBytes int
	// FP32Bytes is the size the same weights occupied in float32.
	FP32Bytes int
}

// quantSlot is one projection position that QuantizeInt8 may rewrite.
type quantSlot struct {
	get func() nn.Layer
	set func(nn.Layer)
}

// quantSlots returns every quantizable projection slot in canonical order —
// per block: Wq, Wk, Wv, Wo, FF1, FF2; then the LM head. The classification
// head is excluded deliberately (see Model.LMHead's comment). Serialization
// and loading both walk this order, so the stream needs no layout table.
func (m *Model) quantSlots() []quantSlot {
	var out []quantSlot
	for _, b := range m.Blocks {
		b := b
		out = append(out,
			quantSlot{func() nn.Layer { return b.Attn.Wq }, func(l nn.Layer) { b.Attn.Wq = l }},
			quantSlot{func() nn.Layer { return b.Attn.Wk }, func(l nn.Layer) { b.Attn.Wk = l }},
			quantSlot{func() nn.Layer { return b.Attn.Wv }, func(l nn.Layer) { b.Attn.Wv = l }},
			quantSlot{func() nn.Layer { return b.Attn.Wo }, func(l nn.Layer) { b.Attn.Wo = l }},
			quantSlot{func() nn.Layer { return b.FF1 }, func(l nn.Layer) { b.FF1 = l }},
			quantSlot{func() nn.Layer { return b.FF2 }, func(l nn.Layer) { b.FF2 = l }},
		)
	}
	out = append(out, quantSlot{func() nn.Layer { return m.LMHead }, func(l nn.Layer) { m.LMHead = l }})
	return out
}

// QuantizeInt8 converts the model to int8 inference form in place: LoRA
// adapters (if any) are merged into their bases, then every attention
// projection, feed-forward layer, and the LM head is replaced by an
// nn.QuantizedLinear with the given scale-block length (≤ 0 selects
// the default 64-code block). Shared-layer (ALBERT) models quantize each
// shared projection once and install the same quantized layer in every block.
//
// The model afterwards serves inference only: a taped forward through the
// quantized projections panics. Quantizing twice panics.
func (m *Model) QuantizeInt8(block int) QuantInt8Stats {
	if m.IsQuantized() {
		panic("transformer: model is already int8-quantized")
	}
	// Merge LoRA into the bases first (deployment order: adapt, merge,
	// quantize). Walking quantSlots keeps this in lockstep with the set of
	// projections quantized below, whichever slots LoRA targets.
	for _, s := range m.quantSlots() {
		if lora, ok := s.get().(*nn.LoRALinear); ok {
			s.set(lora.Merge())
		}
	}
	var stats QuantInt8Stats
	seen := make(map[*nn.Param]*nn.QuantizedLinear)
	for _, s := range m.quantSlots() {
		lin, ok := s.get().(*nn.Linear)
		if !ok {
			panic(fmt.Sprintf("transformer: cannot quantize projection of type %T", s.get()))
		}
		q := seen[lin.Weight]
		if q == nil {
			q = nn.QuantizeLinearInt8(lin, block)
			seen[lin.Weight] = q
			stats.Layers++
			stats.PackedBytes += q.W.MemoryBytes()
			stats.CodesBytes += q.W.CodesBytes()
			stats.FP32Bytes += q.W.Float32Bytes()
		}
		s.set(q)
	}
	return stats
}

// IsQuantized reports whether the model's projections run on the int8 path.
func (m *Model) IsQuantized() bool {
	_, ok := m.LMHead.(*nn.QuantizedLinear)
	return ok
}

// quantizedLinears returns the distinct int8 projections in canonical slot
// order (shared layers once), or nil for an fp32 model.
func (m *Model) quantizedLinears() []*nn.QuantizedLinear {
	var out []*nn.QuantizedLinear
	seen := make(map[*nn.QuantizedLinear]bool)
	for _, s := range m.quantSlots() {
		if q, ok := s.get().(*nn.QuantizedLinear); ok && !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// quantizedMagic identifies the int8 weights wire format ("WFQ8").
const quantizedMagic = uint32(0x57465138)

// SaveQuantized writes the model's int8 projections (codes and scales, in
// canonical slot order) to w. The fp32 residue — embeddings, layer norms,
// biases, classification head — travels through Save as usual; the two
// streams together round-trip a quantized model exactly.
func (m *Model) SaveQuantized(w io.Writer) error {
	qs := m.quantizedLinears()
	if len(qs) == 0 {
		return fmt.Errorf("transformer: SaveQuantized on a model with no int8 layers")
	}
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, quantizedMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(qs))); err != nil {
		return err
	}
	for _, q := range qs {
		name := []byte(q.Name)
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.Write(name); err != nil {
			return err
		}
		for _, v := range []uint32{uint32(q.W.In), uint32(q.W.Out), uint32(q.W.Block)} {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		scaleBuf := make([]byte, 4*len(q.W.Scales))
		for i, s := range q.W.Scales {
			binary.LittleEndian.PutUint32(scaleBuf[4*i:], math.Float32bits(s))
		}
		if _, err := bw.Write(scaleBuf); err != nil {
			return err
		}
		codes := q.W.Codes()
		codeBuf := make([]byte, len(codes))
		for i, c := range codes {
			codeBuf[i] = byte(c)
		}
		if _, err := bw.Write(codeBuf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadQuantized reads a SaveQuantized stream and installs the int8
// projections into the model, which must be a freshly built fp32 model with
// the same architecture (the stream's layer names and shapes are verified
// against the model's canonical slot walk; any mismatch is rejected with an
// error naming the offending layer). Call before Load: afterwards Params()
// matches the residual fp32 parameter stream a quantized checkpoint carries.
func (m *Model) LoadQuantized(r io.Reader) error {
	if m.IsQuantized() {
		return fmt.Errorf("transformer: LoadQuantized on an already-quantized model")
	}
	br := bufio.NewReader(r)
	var magic, count uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("transformer: reading quantized-weights magic: %w", err)
	}
	if magic != quantizedMagic {
		return fmt.Errorf("transformer: bad quantized-weights magic %#x (want %#x)", magic, quantizedMagic)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("transformer: reading quantized layer count: %w", err)
	}
	seen := make(map[*nn.Param]*nn.QuantizedLinear)
	read := 0
	for _, s := range m.quantSlots() {
		lin, ok := s.get().(*nn.Linear)
		if !ok {
			return fmt.Errorf("transformer: quantized load found projection of type %T (LoRA model? merge before quantizing)", s.get())
		}
		if q := seen[lin.Weight]; q != nil {
			s.set(q) // shared-layer slot: reuse the already-loaded projection
			continue
		}
		if read == int(count) {
			return fmt.Errorf("transformer: quantized stream has %d layers, model expects more (architecture mismatch)", count)
		}
		q, err := readQuantizedLayer(br, lin)
		if err != nil {
			return err
		}
		seen[lin.Weight] = q
		s.set(q)
		read++
	}
	if read != int(count) {
		return fmt.Errorf("transformer: quantized stream has %d layers, model consumed %d (architecture mismatch)", count, read)
	}
	return nil
}

// readQuantizedLayer parses one layer entry and verifies it against the slot
// it is about to fill.
func readQuantizedLayer(br *bufio.Reader, lin *nn.Linear) (*nn.QuantizedLinear, error) {
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, fmt.Errorf("transformer: quantized stream truncated at %s: %w", lin.Weight.Name, err)
	}
	if nameLen > maxParamNameBytes {
		return nil, fmt.Errorf("transformer: quantized layer name length %d (corrupt stream?)", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("transformer: quantized stream truncated reading name at %s: %w", lin.Weight.Name, err)
	}
	if string(name) != lin.Weight.Name {
		return nil, fmt.Errorf("transformer: quantized layer is %q, model expects %q (architecture mismatch)", name, lin.Weight.Name)
	}
	var in, out, block uint32
	for _, p := range []*uint32{&in, &out, &block} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("transformer: quantized stream truncated reading shape of %s: %w", lin.Weight.Name, err)
		}
	}
	if int(in) != lin.In() || int(out) != lin.Out() {
		return nil, fmt.Errorf("transformer: quantized layer %s is %dx%d, model expects %dx%d",
			lin.Weight.Name, in, out, lin.In(), lin.Out())
	}
	// A block longer than In is valid (per-channel scales, nb = 1); only a
	// zero or implausibly large block marks corruption.
	if block == 0 || block > 1<<20 {
		return nil, fmt.Errorf("transformer: quantized layer %s has block %d (corrupt stream?)", lin.Weight.Name, block)
	}
	nb := (int(in) + int(block) - 1) / int(block)
	scaleBuf := make([]byte, 4*int(out)*nb)
	if _, err := io.ReadFull(br, scaleBuf); err != nil {
		return nil, fmt.Errorf("transformer: quantized stream truncated reading %s scales: %w", lin.Weight.Name, err)
	}
	scales := make([]float32, int(out)*nb)
	for i := range scales {
		scales[i] = math.Float32frombits(binary.LittleEndian.Uint32(scaleBuf[4*i:]))
	}
	codeBuf := make([]byte, int(in)*int(out))
	if _, err := io.ReadFull(br, codeBuf); err != nil {
		return nil, fmt.Errorf("transformer: quantized stream truncated reading %s codes: %w", lin.Weight.Name, err)
	}
	codes := make([]int8, len(codeBuf))
	for i, b := range codeBuf {
		codes[i] = int8(b)
	}
	qm, err := tensor.NewQInt8FromCodes(int(in), int(out), int(block), codes, scales)
	if err != nil {
		return nil, fmt.Errorf("transformer: quantized layer %s: %w", lin.Weight.Name, err)
	}
	return &nn.QuantizedLinear{Name: lin.Weight.Name, W: qm, Bias: lin.Bias}, nil
}
