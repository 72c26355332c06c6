package transformer

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/tensor"
)

// Clone returns a deep copy of the model: fresh parameter storage with
// identical weights. Cloning is how experiments reuse one pre-trained
// checkpoint across many fine-tuning runs without re-pre-training.
//
// Clone requires the model to still have its constructed-time architecture
// (no LoRA wrapping or quantization applied); it panics otherwise, because
// Params() ordering would no longer match a freshly built model.
func (m *Model) Clone() *Model {
	// Rebuild with an arbitrary seed; weights are overwritten below.
	out := New(m.Config, tensor.NewRNG(1))
	src := m.Params()
	dst := out.Params()
	if len(src) != len(dst) {
		panic(fmt.Sprintf("transformer: clone param mismatch %d vs %d (model was structurally modified?)", len(src), len(dst)))
	}
	for i, p := range src {
		if p.W.Rows != dst[i].W.Rows || p.W.Cols != dst[i].W.Cols {
			panic(fmt.Sprintf("transformer: clone shape mismatch at %s", p.Name))
		}
		copy(dst[i].W.Data, p.W.Data)
		dst[i].Frozen = p.Frozen
	}
	return out
}

// checkpointMagic identifies the binary checkpoint format.
const checkpointMagic = uint32(0x57464144) // "WFAD"

// Save writes the model's parameters to w in a compact binary format
// (magic, param count, then per-parameter name/shape/float32 data).
// Architecture configuration is not serialized; Load must be called on a
// model built with the same Config.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	params := m.Params()
	if err := binary.Write(bw, binary.LittleEndian, checkpointMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		name := []byte(p.Name)
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.Write(name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(p.W.Rows)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(p.W.Cols)); err != nil {
			return err
		}
		for _, v := range p.W.Data {
			if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxParamNameBytes bounds a serialized parameter name. Real names are a few
// dozen bytes; a larger length means the stream is corrupt or misaligned, and
// catching it here avoids allocating an attacker- or garbage-sized buffer.
const maxParamNameBytes = 1 << 12

// Load reads parameters written by Save into the model. The model must have
// the same architecture (parameter order, names, and shapes) as the one
// saved; any mismatch — wrong magic, wrong parameter count, a displaced or
// renamed parameter, a shape difference, or a truncated stream — is rejected
// with an error naming the offending field and the expected-vs-got values
// rather than silently mis-reading weights.
func (m *Model) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("transformer: reading checkpoint magic: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("transformer: bad checkpoint magic %#x (want %#x)", magic, checkpointMagic)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("transformer: reading checkpoint param count: %w", err)
	}
	params := m.Params()
	if int(count) != len(params) {
		return fmt.Errorf("transformer: checkpoint has %d params, model has %d (architecture mismatch)", count, len(params))
	}
	for pi, p := range params {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return fmt.Errorf("transformer: checkpoint truncated at param %d (%s): %w", pi, p.Name, err)
		}
		if nameLen > maxParamNameBytes {
			return fmt.Errorf("transformer: checkpoint param %d has name length %d (corrupt checkpoint?)", pi, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return fmt.Errorf("transformer: checkpoint truncated reading name of param %d (%s): %w", pi, p.Name, err)
		}
		if string(name) != p.Name {
			return fmt.Errorf("transformer: checkpoint param %d is %q, model expects %q (architecture mismatch)",
				pi, name, p.Name)
		}
		var rows, cols uint32
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return fmt.Errorf("transformer: checkpoint truncated reading shape of %s: %w", p.Name, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &cols); err != nil {
			return fmt.Errorf("transformer: checkpoint truncated reading shape of %s: %w", p.Name, err)
		}
		if int(rows) != p.W.Rows || int(cols) != p.W.Cols {
			return fmt.Errorf("transformer: checkpoint param %s is %dx%d, model expects %dx%d",
				p.Name, rows, cols, p.W.Rows, p.W.Cols)
		}
		buf := make([]byte, 4*len(p.W.Data))
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("transformer: checkpoint truncated reading %s data (%d floats): %w",
				p.Name, len(p.W.Data), err)
		}
		for i := range p.W.Data {
			p.W.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	return nil
}
