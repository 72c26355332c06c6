// Package tokenizer implements the shared vocabulary used by all models in
// this repository. Log-derived sentences are split into whitespace word
// tokens; numeric values are discretized into logarithmic magnitude buckets
// so that models can compare magnitudes (the signal that distinguishes
// normal from anomalous jobs) without an unbounded numeral vocabulary.
//
// Unlike LogBERT/LogGPT-style systems, which bake a log-template vocabulary
// into the model, this tokenizer is built from any corpus, so the same model
// generalizes across the three Flow-Bench workflows — the portability
// property the paper claims over prior log-anomaly work.
package tokenizer

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Special token ids are fixed so models can depend on them.
const (
	PAD  = 0
	UNK  = 1
	CLS  = 2
	SEP  = 3
	MASK = 4
	BOS  = 5
	EOS  = 6
)

var specialTokens = []string{"[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[BOS]", "[EOS]"}

// NumBuckets is the count of logarithmic magnitude buckets for numeric
// tokens. Quarter-decade resolution distinguishes the ≈2× shifts injected by
// the CPU/HDD anomaly templates while keeping the vocabulary small.
const NumBuckets = 48

// bucketsPerDecade controls numeric resolution (4 ⇒ each bucket spans 10^¼ ≈ 1.78×).
const bucketsPerDecade = 4

// Tokenizer maps between text and integer token ids.
type Tokenizer struct {
	idx   map[string]int
	words []string
}

// NumBucket returns the magnitude-bucket index in [0, NumBuckets) for a
// numeric value, or -1 for NaN/Inf (which numToken renders as [UNK]). This is
// the exact discretization the transformer sees for every numeral, exported
// so stage-1 cascade scoring (internal/cascade) can key on the same view of a
// job that stage 2 classifies. Alloc-free.
//
//repro:hotpath
func NumBucket(v float64) int {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	a := math.Abs(v)
	if a < 1 {
		return 0
	}
	b := 1 + int(math.Log10(a)*bucketsPerDecade)
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// numToken returns the magnitude-bucket token for a numeric value.
// Negative values share the bucket of their magnitude with a sign prefix
// handled as a separate "-" token by Tokenize; v here is the absolute value.
func numToken(v float64) string {
	b := NumBucket(v)
	if b < 0 {
		return "[UNK]"
	}
	return numTokens[b]
}

// numTokens[b] is bucket b's token, "<numB>".
var numTokens = func() (t [NumBuckets]string) {
	for b := range t {
		t[b] = "<num" + strconv.Itoa(b) + ">"
	}
	return t
}()

// Tokenize splits text into word tokens: lowercased whitespace-delimited
// words, with trailing punctuation split off and numerals replaced by
// magnitude buckets. Beyond the result slice it allocates nothing for text
// with no upper-case letter: the memo key and the encoder call it on every
// served line.
func Tokenize(text string) []string {
	var out []string
	for f := range strings.FieldsSeq(strings.ToLower(text)) {
		out = appendWordTokens(out, f)
	}
	return out
}

func appendWordTokens(out []string, f string) []string {
	// Split leading/trailing punctuation into standalone tokens.
	for len(f) > 0 && isPunct(f[0]) {
		out = append(out, f[:1])
		f = f[1:]
	}
	end := len(f)
	for end > 0 && isPunct(f[end-1]) {
		end--
	}
	f, trail := f[:end], f[end:]
	if len(f) > 0 {
		if v, ok := parseNumeral(f); ok {
			if v < 0 {
				out = append(out, "-")
				v = -v
			}
			out = append(out, numToken(v))
		} else {
			out = append(out, f)
		}
	}
	for i := range len(trail) {
		out = append(out, trail[i:i+1])
	}
	return out
}

// parseNumeral is strconv.ParseFloat for a lowercased field, without the
// error ParseFloat allocates for a word: a field that begins with an ASCII
// letter parses only as an infinity or a NaN.
func parseNumeral(f string) (float64, bool) {
	if c := f[0]; 'a' <= c && c <= 'z' && f != "inf" && f != "infinity" && f != "nan" {
		return 0, false
	}
	v, err := strconv.ParseFloat(f, 64)
	return v, err == nil
}

func isPunct(b byte) bool {
	switch b {
	case ',', '.', ':', ';', '?', '!', '(', ')', '"', '\'':
		return true
	}
	return false
}

// Build constructs a tokenizer whose vocabulary covers the given corpus plus
// all special and numeric-bucket tokens. Vocabulary order is deterministic:
// specials, numeric buckets, then corpus words sorted lexicographically.
func Build(corpus []string) *Tokenizer {
	seen := make(map[string]bool)
	for _, text := range corpus {
		for _, tok := range Tokenize(text) {
			seen[tok] = true
		}
	}
	var words []string
	words = append(words, specialTokens...)
	for b := 0; b < NumBuckets; b++ {
		words = append(words, fmt.Sprintf("<num%d>", b))
	}
	inVocab := make(map[string]bool, len(words))
	for _, w := range words {
		inVocab[w] = true
	}
	var rest []string
	for w := range seen {
		if !inVocab[w] {
			rest = append(rest, w)
		}
	}
	sort.Strings(rest)
	words = append(words, rest...)
	t := &Tokenizer{idx: make(map[string]int, len(words)), words: words}
	for i, w := range words {
		t.idx[w] = i
	}
	return t
}

// VocabSize returns the number of tokens in the vocabulary.
func (t *Tokenizer) VocabSize() int { return len(t.words) }

// ID returns the id of tok, or UNK if absent.
func (t *Tokenizer) ID(tok string) int {
	if id, ok := t.idx[tok]; ok {
		return id
	}
	return UNK
}

// word returns the surface form of id.
func (t *Tokenizer) word(id int) string {
	if id < 0 || id >= len(t.words) {
		return "[UNK]"
	}
	return t.words[id]
}

// Encode tokenizes text into ids. When wrap is true the sequence is framed
// as [CLS] ... [SEP] (encoder classification convention).
func (t *Tokenizer) Encode(text string, wrap bool) []int {
	toks := Tokenize(text)
	out := make([]int, 0, len(toks)+2)
	if wrap {
		out = append(out, CLS)
	}
	for _, tok := range toks {
		out = append(out, t.ID(tok))
	}
	if wrap {
		out = append(out, SEP)
	}
	return out
}

// Decode renders ids back to a space-joined string, skipping padding.
func (t *Tokenizer) Decode(ids []int) string {
	var sb strings.Builder
	for i, id := range ids {
		if id == PAD {
			continue
		}
		if i > 0 && sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(t.word(id))
	}
	return sb.String()
}

// Serialization: the vocabulary is the tokenizer's entire state, so the wire
// format is a magic header, a format version, and the word list in index
// order. Save and Load round-trip exactly — vocabulary order, special-token
// ids, numeric buckets, and unknown-token behavior are all preserved.
const (
	vocabMagic   = uint32(0x544F4B56) // "TOKV"
	vocabVersion = uint32(1)
	// maxWordBytes bounds a single serialized vocabulary word; anything
	// larger means the stream is not a tokenizer vocabulary.
	maxWordBytes = 1 << 16
	// maxVocabWords bounds the vocabulary size Load will allocate for.
	maxVocabWords = 1 << 24
)

// Save writes the vocabulary to w in a versioned binary format readable by
// Load.
func (t *Tokenizer) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, v := range []uint32{vocabMagic, vocabVersion, uint32(len(t.words))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, word := range t.words {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(word))); err != nil {
			return err
		}
		if _, err := bw.WriteString(word); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a vocabulary written by Save and reconstructs the tokenizer.
// The stream is validated: magic and version are checked, the special tokens
// and numeric buckets must occupy their fixed leading positions (models
// depend on those ids), and duplicate words are rejected.
func Load(r io.Reader) (*Tokenizer, error) {
	br := bufio.NewReader(r)
	var magic, version, count uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("tokenizer: reading vocabulary magic: %w", err)
	}
	if magic != vocabMagic {
		return nil, fmt.Errorf("tokenizer: bad vocabulary magic %#x (want %#x)", magic, vocabMagic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("tokenizer: reading vocabulary version: %w", err)
	}
	if version != vocabVersion {
		return nil, fmt.Errorf("tokenizer: vocabulary format v%d; this build reads v%d", version, vocabVersion)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("tokenizer: reading vocabulary size: %w", err)
	}
	reserved := len(specialTokens) + NumBuckets
	if int(count) < reserved || count > maxVocabWords {
		return nil, fmt.Errorf("tokenizer: vocabulary of %d words is implausible (need at least %d, at most %d)",
			count, reserved, maxVocabWords)
	}
	// Preallocate from the declared count only up to a modest bound: count is
	// attacker-controlled until the words actually arrive, and trusting it
	// outright turns an 8-byte header into a multi-hundred-megabyte
	// allocation. Real vocabularies grow past the bound via append.
	prealloc := int(count)
	if prealloc > 4096 {
		prealloc = 4096
	}
	words := make([]string, 0, prealloc)
	idx := make(map[string]int, prealloc)
	for i := 0; i < int(count); i++ {
		var wordLen uint32
		if err := binary.Read(br, binary.LittleEndian, &wordLen); err != nil {
			return nil, fmt.Errorf("tokenizer: vocabulary truncated at word %d of %d: %w", i, count, err)
		}
		if wordLen > maxWordBytes {
			return nil, fmt.Errorf("tokenizer: word %d has length %d (corrupt vocabulary?)", i, wordLen)
		}
		buf := make([]byte, wordLen)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("tokenizer: vocabulary truncated reading word %d of %d: %w", i, count, err)
		}
		word := string(buf)
		if _, dup := idx[word]; dup {
			return nil, fmt.Errorf("tokenizer: duplicate vocabulary word %q at index %d", word, i)
		}
		idx[word] = i
		words = append(words, word)
	}
	for i, want := range specialTokens {
		if words[i] != want {
			return nil, fmt.Errorf("tokenizer: vocabulary index %d is %q, want special token %q", i, words[i], want)
		}
	}
	for b := 0; b < NumBuckets; b++ {
		i := len(specialTokens) + b
		if want := fmt.Sprintf("<num%d>", b); words[i] != want {
			return nil, fmt.Errorf("tokenizer: vocabulary index %d is %q, want numeric bucket %q", i, words[i], want)
		}
	}
	return &Tokenizer{idx: idx, words: words}, nil
}

// UnknownRate reports the fraction of tokens in text that map to UNK —
// useful for verifying that a vocabulary built on one workflow covers
// another (the transfer-learning setting).
func (t *Tokenizer) UnknownRate(text string) float64 {
	toks := Tokenize(text)
	if len(toks) == 0 {
		return 0
	}
	unk := 0
	for _, tok := range toks {
		if t.ID(tok) == UNK {
			unk++
		}
	}
	return float64(unk) / float64(len(toks))
}
