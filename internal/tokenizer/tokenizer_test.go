package tokenizer

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeWordsAndNumbers(t *testing.T) {
	toks := Tokenize("wms_delay is 6.0 queue_delay is 22.0")
	if len(toks) != 6 {
		t.Fatalf("tokens = %v", toks)
	}
	if toks[0] != "wms_delay" || toks[1] != "is" {
		t.Fatalf("tokens = %v", toks)
	}
	if !strings.HasPrefix(toks[2], "<num") {
		t.Fatalf("number not bucketed: %v", toks[2])
	}
}

func TestTokenizePunctuation(t *testing.T) {
	toks := Tokenize("runtime is 5.0, abnormal.")
	want := []string{"runtime", "is", "<num8>", ",", "abnormal", "."}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v, want %v", toks, want)
	}
	for i := range want {
		if i == 2 {
			if !strings.HasPrefix(toks[2], "<num") {
				t.Fatalf("numeral token = %v", toks[2])
			}
			continue
		}
		if toks[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", toks, want)
		}
	}
}

func TestTokenizeNegativeNumber(t *testing.T) {
	toks := Tokenize("delta is -3.5")
	if toks[2] != "-" || !strings.HasPrefix(toks[3], "<num") {
		t.Fatalf("negative tokens = %v", toks)
	}
}

func TestNumTokenMonotone(t *testing.T) {
	// Magnitude buckets must be monotone in |v|.
	prev := -1
	for _, v := range []float64{0, 0.5, 1, 3, 10, 30, 100, 1000, 1e6, 1e12} {
		tok := numToken(v)
		var b int
		if _, err := sscanfBucket(tok, &b); err != nil {
			t.Fatalf("bad bucket token %q", tok)
		}
		if b < prev {
			t.Fatalf("bucket for %v (%d) below previous (%d)", v, b, prev)
		}
		prev = b
	}
}

func sscanfBucket(tok string, b *int) (int, error) {
	var n int
	_, err := fmt.Sscanf(tok, "<num%d>", &n)
	*b = n
	return n, err
}

func TestNumTokenDistinguishesAnomalyScale(t *testing.T) {
	// The CPU anomaly roughly doubles runtimes; the buckets must separate
	// e.g. 970 from 1775 (Fig 13's normal vs abnormal runtime means).
	if numToken(970) == numToken(1775) {
		t.Fatal("bucket resolution too coarse to detect 2x anomalies")
	}
}

func TestNumTokenSpecialValues(t *testing.T) {
	if numToken(math.NaN()) != "[UNK]" {
		t.Fatal("NaN must map to UNK")
	}
	if numToken(math.Inf(1)) != "[UNK]" {
		t.Fatal("Inf must map to UNK")
	}
	if numToken(0) != "<num0>" {
		t.Fatalf("numToken(0) = %v", numToken(0))
	}
	// Huge values clamp to the top bucket rather than overflowing.
	if numToken(1e300) != numToken(1e299) {
		t.Fatal("huge values must clamp to the top bucket")
	}
}

func TestBuildVocabDeterministic(t *testing.T) {
	corpus := []string{"runtime is 5.0", "cpu_time is 2.0 , normal"}
	t1 := Build(corpus)
	t2 := Build([]string{corpus[1], corpus[0]}) // order-insensitive
	if t1.VocabSize() != t2.VocabSize() {
		t.Fatal("vocab size depends on corpus order")
	}
	for i := 0; i < t1.VocabSize(); i++ {
		if t1.word(i) != t2.word(i) {
			t.Fatal("vocab order depends on corpus order")
		}
	}
}

func TestSpecialTokenIDs(t *testing.T) {
	tk := Build([]string{"hello"})
	if tk.ID("[PAD]") != PAD || tk.ID("[CLS]") != CLS || tk.ID("[MASK]") != MASK {
		t.Fatal("special token ids shifted")
	}
}

func TestEncodeWrap(t *testing.T) {
	tk := Build([]string{"runtime is 5.0"})
	ids := tk.Encode("runtime is 5.0", true)
	if ids[0] != CLS || ids[len(ids)-1] != SEP {
		t.Fatalf("wrapped encode = %v", ids)
	}
	plain := tk.Encode("runtime is 5.0", false)
	if len(plain) != len(ids)-2 {
		t.Fatal("unwrapped encode must not add frame tokens")
	}
}

func TestEncodeUnknown(t *testing.T) {
	tk := Build([]string{"runtime"})
	ids := tk.Encode("zzz_unseen", false)
	if len(ids) != 1 || ids[0] != UNK {
		t.Fatalf("unknown word ids = %v", ids)
	}
}

func TestEncodeEmptyString(t *testing.T) {
	tk := Build([]string{"a"})
	ids := tk.Encode("", true)
	// Empty sentence becomes [CLS] [SEP] — the Fig 9 debiasing probe.
	if len(ids) != 2 || ids[0] != CLS || ids[1] != SEP {
		t.Fatalf("empty encode = %v", ids)
	}
}

func TestDecodeRoundTripWords(t *testing.T) {
	tk := Build([]string{"queue_delay is high , abnormal"})
	ids := tk.Encode("queue_delay is high", false)
	got := tk.Decode(ids)
	if got != "queue_delay is high" {
		t.Fatalf("decode = %q", got)
	}
}

func TestDecodeSkipsPadding(t *testing.T) {
	tk := Build([]string{"a b"})
	ids := append(tk.Encode("a b", false), PAD, PAD)
	if got := tk.Decode(ids); got != "a b" {
		t.Fatalf("decode with padding = %q", got)
	}
}

func TestUnknownRate(t *testing.T) {
	tk := Build([]string{"runtime is 5.0"})
	if r := tk.UnknownRate("runtime is 7.0"); r != 0 {
		t.Fatalf("in-vocab unknown rate = %v", r)
	}
	if r := tk.UnknownRate("zebra quagga"); r != 1 {
		t.Fatalf("out-of-vocab unknown rate = %v", r)
	}
	if r := tk.UnknownRate(""); r != 0 {
		t.Fatalf("empty unknown rate = %v", r)
	}
}

// Property: Encode never produces out-of-vocab ids.
func TestEncodeIDsInRangeProperty(t *testing.T) {
	tk := Build([]string{"wms_delay queue_delay runtime is , normal abnormal"})
	f := func(a, b uint8, v float64) bool {
		text := "wms_delay is " + fmtFloat(v) + " , normal"
		for _, id := range tk.Encode(text, true) {
			if id < 0 || id >= tk.VocabSize() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func fmtFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
}

// TestSaveLoadRoundTrip pins the vocabulary wire format: a loaded tokenizer
// must reproduce vocabulary order, special-token ids, numeric buckets, and
// unknown-token behavior exactly.
func TestSaveLoadRoundTrip(t *testing.T) {
	tk := Build([]string{
		"wms_delay is 6.0 queue_delay is 22.0 runtime is 5.0 , normal",
		"stage_in_bytes is 30000000.0 abnormal .",
	})
	var buf bytes.Buffer
	if err := tk.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.VocabSize() != tk.VocabSize() {
		t.Fatalf("vocab size %d, want %d", got.VocabSize(), tk.VocabSize())
	}
	for id := 0; id < tk.VocabSize(); id++ {
		if got.word(id) != tk.word(id) {
			t.Fatalf("word %d = %q, want %q (vocabulary order not preserved)", id, got.word(id), tk.word(id))
		}
	}
	for i, tok := range []string{"[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[BOS]", "[EOS]"} {
		if got.ID(tok) != i {
			t.Fatalf("special %q = id %d, want %d", tok, got.ID(tok), i)
		}
	}
	// Unknown-token behavior: an out-of-vocab word must map to UNK on both.
	if got.ID("zebra") != UNK || tk.ID("zebra") != UNK {
		t.Fatal("out-of-vocab word did not map to UNK")
	}
	// Encode must agree on wrapped and unwrapped forms.
	for _, text := range []string{"wms_delay is 6.0 , normal", "zebra quagga 1e9", ""} {
		for _, wrap := range []bool{false, true} {
			a, b := tk.Encode(text, wrap), got.Encode(text, wrap)
			if len(a) != len(b) {
				t.Fatalf("Encode(%q, %v) lengths differ: %d vs %d", text, wrap, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("Encode(%q, %v)[%d] = %d, want %d", text, wrap, i, b[i], a[i])
				}
			}
		}
	}
}

// TestLoadRejectsCorruptVocabulary exercises the loud-failure paths: bad
// magic, wrong version, truncation, displaced special tokens, duplicates.
func TestLoadRejectsCorruptVocabulary(t *testing.T) {
	tk := Build([]string{"runtime is 5.0"})
	var buf bytes.Buffer
	if err := tk.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := Load(bytes.NewReader([]byte{9, 9, 9, 9, 0, 0, 0, 0})); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic error = %v", err)
	}
	verBumped := append([]byte(nil), good...)
	verBumped[4] = 99
	if _, err := Load(bytes.NewReader(verBumped)); err == nil || !strings.Contains(err.Error(), "v99") {
		t.Fatalf("version error = %v", err)
	}
	if _, err := Load(bytes.NewReader(good[:len(good)-3])); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation error = %v", err)
	}
	if _, err := Load(bytes.NewReader(good[:6])); err == nil {
		t.Fatal("expected error on truncated header")
	}
}
