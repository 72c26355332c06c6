package tokenizer

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzLoad drives the vocabulary reader with arbitrary bytes. Accepted
// vocabularies must round-trip (save, reload, same vocabulary) and must
// tokenize without panicking — the properties core's artifact loader relies on when it
// embeds a vocabulary section inside a model artifact.
func FuzzLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := Build([]string{"alpha beta gamma", "delta 42 epsilon", "GET /v1/detect 200"}).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())/2]) // truncated mid-word
	f.Add([]byte{})
	f.Add([]byte("TOKV"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tok, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tok.Save(&out); err != nil {
			t.Fatalf("loaded vocabulary cannot be re-saved: %v", err)
		}
		tok2, err := Load(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-saved vocabulary does not reload: %v", err)
		}
		if tok2.VocabSize() != tok.VocabSize() {
			t.Fatalf("round trip changed vocabulary size: %d -> %d", tok.VocabSize(), tok2.VocabSize())
		}
		ids := tok.Encode("alpha 42 unseen-token", true)
		if tok.Decode(ids) == "" {
			t.Fatal("loaded vocabulary decodes a wrapped sentence to nothing")
		}
	})
}

// tokenizeReference is Tokenize as it was before it stopped allocating per
// field: strings.Fields, strconv.ParseFloat on every field and
// fmt.Sprintf for the bucket token. FuzzTokenizeMatchesReference holds the
// two to one answer.
func tokenizeReference(text string) []string {
	var out []string
	for _, f := range strings.Fields(strings.ToLower(text)) {
		for len(f) > 0 && isPunct(f[0]) {
			out = append(out, string(f[0]))
			f = f[1:]
		}
		var trail []string
		for len(f) > 0 && isPunct(f[len(f)-1]) {
			trail = append([]string{string(f[len(f)-1])}, trail...)
			f = f[:len(f)-1]
		}
		if len(f) > 0 {
			if v, err := strconv.ParseFloat(f, 64); err == nil {
				if v < 0 {
					out = append(out, "-")
					v = -v
				}
				if b := NumBucket(v); b < 0 {
					out = append(out, "[UNK]")
				} else {
					out = append(out, fmt.Sprintf("<num%d>", b))
				}
			} else {
				out = append(out, f)
			}
		}
		out = append(out, trail...)
	}
	return out
}

// FuzzTokenizeMatchesReference holds Tokenize to tokenizeReference on any
// text.
func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, s := range []string{
		"wms_delay is 6.0 queue_delay is 22.0 runtime is 1234567",
		"WMS_DELAY is 6.0, Queue_Delay is -0.0 (runtime) is +1e3 ...",
		`"quoted" 'single' ?! ;: -5 - -x 1st 0x1P-2 0X1p-2 1_000 0x1_0p0 .5 5.`,
		"inf -Inf +INFINITY nan NaN -nan +nan infx infin in i n <num5> [UNK] is IS",
		"\ttabs\nand\vfeeds\fand\rreturns  ",
		"ünïcode Straße ǅ İnf 6.0 nbsp nel\u0085 K \xff\xfe bad",
		"", " ", ",", "((()))", "1e400 -1e400 1e-400 0.000001",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Tokenize(s), tokenizeReference(s)
		if !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
	})
}
