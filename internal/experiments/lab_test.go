package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestLabCheckpointDigest pins the Lab's shared vocabulary and two of its
// pre-trained checkpoints at Tiny scale: an encoder after MLM and a decoder
// after its 4× causal-LM budget. Every paper experiment starts from these.
// amd64 only, as core's artifact digests: elsewhere the compiler may fuse
// x*y+z into one rounding.
func TestLabCheckpointDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the checkpoint digests are recorded on amd64; the compiler may fuse x*y+z on %s", runtime.GOARCH)
	}
	lab := NewLab(Tiny())
	h := sha256.New()
	if err := lab.Tokenizer().Save(h); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "8deefe9a1a2b57ace500e18c13e1ab4a7aec556b6f2a5defa5abe25b24ad9f88"; got != want {
		t.Errorf("Lab vocabulary SHA-256 %s, want %s", got, want)
	}
	for _, c := range []struct{ model, want string }{
		{"bert-base-uncased", "8d706f9c6c80daa8719d271b38d6c825b4c47a6e1c5c2ba72f2e84ee1647ae72"},
		{"mistral", "7f2d45edcd8f0bcdf2dd6472c2b1fb5ae5c656c03d61e3fb970dcf1663062450"},
	} {
		h := sha256.New()
		if err := lab.pretrained(c.model).Save(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("Lab %s checkpoint SHA-256 %s, want %s", c.model, got, c.want)
		}
	}
}
