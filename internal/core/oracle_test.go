package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cascade"
	"repro/internal/flowbench"
	"repro/internal/icl"
	"repro/internal/logparse"
)

// The share-nothing serving oracle.
//
// Serving skips work in several places — the engine's dedup, the cascade
// gate, last-row decoding, in-batch prefix sharing, the prompt cache's
// cross-chunk suffix tree — and each is pinned bit for bit by a unit test of
// its own layer. The oracle checks them together, end to end: it serves a
// generated stream through Server.DetectContext and compares every line's
// label and score bits with a second detector loaded from the same artifact
// bytes that answers each line alone, on a fresh prompt cache, with no
// dedup and no queue. A line the reference gate (loaded from the same bytes)
// short-circuits is expected to carry the gate's verdict, computed for that
// line alone as well.

// oracleChunks returns n monitor-shaped chunks of feature sentences drawn
// from jobs. Each chunk holds fresh sentences; sentences that share their
// leading fields with another of the chunk, at depths of 4, 7 and 8
// features, enough that the int8 ICL detector's suffix tree fills and
// evicts by the 30th chunk even when the token memo answers every repeated
// token sequence; heads that recur from the two chunks before, so a warm
// suffix tree lends rows; a strict prefix of a sentence; an exact duplicate; a sentence whose
// numerals carry a '+' (another string, the same tokens and gate features);
// and upper-cased feature names, which tokenize alike but fail the gate's
// parser. Two of the upper-cased lines share their first 64 bytes and
// differ later.
func oracleChunks(jobs []flowbench.Job, n int) [][]string {
	const fresh = 8
	splice := func(head, tail flowbench.Job, depth int) string {
		copy(tail.Features[:depth], head.Features[:depth])
		return logparse.Sentence(tail)
	}
	upper := func(s string) string {
		name, rest, _ := strings.Cut(s, " ")
		return strings.ToUpper(name) + " " + rest
	}
	base := func(k, i int) flowbench.Job { return jobs[(k*fresh+i)%len(jobs)] }
	chunks := make([][]string, n)
	for k := range chunks {
		var c []string
		for i := 0; i < fresh; i++ {
			c = append(c, logparse.Sentence(base(k, i)))
		}
		for i := 1; i <= 4; i++ {
			c = append(c, splice(base(k, 0), base(k, i), 4))
		}
		c = append(c, splice(base(k, 1), base(k, 5), 7), splice(base(k, 1), base(k, 6), 7))
		for i := 0; i < fresh; i++ {
			c = append(c, splice(base(k, i), base(k, (i+1)%fresh), 8))
		}
		if k >= 2 {
			c = append(c, splice(base(k-1, 0), base(k, 7), 4), splice(base(k-2, 1), base(k, 2), 7),
				splice(base(k-1, 2), base(k, 3), 8))
		}
		c = append(c,
			logparse.Prefix(base(k, 3), 1+k%8),
			c[k%len(c)],
			strings.ReplaceAll(c[(k+3)%len(c)], " is ", " is +"),
			upper(c[fresh]),
			upper(c[fresh+1]),
		)
		c = append(c, c[len(c)-2])
		chunks[k] = c
	}
	return chunks
}

// oracleCase is one setup the oracle serves: the artifact both copies load
// from, and the reference's answer for every distinct line of the stream.
type oracleCase struct {
	name string
	art  []byte
	want map[string]Result
}

// The reference answers are computed once per test process: -count reruns
// (CI's race job runs the oracle five times) serve the stream again through
// a freshly loaded detector and compare with the same answers.
var (
	oracleOnce  sync.Once
	oracleCases []oracleCase
)

var (
	sftGateOnce sync.Once
	sftGateV    *cascade.Gate
)

// sftGate returns a cascade gate fitted to the shared SFT test detector over
// the Genome seed-9 training split, fitted once per test process.
func sftGate(t *testing.T) *cascade.Gate {
	t.Helper()
	det, _ := detector(t)
	sftGateOnce.Do(func() {
		g, err := FitCascade(det, cascade.Config{}, flowbench.Generate(flowbench.Genome, 9).Train)
		if err != nil {
			panic(err)
		}
		sftGateV = g
	})
	return sftGateV
}

// oracleStream is the generated stream both setups serve.
func oracleStream() [][]string {
	return oracleChunks(flowbench.Generate(flowbench.Genome, 9).Test, 64)
}

// oracleFixture returns the oracle's two setups: the SFT test detector
// behind a cascade gate fitted to it, and the ICL test detector quantized to
// int8.
func oracleFixture(t *testing.T) []oracleCase {
	t.Helper()
	sftDet, _ := detector(t)
	gate := sftGate(t)
	iclDet := iclDetectorForTest(t)
	oracleOnce.Do(func() {
		int8Det, _, err := loadDetector(bytes.NewReader(saveBytes(iclDet, nil)))
		if err != nil {
			panic(err)
		}
		if int8Det, err = QuantizeDetector(int8Det); err != nil {
			panic(err)
		}
		chunks := oracleStream()
		for _, c := range []oracleCase{
			{name: "sft-cascade", art: saveBytes(sftDet, gate)},
			{name: "icl-int8", art: saveBytes(int8Det, nil)},
		} {
			c.want = referenceAnswers(c.art, chunks)
			oracleCases = append(oracleCases, c)
		}
	})
	return oracleCases
}

func saveBytes(det Detector, gate *cascade.Gate) []byte {
	var art bytes.Buffer
	if err := saveDetector(&art, det, gate); err != nil {
		panic(err)
	}
	return art.Bytes()
}

// referenceAnswers loads the reference copy from art and answers every
// distinct line of chunks alone: through its own gate copy first, when the
// artifact has one, and otherwise through a detector built for that line,
// so an ICL reference's prompt cache is fresh.
func referenceAnswers(art []byte, chunks [][]string) map[string]Result {
	ref, gate, err := loadDetector(bytes.NewReader(art))
	if err != nil {
		panic(err)
	}
	alone := func(s string) Result { return ref.DetectBatch([]string{s})[0] }
	if d := ref.(*localDetector); d.approach == ICL {
		alone = func(s string) Result {
			return NewICLDetector(icl.NewDetector(d.model, d.tok), d.examples).DetectBatch([]string{s})[0]
		}
	}
	want := map[string]Result{}
	for _, c := range chunks {
		for _, s := range c {
			if _, ok := want[s]; ok {
				continue
			}
			want[s] = alone(s)
			if gate == nil {
				continue
			}
			if score, parsed := gate.ScoreSentence(s); parsed {
				switch gate.Decide(score) {
				case cascade.ShortNormal:
					want[s] = Result{Label: 0, Score: gate.Prob(score)}
				case cascade.ShortAbnormal:
					want[s] = Result{Label: 1, Score: gate.Prob(score)}
				}
			}
		}
	}
	return want
}

// checkOracle serves chunks through a server over a detector (and gate)
// loaded from c's artifact — first one chunk at a time, so each batch is one
// chunk and the run is deterministic, then every chunk again from four
// goroutines at once, so jobs coalesce and two workers share the detector's
// caches — and compares every line's label and score bits with the
// reference's answer for that line alone.
func checkOracle(t *testing.T, c oracleCase, chunks [][]string) {
	t.Helper()
	det, gate, err := loadDetector(bytes.NewReader(c.art))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("m", det, BatchConfig{MaxBatch: 32, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if gate != nil {
		if err := reg.SetCascade("m", gate); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServerRegistry(reg)
	defer srv.Close()

	check := func(pass string, k int) error {
		got, err := srv.DetectContext(context.Background(), chunks[k])
		if err != nil {
			return fmt.Errorf("%s, chunk %d: %v", pass, k, err)
		}
		for i, s := range chunks[k] {
			w := c.want[s]
			if got[i].Label != w.Label || math.Float64bits(got[i].Score) != math.Float64bits(w.Score) {
				return fmt.Errorf("%s, chunk %d line %d: served %+v, alone %+v: %q", pass, k, i, got[i], w, s)
			}
		}
		return nil
	}
	for k := range chunks {
		if err := check("serial", k); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 4
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g; k < len(chunks); k += goroutines {
				if err := check("concurrent", k); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err, ok := <-errs; ok {
		t.Fatal(err)
	}
}

// TestServingOracle serves a generated stream through Server.DetectContext
// and pins every line's label and score bits to a share-nothing reference
// loaded from the same artifact bytes: the SFT detector behind its cascade
// gate, and the int8 ICL detector, whose prompt cache and suffix tree the
// stream warms over 64 monitor-shaped chunks.
func TestServingOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two detectors")
	}
	chunks := oracleStream()
	for _, c := range oracleFixture(t) {
		t.Run(c.name, func(t *testing.T) { checkOracle(t, c, chunks) })
	}
}
