package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cascade"
	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// sameResult reports whether two results carry the same label and score
// bits.
func sameResult(a, b Result) bool {
	return a.Label == b.Label && math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// TestMemoKeepsGateRoutes serves "wms_delay is 6.0 …", a line the cascade
// gate short-circuits, and the same line with its feature name upper-cased,
// which tokenizes alike (one memo key) but fails the gate's parser, so it
// reaches the transformer. In one batch and in two, in both orders, each
// line must get what serving without a memo gives it: the gate's verdict
// for the first, the transformer's for the second. A memo in front of the
// gate, or one that kept the gate's verdicts, would answer one line with
// the other's.
func TestMemoKeepsGateRoutes(t *testing.T) {
	det, _ := detector(t)
	gate := sftGate(t)
	var gated string
	var want Result
	for _, j := range flowbench.Generate(flowbench.Genome, 9).Test {
		j.Features[flowbench.FWMSDelay] = 6
		s := logparse.Sentence(j)
		score, parsed := gate.ScoreSentence(s)
		if !parsed {
			t.Fatalf("the gate cannot parse %q", s)
		}
		if d := gate.Decide(score); d != cascade.PassThrough {
			gated = s
			want = Result{Label: map[cascade.Decision]int{cascade.ShortNormal: 0, cascade.ShortAbnormal: 1}[d], Score: gate.Prob(score)}
			break
		}
	}
	if gated == "" {
		t.Fatal("the gate short-circuits no Genome test job with wms_delay 6.0")
	}
	upper := strings.Replace(gated, "wms_delay", "WMS_DELAY", 1)
	if !strings.HasPrefix(gated, "wms_delay is 6.0 ") || memoKey(upper) != memoKey(gated) {
		t.Fatalf("%q and %q do not tokenize alike", gated, upper)
	}
	if _, parsed := gate.ScoreSentence(upper); parsed {
		t.Fatalf("the gate parses %q", upper)
	}
	wantUpper := det.DetectBatch([]string{upper})[0]
	if sameResult(want, wantUpper) {
		t.Fatal("the gate and the transformer give the same bits; the test would pass with the memo in front of the gate")
	}
	want1 := map[string]Result{gated: want, upper: wantUpper}

	for _, order := range [][]string{{gated, upper}, {upper, gated}} {
		for _, together := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s-first/together=%v", order[0][:3], together), func(t *testing.T) {
				reg := NewRegistry()
				if err := reg.Add("m", det, BatchConfig{MaxBatch: 8, Workers: 1}); err != nil {
					t.Fatal(err)
				}
				if err := reg.SetCascade("m", gate); err != nil {
					t.Fatal(err)
				}
				srv := NewServerRegistry(reg)
				defer srv.Close()
				batches := [][]string{order}
				if !together {
					batches = [][]string{order[:1], order[1:]}
				}
				for _, b := range batches {
					got, err := srv.DetectContext(context.Background(), b)
					if err != nil {
						t.Fatal(err)
					}
					for i, s := range b {
						if !sameResult(got[i], want1[s]) {
							t.Errorf("%q: served %+v, want %+v", s, got[i], want1[s])
						}
					}
				}
				st, err := reg.Stats("m")
				if err != nil {
					t.Fatal(err)
				}
				if st.MemoEntries != 1 || st.MemoHits != 0 {
					t.Errorf("memo holds %d entries after %d hits, want 1 after 0: the gated line must not reach it", st.MemoEntries, st.MemoHits)
				}
			})
		}
	}
}

// TestMemoCountsAndExposition serves lines that repeat exactly and lines
// that only tokenize alike, and checks what the memo answered: an exact
// repeat is dedup's, a token repeat — in the batch or after it — the memo's,
// in EngineStats and on /metrics.
func TestMemoCountsAndExposition(t *testing.T) {
	det, ds := detector(t)
	a, b := logparse.Sentence(ds.Test[0]), logparse.Sentence(ds.Test[1])
	aPlus := strings.ReplaceAll(a, " is ", " is +")
	if memoKey(aPlus) != memoKey(a) || memoKey(a) == memoKey(b) {
		t.Fatal("fixture lines do not key as intended")
	}
	srv := NewServerWith(det, BatchConfig{MaxBatch: 8, Workers: 1})
	defer srv.Close()
	// One batch: a twice (dedup), aPlus (a token repeat), b; then a batch
	// of aPlus alone (an exact repeat of an earlier batch's string: the
	// memo's).
	for _, batch := range [][]string{{a, aPlus, a, b}, {aPlus}} {
		got, err := srv.DetectContext(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range batch {
			if want := det.DetectBatch([]string{s})[0]; !sameResult(got[i], want) {
				t.Errorf("%q: served %+v, alone %+v", s, got[i], want)
			}
		}
	}
	st, err := srv.Registry().Stats(DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	if st.DedupSaved != 1 || st.MemoHits != 2 || st.MemoEntries != 2 {
		t.Fatalf("dedup_saved %d, memo_hits %d, memo_entries %d; want 1, 2, 2", st.DedupSaved, st.MemoHits, st.MemoEntries)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE repro_memo_hits_total counter",
		`repro_memo_hits_total{model="default"} 2`,
		"# TYPE repro_memo_entries gauge",
		`repro_memo_entries{model="default"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestMemoSkipsLongKeys serves a line whose key is longer than memoMaxKey in
// two batches: the model answers it both times with the bits it gives the
// line alone, and the memo keeps nothing, so no client can pin more than
// memoCapacity × memoMaxKey bytes of keys.
func TestMemoSkipsLongKeys(t *testing.T) {
	det, ds := detector(t)
	long := logparse.Sentence(ds.Test[0]) + " " + strings.Repeat("x", memoMaxKey)
	if n := len(memoKey(long)); n <= memoMaxKey {
		t.Fatalf("fixture key is %d bytes, not over %d", n, memoMaxKey)
	}
	want := det.DetectBatch([]string{long})[0]
	srv := NewServerWith(det, BatchConfig{MaxBatch: 8, Workers: 1})
	defer srv.Close()
	for range 2 {
		got, err := srv.DetectContext(context.Background(), []string{long})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got[0], want) {
			t.Errorf("served %+v, alone %+v", got[0], want)
		}
	}
	st, err := srv.Registry().Stats(DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	if st.MemoHits != 0 || st.MemoEntries != 0 {
		t.Fatalf("memo_hits %d, memo_entries %d after a long line twice; want 0, 0", st.MemoHits, st.MemoEntries)
	}
}

// TestVerdictMemoBounded fills the memo past its capacity: it holds
// memoCapacity entries, every key it holds answers with what was inserted
// under it, and a key it evicted or never held is a miss.
func TestVerdictMemoBounded(t *testing.T) {
	m := newVerdictMemo()
	const n = memoCapacity + 1000
	keys := make([]string, n)
	res := make([]Result, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		res[i] = Result{Label: i % 2, Score: float64(i)}
	}
	for i := range keys {
		m.insert(keys, res, []int{i})
		// Reading key 1 after every insert keeps it referenced, so CLOCK
		// passes it by. (Key 0 is the first victim: the first insert past
		// capacity finds every entry referenced, clears them all in one
		// turn and takes slot 0.)
		m.lookup(keys[1:2], make([]Result, 1))
	}
	if got := m.entries(); got != memoCapacity {
		t.Fatalf("memo holds %d entries, capacity %d", got, memoCapacity)
	}
	got := make([]Result, n+1)
	miss := m.lookup(append(keys, "never"), got)
	if len(miss) != n+1-memoCapacity || miss[len(miss)-1] != n {
		t.Fatalf("%d misses (last %d), want %d ending with the unseen key", len(miss), miss[len(miss)-1], n+1-memoCapacity)
	}
	missed := map[int]bool{}
	for _, i := range miss {
		missed[i] = true
	}
	if missed[1] {
		t.Error("CLOCK evicted the key read after every insert")
	}
	for i := 0; i < n; i++ {
		if !missed[i] && got[i] != res[i] {
			t.Fatalf("key %d answered %+v, inserted %+v", i, got[i], res[i])
		}
	}
}

// memoKey is a sentence's whole memo key.
func memoKey(s string) string { return string(appendMemoKey(nil, s)) }
