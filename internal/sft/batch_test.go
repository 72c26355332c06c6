package sft

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// refPredict is the batched path's reference: the softmax of the
// classification logits for one sentence run alone.
func refPredict(c *Classifier, text string) (int, [2]float32) {
	logits := c.Model.ForwardClsBatchWS([][]int{c.Tok.Encode(text, true)}, nil)
	var row [2]float32
	copy(row[:], logits.Row(0))
	tensor.Softmax(row[:])
	return tensor.ArgMax(row[:]), row
}

func TestPredictBatchMatchesSequential(t *testing.T) {
	c, ds := testSetup(t, 30)
	texts := make([]string, 0, 12)
	for _, j := range ds.Test[:11] {
		texts = append(texts, logparse.Sentence(j))
	}
	texts = append(texts, "") // the debias probe sentence must batch too
	labels, probs := c.PredictBatchWS(texts, nil)
	if len(labels) != len(texts) || len(probs) != len(texts) {
		t.Fatalf("batch sizes %d/%d, want %d", len(labels), len(probs), len(texts))
	}
	for i, text := range texts {
		wantLabel, wantProbs := refPredict(c, text)
		if labels[i] != wantLabel {
			t.Fatalf("text %d: batch label %d vs sequential %d", i, labels[i], wantLabel)
		}
		for k := 0; k < 2; k++ {
			d := probs[i][k] - wantProbs[k]
			if d < 0 {
				d = -d
			}
			if d > 1e-5 {
				t.Fatalf("text %d prob %d: batch %v vs sequential %v", i, k, probs[i], wantProbs)
			}
		}
	}
}

func TestPredictBatchEmpty(t *testing.T) {
	c, _ := testSetup(t, 5)
	labels, probs := c.PredictBatchWS(nil, nil)
	if labels != nil || probs != nil {
		t.Fatal("empty batch should return nil results")
	}
}

func TestPredictBatchConcurrent(t *testing.T) {
	c, ds := testSetup(t, 20)
	texts := make([]string, 8)
	for i := range texts {
		texts[i] = logparse.Sentence(ds.Test[i])
	}
	wantLabels, _ := c.PredictBatchWS(texts, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels, _ := c.PredictBatchWS(texts, nil)
			for i := range labels {
				if labels[i] != wantLabels[i] {
					errs <- "concurrent PredictBatchWS diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// jobSentences renders jobs' full sentences and their labels.
func jobSentences(jobs []flowbench.Job) ([]string, []int) {
	texts := make([]string, len(jobs))
	labels := make([]int, len(jobs))
	for i, j := range jobs {
		texts[i], labels[i] = logparse.Sentence(j), j.Label
	}
	return texts, labels
}

// TestEvaluateParallelMatchesSerial checks that Evaluate's fan-out over
// chunks scores exactly the confusion of one packed forward over every job.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c, ds := testSetup(t, 60)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	Train(c, JobExamples(ds.Train), nil, cfg)
	texts, labels := jobSentences(ds.Test)
	preds, _ := c.PredictBatchWS(texts, nil)
	want := metrics.NewConfusion(labels, preds)
	if got := Evaluate(c, ds.Test); got != want {
		t.Fatalf("fan-out %+v != single chunk %+v", got, want)
	}
}

// TestAnomalyScoresParallelMatchesSerial is the bit-for-bit form: every
// probability the fan-out returns equals the single-chunk forward's.
func TestAnomalyScoresParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c, ds := testSetup(t, 20)
	texts, _ := jobSentences(ds.Test)
	wantLabels, wantProbs := c.PredictBatchWS(texts, nil)
	gotLabels, gotProbs := predict(c, texts)
	if len(gotLabels) != len(texts) || len(gotProbs) != len(texts) {
		t.Fatalf("fan-out returned %d/%d results for %d sentences", len(gotLabels), len(gotProbs), len(texts))
	}
	for i := range texts {
		for k := 0; k < 2; k++ {
			if math.Float32bits(gotProbs[i][k]) != math.Float32bits(wantProbs[i][k]) || gotLabels[i] != wantLabels[i] {
				t.Fatalf("sentence %d: fan-out (%d, %v) != single chunk (%d, %v)",
					i, gotLabels[i], gotProbs[i], wantLabels[i], wantProbs[i])
			}
		}
	}
}

// TestEarlyDetectionParallelMatchesSerial checks EarlyDetection's rounds
// against a per-job reference that classifies each job's prefixes in turn.
func TestEarlyDetectionParallelMatchesSerial(t *testing.T) {
	c, ds := testSetup(t, 20)
	jobs := ds.Test[:60]
	var wantHist [flowbench.NumFeatures]int
	wantMissed := 0
	for _, j := range jobs {
		prefixes := make([]string, flowbench.NumFeatures)
		for k := range prefixes {
			prefixes[k] = logparse.Prefix(j, k+1)
		}
		preds, _ := c.PredictBatchWS(prefixes, nil)
		if k := slices.Index(preds, j.Label); k < 0 {
			wantMissed++
		} else {
			wantHist[k]++
		}
	}
	gotHist, gotMissed := EarlyDetection(c, jobs)
	if wantHist != gotHist || wantMissed != gotMissed {
		t.Fatalf("rounds (%v, %d) != per-job (%v, %d)", gotHist, gotMissed, wantHist, wantMissed)
	}
}

// TestEvaluateParallelSmallInput covers an input smaller than one chunk.
func TestEvaluateParallelSmallInput(t *testing.T) {
	c, ds := testSetup(t, 5)
	jobs := ds.Test[:3]
	texts, labels := jobSentences(jobs)
	preds, _ := c.PredictBatchWS(texts, nil)
	want := metrics.NewConfusion(labels, preds)
	if got := Evaluate(c, jobs); got != want {
		t.Fatalf("small-input fan-out %+v != single chunk %+v", got, want)
	}
}
