package core

import (
	"testing"

	"repro/internal/flowbench"
	"repro/internal/icl"
	"repro/internal/logparse"
	"repro/internal/models"
	"repro/internal/pretrain"
	"repro/internal/sft"
	"repro/internal/tokenizer"
)

// BenchmarkServeBatch8 is one 8-sentence serving batch through the default
// serving models (bert-base-uncased for SFT, mistral for ICL — what Train
// builds) in fp32 and int8: identical work through the two compute paths.
// The models are untrained; weights don't affect throughput. The ICL pair
// runs the cached-prefix path exactly as the detection service does: the
// few-shot prefix KV cache is prebuilt and only the query suffixes flow
// through the block stack per op. Until the product has a profiling switch
// this is also the CPU-profile harness (docs/PERFORMANCE.md):
//
//	go test -run '^$' -bench 'ServeBatch8/(sft|icl-int8)$' -cpu 1 -cpuprofile cpu.prof ./internal/core
func BenchmarkServeBatch8(b *testing.B) {
	ds := flowbench.Generate(flowbench.Genome, 1).Subsample(200, 0, 64, 1)
	corpus := pretrain.BuildCorpus(pretrain.CorpusOptions{
		SentencesPerWorkflow: 50, ICLDocs: 20, ExamplesPerDoc: 3, Seed: 1,
	})
	tok := tokenizer.Build(append(corpus, logparse.Corpus(ds.Train)...))
	exs := icl.PromptExamples(icl.SelectExamples(ds.Train, 5, icl.Mixed, 1))
	batch := make([]string, 8)
	for i := range batch {
		batch[i] = logparse.Sentence(ds.Test[i])
	}

	run := func(name string, serve func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
	for _, suffix := range []string{"", "-int8"} {
		enc := models.MustGet("bert-base-uncased").Build(tok.VocabSize())
		dec := models.MustGet("mistral").Build(tok.VocabSize())
		if suffix == "-int8" {
			enc.QuantizeInt8(0)
			dec.QuantizeInt8(0)
		}
		clf := sft.NewClassifier(enc, tok)
		det := icl.NewDetector(dec, tok)
		pc := det.NewPromptCache(exs)
		run("sft"+suffix, func() { clf.PredictBatch(batch) })
		run("icl"+suffix, func() { det.ClassifyBatchCached(pc, batch) })
	}
}
