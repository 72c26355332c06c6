package cascade

import (
	"fmt"

	"repro/internal/flowbench"
	"repro/internal/tokenizer"
)

// The stage-1 scorer, "ngram", keys on the transformer's own view of a job.
// The tokenizer discretizes every numeral into one of tokenizer.NumBuckets
// logarithmic magnitude buckets before the encoder ever sees it, so the
// stage-2 verdict for a feature sentence is a function of the 9-byte bucket
// vector — a small discrete space that training traffic covers densely. The
// scorer counts, per hashed bucket vector, how often stage 2 flagged it
// during calibration, and scores a line by the smoothed positive rate
//
//	p = (pos + α) / (n + 2α)
//
// of its key. A never-seen key scores exactly ngramUnseen = α/2α = 0.5: no
// evidence either way, so it must reach the transformer — Fit caps the
// confident-normal threshold below that score.
//
// Unlike an unsupervised baseline (PCA, isolation forest), the scorer is
// supervised by the calibration verdicts, which is what lets it
// short-circuit the bulk of steady traffic while holding ≥99% verdict
// agreement: it reproduces the transformer's decision boundary on seen keys
// instead of approximating it with reconstruction error.
const (
	// ngramBits sizes the hashed count table (1<<17 slots ≈ 9× the distinct
	// keys in a Flow-Bench training split; collisions merge counts, which can
	// only push a key toward PassThrough in practice since merged positives
	// raise the smoothed rate).
	ngramBits = 17
	ngramSize = 1 << ngramBits
	// ngramAlpha is the Laplace smoothing mass. Small enough that a single
	// observed positive (p ≈ 1/n) clears any calibrated threshold, large
	// enough that the unseen score is well-defined.
	ngramAlpha = 0.01
	// ngramUnseen is the score of a key with no calibration evidence
	// (α / 2α). Fit keeps the confident-normal threshold at or below this so
	// unseen keys always pass to stage 2.
	ngramUnseen = 0.5
)

// ngramModel is the hashed count table: n[k] calibration jobs hashed to slot
// k, pos[k] of them flagged by stage 2.
type ngramModel struct {
	n   []uint32
	pos []uint32
}

func fitNGram(train []flowbench.Job, verdicts []int) *ngramModel {
	m := &ngramModel{n: make([]uint32, ngramSize), pos: make([]uint32, ngramSize)}
	for i := range train {
		k := ngramIndex(&train[i].Features)
		m.n[k]++
		if verdicts[i] == 1 {
			m.pos[k]++
		}
	}
	return m
}

// ngramIndex hashes the per-feature magnitude buckets (FNV-1a over one byte
// per feature) into the count table. Alloc-free.
//
//repro:hotpath
func ngramIndex(f *[flowbench.NumFeatures]float64) uint32 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := range f {
		h ^= uint64(uint8(tokenizer.NumBucket(f[i])))
		h *= fnvPrime
	}
	return uint32(h) & (ngramSize - 1)
}

// score returns the smoothed positive rate of the job's bucket-vector key.
// Alloc-free.
//
//repro:hotpath
func (m *ngramModel) score(f *[flowbench.NumFeatures]float64) float64 {
	k := ngramIndex(f)
	return (float64(m.pos[k]) + ngramAlpha) / (float64(m.n[k]) + 2*ngramAlpha)
}

// NGramParams serializes the non-empty slots of the hashed count table in
// ascending slot order: Idx[i] saw N[i] calibration jobs, Pos[i] of them
// flagged.
type NGramParams struct {
	Bits int      `json:"bits"`
	Idx  []uint32 `json:"idx"`
	N    []uint32 `json:"n"`
	Pos  []uint32 `json:"pos"`
}

func (m *ngramModel) params() NGramParams {
	p := NGramParams{Bits: ngramBits}
	for k, n := range m.n {
		if n == 0 {
			continue
		}
		p.Idx = append(p.Idx, uint32(k))
		p.N = append(p.N, n)
		p.Pos = append(p.Pos, m.pos[k])
	}
	return p
}

func ngramFromParams(p NGramParams) (*ngramModel, error) {
	if p.Bits != ngramBits {
		return nil, fmt.Errorf("cascade: ngram table has %d bits, this build expects %d", p.Bits, ngramBits)
	}
	if len(p.N) != len(p.Idx) || len(p.Pos) != len(p.Idx) {
		return nil, fmt.Errorf("cascade: ngram params arrays disagree (%d idx, %d n, %d pos)",
			len(p.Idx), len(p.N), len(p.Pos))
	}
	m := &ngramModel{n: make([]uint32, ngramSize), pos: make([]uint32, ngramSize)}
	for i, k := range p.Idx {
		if k >= ngramSize {
			return nil, fmt.Errorf("cascade: ngram slot %d out of range", k)
		}
		if p.N[i] == 0 || p.Pos[i] > p.N[i] {
			return nil, fmt.Errorf("cascade: ngram slot %d has %d positives of %d observations", k, p.Pos[i], p.N[i])
		}
		if m.n[k] != 0 {
			return nil, fmt.Errorf("cascade: ngram slot %d repeated", k)
		}
		m.n[k] = p.N[i]
		m.pos[k] = p.Pos[i]
	}
	return m, nil
}
