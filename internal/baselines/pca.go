package baselines

import (
	"math"

	"repro/internal/flowbench"
	"repro/internal/tensor"
)

// PCADetector is the principal-component anomaly detector of Shyu et al.
// (2003), the "PCA" row of Table IV: points are scored by their
// reconstruction error from the top-k principal components of the training
// distribution.
type PCADetector struct {
	std        *standardizer
	components *tensor.Matrix // [k, d] row-wise principal directions
}

// FitPCA fits a detector keeping k components (k clamped to the feature
// count). Eigenvectors are extracted by power iteration with deflation on
// the d×d covariance — d is 9 here, so this is exact enough at tolerance.
func FitPCA(train []flowbench.Job, k int, seed uint64) *PCADetector {
	d := flowbench.NumFeatures
	if k > d {
		k = d
	}
	if k < 1 {
		k = 1
	}
	p := &PCADetector{std: fitStandardizer(train)}
	x := p.std.Matrix(train)
	// Covariance (features are already centered by the standardizer).
	cov := tensor.TMatMul(nil, x, x)
	tensor.Scale(cov, cov, 1/float32(max(1, x.Rows)))

	rng := tensor.NewRNG(seed)
	p.components = tensor.New(k, d)
	work := cov.Clone()
	for c := 0; c < k; c++ {
		v := powerIteration(work, rng)
		copy(p.components.Row(c), v)
		// Deflate: work -= λ v vᵀ.
		lambda := rayleigh(work, v)
		for i := 0; i < d; i++ {
			row := work.Row(i)
			for j := 0; j < d; j++ {
				row[j] -= float32(lambda) * v[i] * v[j]
			}
		}
	}
	return p
}

func powerIteration(m *tensor.Matrix, rng *tensor.RNG) []float32 {
	d := m.Rows
	v := make([]float32, d)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	normalize(v)
	tmp := make([]float32, d)
	for iter := 0; iter < 200; iter++ {
		for i := 0; i < d; i++ {
			var s float32
			row := m.Row(i)
			for j, vj := range v {
				s += row[j] * vj
			}
			tmp[i] = s
		}
		copy(v, tmp)
		normalize(v)
	}
	return v
}

func normalize(v []float32) {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	n := float32(math.Sqrt(s))
	if n == 0 {
		v[0] = 1
		return
	}
	for i := range v {
		v[i] /= n
	}
}

func rayleigh(m *tensor.Matrix, v []float32) float64 {
	d := m.Rows
	var num float64
	for i := 0; i < d; i++ {
		var s float64
		row := m.Row(i)
		for j, vj := range v {
			s += float64(row[j]) * float64(vj)
		}
		num += float64(v[i]) * s
	}
	return num
}

// Score returns per-job reconstruction errors from the retained components;
// higher means more anomalous.
func (p *PCADetector) Score(jobs []flowbench.Job) []float64 {
	x := p.std.Matrix(jobs)
	// proj = x·Cᵀ ; recon = proj·C ; err = ‖x-recon‖².
	proj := tensor.MatMulT(nil, x, p.components)
	recon := tensor.MatMul(nil, proj, p.components)
	out := make([]float64, len(jobs))
	for i := range out {
		xr, rr := x.Row(i), recon.Row(i)
		var e float64
		for j := range xr {
			d := float64(xr[j] - rr[j])
			e += d * d
		}
		out[i] = e
	}
	return out
}
