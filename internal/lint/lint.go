// Package lint is reprolint: the repository's static-analysis suite. It
// turns the invariants that earlier PRs could only state in prose and spot
// tests into compile-time diagnostics:
//
//   - determinism: declared-deterministic packages draw no wall-clock time,
//     no math/rand, and never let map iteration order reach an output
//     (docs/SCENARIOS.md).
//   - hotalloc: functions on the zero-allocation hot path (any function
//     taking a *tensor.Workspace, or marked //repro:hotpath) contain no
//     allocating constructs (docs/PERFORMANCE.md).
//   - locksafe: no blocking operation is reachable while a sync.Mutex or
//     RWMutex is held (docs/RELIABILITY.md).
//   - ctxflow: request paths in internal/core never manufacture root
//     contexts, and HTTP handlers thread r.Context() into detection calls.
//
// See docs/STATIC_ANALYSIS.md for the catalog, the suppression policy, and
// how to add an analyzer. The cmd/reprolint binary (make lint) runs the
// suite over ./....
package lint

import (
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// Analyzers returns the reprolint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DeterminismAnalyzer,
		HotallocAnalyzer,
		LocksafeAnalyzer,
		CtxflowAnalyzer,
	}
}

// Run loads patterns, applies the full suite to every matched package and
// filters each package's findings through its //lint:ignore directives,
// returning the surviving diagnostics sorted by position. It always runs
// every analyzer: a directive naming one that did not run would read as an
// unused suppression.
func Run(patterns ...string) ([]analysis.Diagnostic, error) {
	pkgs, err := load.Load(patterns...)
	if err != nil {
		return nil, err
	}
	var out []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := analysis.Run(Analyzers(), pkg.Fset, pkg.Files, pkg.Types, pkg.TypesInfo)
		if err != nil {
			return nil, err
		}
		out = append(out, ApplyIgnores(pkg.Fset, pkg.Files, diags)...)
	}
	sortDiagnostics(out)
	return out, nil
}

func sortDiagnostics(diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}
