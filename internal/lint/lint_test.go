// Package lint_test runs every reprolint analyzer against its fixture
// package under testdata/src — positive findings, negative shapes, and the
// //lint:ignore escape hatch — and smoke-tests the assembled suite through
// the same loader the reprolint binary uses.
package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestDeterminismFixture(t *testing.T) {
	linttest.Run(t, "testdata", "determ", lint.DeterminismAnalyzer)
}

func TestHotallocFixture(t *testing.T) {
	linttest.Run(t, "testdata", "hotpath", lint.HotallocAnalyzer)
}

// TestHotallocWorkspaceExempt runs hotalloc over the fake arena itself: its
// methods take *Workspace parameters but are the one place amortized growth
// belongs, so the fixture asserts zero diagnostics.
func TestHotallocWorkspaceExempt(t *testing.T) {
	linttest.Run(t, "testdata", "tensor", lint.HotallocAnalyzer)
}

func TestLocksafeFixture(t *testing.T) {
	linttest.Run(t, "testdata", "locks", lint.LocksafeAnalyzer)
}

func TestCtxflowFixture(t *testing.T) {
	linttest.Run(t, "testdata", "reqpath", lint.CtxflowAnalyzer)
}

// TestSuiteClean runs the full suite end-to-end (go list loader, export-data
// type-checking, directive filtering) over two declared-deterministic
// packages and requires a clean bill.
func TestSuiteClean(t *testing.T) {
	diags, err := lint.Run("repro/internal/faults", "repro/internal/resilience")
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
