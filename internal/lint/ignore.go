package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Suppression directives.
//
// A finding is silenced with a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either on the flagged line or on its own line directly above it.
// The reason is mandatory: a directive without one is itself a diagnostic,
// and so is a directive that suppresses nothing (so stale suppressions rot
// out of the tree instead of hiding future findings). The total number of
// directives in the repository is pinned by TestSuppressionBudget in this
// package — adding one is a deliberate, reviewed act.

// ApplyIgnores filters diags through the //lint:ignore directives found in
// files: suppressed findings are dropped, and malformed or unused directives
// are appended as diagnostics of the pseudo-analyzer "reprolint". It is the
// directive half of Run, exported so the linttest harness exercises the exact
// pipeline the reprolint binary runs.
func ApplyIgnores(fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) []analysis.Diagnostic {
	var malformed []analysis.Diagnostic
	dirs := parseDirectives(fset, files, func(d analysis.Diagnostic) {
		malformed = append(malformed, d)
	})
	out := applyDirectives(diags, dirs)
	return append(out, malformed...)
}

// directiveRe matches the directive after the leading "//". Analyzer list
// and reason are capture groups.
var directiveRe = regexp.MustCompile(`^lint:ignore\s+([a-z0-9_,-]+)(?:\s+(.*))?$`)

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos       token.Position
	analyzers map[string]bool
	reason    string
	// lines the directive covers: its own line and, for a directive that
	// stands alone, the following line.
	lines [2]int
	used  bool
}

// parseDirectives extracts every //lint:ignore directive from files.
// Malformed directives (no reason) are reported immediately via report.
func parseDirectives(fset *token.FileSet, files []*ast.File, report func(analysis.Diagnostic)) []*directive {
	var dirs []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				m := directiveRe.FindStringSubmatch(strings.TrimSpace(text))
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					report(analysis.Diagnostic{
						Pos:      pos,
						Analyzer: "reprolint",
						Message:  "lint:ignore directive needs a reason: //lint:ignore <analyzer> <why this is safe>",
					})
					continue
				}
				d := &directive{
					pos:       pos,
					analyzers: make(map[string]bool),
					reason:    strings.TrimSpace(m[2]),
					lines:     [2]int{pos.Line, pos.Line + 1},
				}
				for _, name := range strings.Split(m[1], ",") {
					d.analyzers[name] = true
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs
}

// applyDirectives filters diags through dirs: a diagnostic whose position
// line is covered by a directive naming its analyzer is dropped (and the
// directive marked used). Unused directives are appended as diagnostics.
func applyDirectives(diags []analysis.Diagnostic, dirs []*directive) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, dir := range dirs {
			if dir.pos.Filename != d.Pos.Filename || !dir.analyzers[d.Analyzer] {
				continue
			}
			if d.Pos.Line == dir.lines[0] || d.Pos.Line == dir.lines[1] {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, dir := range dirs {
		if !dir.used {
			names := make([]string, 0, len(dir.analyzers))
			for n := range dir.analyzers {
				names = append(names, n)
			}
			sort.Strings(names)
			out = append(out, analysis.Diagnostic{
				Pos:      dir.pos,
				Analyzer: "reprolint",
				Message:  "unused lint:ignore directive for " + strings.Join(names, ",") + " (nothing suppressed; delete it)",
			})
		}
	}
	return out
}
