// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis API: an Analyzer is a named check with a
// Run function over one type-checked package (a Pass), reporting
// position-anchored Diagnostics.
//
// The real x/tools module cannot be vendored here (the build environment is
// offline and the repo is dependency-free by policy), so this package mirrors
// the parts of its surface the reprolint suite needs on the standard
// library's go/ast and go/types alone. If the repo ever grows a vendored
// x/tools, the analyzers in internal/lint port mechanically: the Pass fields
// and Reportf signature match.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore <name> directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant enforced, and where
	// it applies.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass is the unit of work handed to an Analyzer: one type-checked package
// plus a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the package's parsed source files (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records types and object resolution for every expression in
	// Files (Types, Defs, Uses, Selections, Implicits populated).
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies each analyzer to the package described by (fset, files, pkg,
// info) and returns the combined diagnostics.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
		out = append(out, pass.diagnostics...)
	}
	return out, nil
}
