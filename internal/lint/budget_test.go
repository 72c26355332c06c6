package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSuppressionBudget pins the number of //lint:ignore directives in the
// repository. Every suppression is a deliberate, justified exception to an
// invariant the analyzers otherwise enforce; this test makes adding one a
// reviewed act — the budget only moves together with a diff that shows the
// new directive and its reason.
//
// If this fails after you added a suppression: first try to fix the finding
// instead. If the exception is genuinely justified (see
// docs/STATIC_ANALYSIS.md for the policy), update the budget here in the
// same commit.
func TestSuppressionBudget(t *testing.T) {
	const budget = 12
	root := filepath.Join("..", "..")
	perAnalyzer := make(map[string]int)
	var sites []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "bin":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parsing %s: %v", path, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := directiveRe.FindStringSubmatch(text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				sites = append(sites, fmt.Sprintf("%s:%d: %s", path, pos.Line, m[1]))
				for _, name := range strings.Split(m[1], ",") {
					perAnalyzer[name]++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != budget {
		sort.Strings(sites)
		t.Errorf("found %d //lint:ignore directives, budget is %d; per analyzer %v\nsites:\n  %s",
			len(sites), budget, perAnalyzer, strings.Join(sites, "\n  "))
	}
}
