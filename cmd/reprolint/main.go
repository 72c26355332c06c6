// Command reprolint runs the repository's static-analysis suite
// (internal/lint) over package patterns and reports every finding that is
// not covered by a justified //lint:ignore suppression.
//
// Usage:
//
//	reprolint [-list] [packages...]
//
// With no patterns it checks ./.... The exit status is 1 when any diagnostic
// survives, 2 on usage or load errors — the same contract as go vet, so
// `make lint` can gate CI. (The classic `go vet -vettool` protocol needs
// golang.org/x/tools/go/analysis/unitchecker, which this offline,
// dependency-free repo cannot vendor; reprolint therefore drives its own
// loader, one `go list -export` away from the same type information.)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: reprolint [-list] [packages...]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "reprolint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
