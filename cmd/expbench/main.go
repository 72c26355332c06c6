// Command expbench regenerates the paper's tables and figures.
//
// Usage:
//
//	expbench -exp all                 # run every experiment at quick scale
//	expbench -exp fig4 -scale standard
//	expbench -exp table1 -scale tiny  # smoke: seconds, not numbers
//	expbench -list
//
// Each experiment prints a table shaped like the corresponding artifact in
// the paper; those printed tables are the record of the measured values, to
// set beside the paper's own.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "expbench:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("expbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "all", "experiment id (see -list) or \"all\"")
		scale = fs.String("scale", "quick", "working scale: tiny, quick, or standard")
		seed  = fs.Uint64("seed", 42, "experiment seed")
		list  = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, d := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", d.ID, d.Paper)
		}
		return nil
	}

	var sc experiments.Scale
	switch *scale {
	case "tiny":
		sc = experiments.Tiny()
	case "quick":
		sc = experiments.Quick()
	case "standard":
		sc = experiments.Standard()
	default:
		return fmt.Errorf("unknown scale %q (want tiny, quick, or standard)", *scale)
	}
	sc.Seed = *seed
	lab := experiments.NewLab(sc)

	runOne := func(d experiments.Def) {
		start := time.Now()
		tab := d.Run(lab)
		fmt.Fprint(stdout, tab.String())
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", d.ID, time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, d := range experiments.All() {
			runOne(d)
		}
		return nil
	}
	d, err := experiments.Lookup(*exp)
	if err != nil {
		return err
	}
	runOne(d)
	return nil
}
