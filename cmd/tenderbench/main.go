// Command tenderbench regenerates the paper's tables and figures.
//
// Usage:
//
//	tenderbench                  # run everything (slow, full fidelity)
//	tenderbench -quick           # reduced sizes, same shapes
//	tenderbench -exp table2      # one experiment (any id from -list)
//	tenderbench -headline        # paper-vs-measured headline report
//	tenderbench -list            # list experiment ids
//
// Serving speed is measured by perfbench (bash perfbench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tender/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sizes for a fast run")
	exp := flag.String("exp", "", "run a single experiment id")
	headline := flag.Bool("headline", false, "print the paper-vs-measured headline report")
	list := flag.Bool("list", false, "list experiment ids")
	seed := flag.Uint64("seed", 0, "seed offset for streams and tasks")
	flag.Parse()

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	run := func(e experiments.Experiment) {
		start := time.Now()
		e.Run(opts).Render(os.Stdout)
		fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	switch {
	case *list:
		for _, e := range experiments.Experiments {
			fmt.Println(e.ID)
		}
	case *headline:
		experiments.RenderClaims(os.Stdout, experiments.HeadlineReport(opts))
	case *exp != "":
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
			os.Exit(1)
		}
		run(e)
	default:
		for _, e := range experiments.Experiments {
			run(e)
		}
	}
}
