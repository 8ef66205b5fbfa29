// Command tenderbench regenerates the paper's tables and figures.
//
// Usage:
//
//	tenderbench                  # run everything (slow, full fidelity)
//	tenderbench -quick           # reduced sizes, same shapes
//	tenderbench -exp table2      # one experiment (table1..7, figure9..13, figure23,
//	                             # serve, router, chaos, gemm)
//	tenderbench -exp serve       # serving benchmark; emits BENCH_serve.json
//	tenderbench -exp gemm        # blocked-GEMM kernel + KV dtype rows → BENCH_serve.json
//	tenderbench -headline        # paper-vs-measured headline report
//	tenderbench -list            # list experiment ids
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
	artifacts := flag.String("artifacts", "", "directory for serving trace artifacts (Chrome trace + metrics snapshot per serve scenario)")
	flag.Parse()

	opts := experiments.Options{Quick: *quick, Seed: *seed, ArtifactDir: *artifacts}

	switch {
	case *list:
		for _, id := range []string{
			"table1", "table2", "table3", "table4", "table5", "table6", "table7",
			"figure9", "figure10", "figure11", "figure12", "figure13", "figure23",
			"serve", "router", "chaos", "gemm",
		} {
			fmt.Println(id)
		}
	case *headline:
		experiments.RenderClaims(os.Stdout, experiments.HeadlineReport(opts))
	case *exp != "":
		start := time.Now()
		t, ok := experiments.ByID(*exp, opts)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
			os.Exit(1)
		}
		t.Render(os.Stdout)
		fmt.Printf("(%s in %s)\n", *exp, time.Since(start).Round(time.Millisecond))
	default:
		for _, f := range experiments.AllFuncs() {
			start := time.Now()
			t := f(opts)
			t.Render(os.Stdout)
			fmt.Printf("(%s in %s)\n\n", t.ID, time.Since(start).Round(time.Millisecond))
		}
	}
}
