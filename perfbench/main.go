// Command perfbench is the serving benchmark of this repository. It runs
// one named workload against the Tender integer engine (opt-6.7b,
// tender:int at 8 bits), checks every answer against the unbatched
// reference decoder, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload decode-batch --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is repeated with every engine behind a timing
// decorator and the result carries the per-layer metrics. See README.md
// in this directory for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered set of reported numbers.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is what a workload run produces: request counts plus both metric
// sets. Which set is printed depends on --trace.
type report struct {
	attempted, failed int
	e2e, layer        metrics
}

func newReport() *report { return &report{e2e: metrics{}, layer: metrics{}} }

// runCtx carries the benchmark arguments into a workload.
type runCtx struct {
	root    string
	seed    uint64
	seconds time.Duration
	trace   bool
}

// errIncorrect marks a failed correctness gate: the run prints
// correct=false instead of metrics.
var errIncorrect = errors.New("incorrect output")

var workloads = map[string]func(*runCtx) (*report, error){
	"decode-batch": func(rc *runCtx) (*report, error) { return runInProc(rc, decodeBatch) },
	"prefill-long": func(rc *runCtx) (*report, error) { return runInProc(rc, prefillLong) },
	"tenant-http":  runTenantHTTP,
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload to run: decode-batch, prefill-long or tenant-http")
		seed    = flag.Uint64("seed", 1, "seed the workload's requests are generated from")
		seconds = flag.Int("seconds", 15, "length of the measured window in seconds (extended until p90 has enough samples)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: repeat the run traced and report per-layer metrics")
		root    = flag.String("root", ".", "repository root (where the tenderserve binary was built into .bench_build)")
	)
	flag.Parse()
	run, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	rc := &runCtx{root: *root, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	st, _ := json.Marshal(map[string]any{"stamp": newStamp(*root, *seed, *wl, *seconds, rc.trace)})
	fmt.Println(string(st))

	rep, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		if errors.Is(err, errIncorrect) && rep != nil {
			printResult(result{Correct: false, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: metrics{}})
		}
		os.Exit(1)
	}
	out := rep.e2e
	if rc.trace {
		out = rep.layer
	}
	printResult(result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: out})
}

func printResult(r result) {
	// Keys are printed sorted so results diff cleanly.
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
