// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for about --seconds, checks that its outputs are
// correct, and prints as its last line a JSON object with every end-to-end
// metric (--trace 0) or every per-layer metric and the tracing overhead
// (--trace 1). See README.md for the workloads and what each metric is
// predicted to move.
//
//	bash perfbench/run.sh --workload h6-adv-sat --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare base.txt head.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// workload is one named input set of the benchmark.
type workload interface {
	// run measures the workload. ref, nil in a traced run, is sampled
	// refSamples times at fixed points of the measurement.
	run(seed uint64, seconds float64, traced bool, ref *hostRef) (*result, error)
}

// workloads are the benchmark's three input sets at full scale.
var workloads = map[string]workload{
	"h6-adv-sat": simWorkload{
		h: 6, pattern: "ADV+6", load: 0.5, workers: 2,
		warmup: 800, window: 140,
	},
	"sweepd-mixed": sweepdWorkload{h: 3, clients: 2, warmup: 600, measure: 600},
	"h8-un-sat": simWorkload{
		h: 8, pattern: "UN", load: 0.9, workers: 2,
		warmup: 600, window: 50,
	},
}

func main() {
	if code, ok := subcommand(os.Args[1:]); ok {
		os.Exit(code)
	}
	os.Exit(benchMain(os.Args[1:]))
}

// subcommand runs the program's other modes: compare, and the child
// processes of a run. ok is false for a benchmark run.
func subcommand(args []string) (code int, ok bool) {
	if len(args) == 0 {
		return 0, false
	}
	switch args[0] {
	case "compare":
		return compareMain(args[1:]), true
	case "hostref":
		return hostRefMain(), true
	case "sweepd-start":
		return coldStartMain(args[1:]), true
	}
	return 0, false
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "measurement time per run")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	var ref *hostRef
	if *trace == 0 {
		var err error
		if ref, err = startHostRef(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: host reference: %v\n", err)
			return 1
		}
	}
	res, err := w.run(*seed, *seconds, *trace == 1, ref)
	if ref != nil {
		if cerr := ref.close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if ref != nil {
		res.normalize(ref.samples)
	}
	if err := res.write(os.Stdout, *name, *seed, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
