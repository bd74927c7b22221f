// Command sparker-load is the repo's end-to-end benchmark. From one
// seed it generates inputs, runs four workloads against the real
// binaries (the batch pipeline in process, sparker-serve as a single
// node, as leader + follower, and as coordinator + three shards),
// checks their outputs and prints every metric by name with its unit.
//
// All four workloads, each timed and traced:
//
//	go run ./cmd/sparker-load -seed 1234
//
// One run in the shape BENCHMARK.json prescribes; the last line of
// standard output is the result object:
//
//	go run ./cmd/sparker-load --workload serve-read --seed 7 --seconds 30 --trace 0
//
// Two alternating sets of timed runs, failing when their medians disagree by more than
// the benchmark's own bounds:
//
//	go run ./cmd/sparker-load -aa
//
// See bench/README.md for the workloads, the metrics and how to read a
// trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"sparker/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sparker-load:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload  = flag.String("workload", "", "run one workload ("+fmt.Sprint(bench.Workloads)+"); empty runs all four, timed and traced")
		seed      = flag.Int64("seed", 1234, "drives datagen, every shuffle and the op stream")
		seconds   = flag.Float64("seconds", 30, "how long one run measures; phases shrink or grow with it (40 is the size the workloads were designed at)")
		scaleTime = flag.Float64("scale-time", 1, "multiplies -seconds: shrink every phase, never drop a workload")
		trace     = flag.Int("trace", 0, "with -workload: 0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		aa        = flag.Bool("aa", false, "A/A mode: two alternating sets of timed runs of every workload, their medians compared against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	root, err := bench.FindRoot()
	if err != nil {
		return err
	}
	resultsDir := bench.ResultsDir(root)
	base := bench.Options{Seed: *seed, Seconds: *seconds * *scaleTime, ResultsDir: resultsDir}

	if *aa {
		return bench.RunAA(base, root, os.Stdout)
	}

	var all []*bench.Result
	one := func(name string, traced bool) error {
		o := base
		o.Workload, o.Trace = name, traced
		r, err := bench.Run(o)
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		all = append(all, r)
		return nil
	}
	if *workload != "" {
		if err := one(*workload, *trace == 1); err != nil {
			return err
		}
	} else {
		for _, name := range bench.Workloads {
			for _, traced := range []bool{false, true} {
				if err := one(name, traced); err != nil {
					return err
				}
			}
		}
	}
	if err := bench.Keep(root, resultsDir, *seed, all); err != nil {
		return err
	}

	// The last line: the contract's result object for a single run, an
	// array of them for a full one. A run that did not measure the
	// servers (late generator, shed ops, stolen CPU) is printed as
	// INVALID above and kept as such in the history, but still gets its
	// result line and exit code 0: the host steals that much for minutes
	// on end, a caller with ten runs per workload loses less to an
	// outlier than to a missing run, and there is no time to run again.
	// Only -aa, which has the time, refuses it and measures again.
	var lines []json.RawMessage
	var bad error
	for _, r := range all {
		line, err := r.FinalLine()
		if err != nil {
			return err
		}
		lines = append(lines, line)
		if bad == nil && !r.Correct() {
			bad = r.Err()
		}
	}
	if *workload != "" {
		fmt.Printf("%s\n", lines[0])
	} else {
		out, err := json.Marshal(lines)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", out)
	}
	return bad
}
