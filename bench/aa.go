package bench

import (
	"fmt"
	"io"
	"math"
)

// aaRuns is how many timed runs of each workload each side of the A/A
// comparison gets; the sides are compared by their medians.
const aaRuns = 3

// aaRetries is how often A/A mode runs a workload again after a run the
// harness itself marked invalid.
const aaRetries = 2

// runValid calls run until it yields a run whose numbers may be used.
// An invalid run (late generator, shed ops, stolen CPU) is run again, at
// most aaRetries times; failed output checks are final at once.
func runValid(run func() (*Result, error), w io.Writer) (*Result, error) {
	for try := 0; ; try++ {
		r, err := run()
		if err != nil {
			return nil, err
		}
		if r.Err() == nil {
			return r, nil
		}
		r.Print(w)
		if !r.Correct() || try == aaRetries {
			return nil, r.Err()
		}
	}
}

// RunAA runs two sets of timed runs of the same code and prints, per
// end-to-end metric and workload, both sets' medians, their spread (the
// distance between them as a share of their mean) and the metric's
// bound. It fails when any spread exceeds its bound: a benchmark that
// cannot agree with itself cannot judge a change. The two sets' runs
// alternate, so that a drift of the machine lands on both alike. Only
// valid runs enter a median.
// setup_s is printed but cannot fail the comparison: the driver exempts
// its spread too, because a set-up runs a handful of times per run
// where an op runs thousands.
func RunAA(base Options, root string, w io.Writer) error {
	// values[set][workload][metric] collects one value per run.
	var values [2]map[string]map[string][]float64
	for i := range values {
		values[i] = map[string]map[string][]float64{}
	}
	var all []*Result
	for _, name := range Workloads {
		for run := 0; run < 2*aaRuns; run++ {
			o := base
			o.Workload = name
			r, err := runValid(func() (*Result, error) { return Run(o) }, w)
			if err != nil {
				return fmt.Errorf("A/A: %w", err)
			}
			all = append(all, r)
			set := values[run%2]
			if set[name] == nil {
				set[name] = map[string][]float64{}
			}
			for metric, s := range r.Values {
				set[name][metric] = append(set[name][metric], s.Value)
			}
		}
	}
	if err := Keep(root, base.ResultsDir, base.Seed, all); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %8s   (medians of %d runs, sets alternating)\n",
		"workload", "metric", "set 1", "set 2", "spread", "bound", aaRuns)
	over := 0
	for _, name := range Workloads {
		for _, def := range Catalog {
			if def.Kind != EndToEnd {
				continue
			}
			a, b := median(values[0][name][def.Name]), median(values[1][name][def.Name])
			spread := math.Abs(a-b) / ((a + b) / 2)
			mark := ""
			switch {
			case spread <= def.Bound:
			case def.Name == "setup_s":
				mark = "  over (exempt)"
			default:
				mark = "  OVER"
				over++
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %7.1f%% %7.1f%%%s\n", name, def.Name, a, b, spread*100, def.Bound*100, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("bench: %d end-to-end metrics differ between two sets of runs of the same code by more than their bound", over)
	}
	return nil
}
