// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON array on stdout, one object per benchmark result, so CI can
// publish hot-path numbers (ns/op, allocs/op, custom metrics) as a
// machine-readable artifact and the performance trajectory stays diffable
// across commits:
//
//	go test -bench 'Metablocking|IndexQuery' -benchmem -run '^$' . \
//	  | go run ./cmd/benchjson > BENCH_hotpath.json
//
// With -compare it additionally gates on a committed baseline: any
// benchmark present in both runs whose allocs/op or B/op regressed by
// more than -max-regress (default 0.25, i.e. 25%) fails the run with
// exit status 1 after printing the offending rows to stderr — the CI
// bench-regression gate:
//
//	... | go run ./cmd/benchjson -compare BENCH_baseline.json > BENCH_hotpath.json
//
// Only those deterministic columns gate. ns/op depends on the machine (a
// baseline recorded elsewhere fails before any code changes), so its
// drift is printed as a note; wall-clock claims go through bench/run.sh,
// which compares against a parent run on the same host.
//
// Benchmarks only present on one side are reported to stderr but never
// fail the gate (new benchmarks land together with their baseline row on
// the next refresh; renamed ones would otherwise block unrelated PRs).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name    string  `json:"name"`
	Runs    int64   `json:"runs"`
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present with -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "comparisons/op").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// normalizeName strips the `-<procs>` suffix the testing package appends
// to benchmark names when GOMAXPROCS > 1 (at GOMAXPROCS=1 none is
// emitted). Without this, a baseline recorded on an N-core machine never
// matches a run on an M-core machine and -compare gates nothing: every
// benchmark would be a "not in baseline" note. Stripping exactly one
// trailing -procs group is safe against sub-benchmark names that happen
// to end in digits (e.g. shards-16 on a 16-proc machine is emitted as
// shards-16-16 and normalizes back to shards-16).
func normalizeName(name string, procs int) string {
	if procs > 1 {
		name = strings.TrimSuffix(name, fmt.Sprintf("-%d", procs))
	}
	return name
}

// parseLine parses one `BenchmarkX-8   123   456 ns/op   ...` line; ok is
// false for non-benchmark lines (headers, PASS, ok).
func parseLine(line string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	// benchjson runs in the same step, on the same machine, as the
	// `go test -bench` that produced its stdin, so its own GOMAXPROCS
	// matches the suffix of the names it is parsing.
	r := Result{Name: normalizeName(fields[0], runtime.GOMAXPROCS(0)), Runs: runs}
	// The remainder alternates value, unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = &v
		case "allocs/op":
			r.AllocsPerOp = &v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// regression describes one gate violation.
type regression struct {
	name     string
	metric   string
	baseline float64
	current  float64
}

// compareResults checks every benchmark present in both runs against the
// allowed regression ratio: allocs/op and B/op gate, ns/op drift and
// missing counterparts are reported via notes.
func compareResults(baseline, current []Result, maxRegress float64) (regs []regression, notes []string) {
	base := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	seen := make(map[string]bool, len(current))
	for _, cur := range current {
		seen[cur.Name] = true
		b, ok := base[cur.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: not in baseline (refresh BENCH_baseline.json to start gating it)", cur.Name))
			continue
		}
		if b.NsPerOp > 0 && cur.NsPerOp > b.NsPerOp*(1+maxRegress) {
			notes = append(notes, fmt.Sprintf("%s: ns/op %.6g -> %.6g (+%.1f%%; advisory, wall clock is gated by bench/run.sh)",
				cur.Name, b.NsPerOp, cur.NsPerOp, (cur.NsPerOp/b.NsPerOp-1)*100))
		}
		gate := func(metric string, base, now *float64) {
			if base != nil && now != nil && *now > *base*(1+maxRegress) {
				regs = append(regs, regression{name: cur.Name, metric: metric, baseline: *base, current: *now})
			}
		}
		gate("allocs/op", b.AllocsPerOp, cur.AllocsPerOp)
		gate("B/op", b.BytesPerOp, cur.BytesPerOp)
	}
	for _, r := range baseline {
		if !seen[r.Name] {
			notes = append(notes, fmt.Sprintf("%s: in baseline but not in this run", r.Name))
		}
	}
	return regs, notes
}

func main() {
	comparePath := flag.String("compare", "", "baseline JSON (as previously emitted by benchjson); exit 1 on regression beyond -max-regress")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional regression of allocs/op and B/op vs the baseline (ns/op drift beyond it is a note, not a failure)")
	flag.Parse()

	results := []Result{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if r, ok := parseLine(strings.TrimSpace(sc.Text())); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *comparePath == "" {
		return
	}

	raw, err := os.ReadFile(*comparePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var baseline []Result
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *comparePath, err)
		os.Exit(1)
	}
	regs, notes := compareResults(baseline, results, *maxRegress)
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "benchjson: note:", n)
	}
	if len(regs) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no regression beyond %.0f%% across %d benchmarks\n",
			*maxRegress*100, len(results))
		return
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s %s: %.6g -> %.6g (+%.1f%%, allowed %.0f%%)\n",
			r.name, r.metric, r.baseline, r.current, (r.current/r.baseline-1)*100, *maxRegress*100)
	}
	os.Exit(1)
}
