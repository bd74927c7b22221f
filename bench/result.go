package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Sample is one reported metric value; N is the number of samples
// behind it (latencies behind a percentile, passes behind a median).
type Sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Check is one output check of a workload.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is everything one run of one workload reports.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Values    map[string]Sample `json:"metrics"`
	Checks    []Check           `json:"checks"`
	// Invalid lists why the run's numbers should not be used though its
	// outputs were correct: the generator ran late, or the server shed.
	Invalid []string `json:"invalid,omitempty"`
}

func newResult(workload string, o Options) *Result {
	return &Result{Workload: workload, Seed: o.Seed, Seconds: o.Seconds, Traced: o.Trace, Values: map[string]Sample{}}
}

// set records a metric. An undeclared name is a bug in the harness:
// the catalogue is the contract for what may be printed.
func (r *Result) set(name string, v float64, n int) {
	def, ok := catalogByName[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	r.Values[name] = Sample{Value: v, Unit: def.Unit, N: n}
}

// check records an output check. A check made once per round is one
// entry: it passes if every round's did, and keeps the first failure.
func (r *Result) check(name string, ok bool, format string, args ...any) {
	c := Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	for i := range r.Checks {
		if r.Checks[i].Name == name {
			if r.Checks[i].OK {
				r.Checks[i] = c
			}
			return
		}
	}
	r.Checks = append(r.Checks, c)
}

// Correct reports whether every output check passed.
func (r *Result) Correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Err is nil for a run whose numbers may be used: every output check
// passed and nothing made the measurement invalid. The command exits
// non-zero on failed checks, and A/A mode runs an invalid run again.
func (r *Result) Err() error {
	if !r.Correct() {
		return fmt.Errorf("bench: %s failed its output checks", r.Workload)
	}
	if len(r.Invalid) > 0 {
		return fmt.Errorf("bench: %s: invalid run: %s", r.Workload, strings.Join(r.Invalid, "; "))
	}
	return nil
}

// contractKind is the metric kind the final line must carry.
func (r *Result) contractKind() Kind {
	if r.Traced {
		return PerLayer
	}
	return EndToEnd
}

// finalLine is the one JSON object the benchmark contract asks for.
type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// FinalLine renders the contract line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one. A metric the
// run did not produce, or produced as NaN or infinity, is an error.
func (r *Result) FinalLine() ([]byte, error) {
	line := finalLine{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	for _, def := range Catalog {
		if def.Kind != r.contractKind() {
			continue
		}
		s, ok := r.Values[def.Name]
		if !ok {
			return nil, fmt.Errorf("bench: %s did not report %s", r.Workload, def.Name)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return nil, fmt.Errorf("bench: %s reported %s = %v", r.Workload, def.Name, s.Value)
		}
		line.Metrics[def.Name] = lineMetric{Value: s.Value, Unit: s.Unit}
	}
	if line.Attempted < 1 {
		return nil, fmt.Errorf("bench: %s attempted no operation", r.Workload)
	}
	return json.Marshal(line)
}

// Print writes every metric by name with its unit and sample count,
// then the checks.
func (r *Result) Print(w io.Writer) {
	mode := "timed"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.3g s) attempted=%d failed=%d\n", r.Workload, mode, r.Seed, r.Seconds, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Values))
	for name := range r.Values {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ki, kj := catalogByName[names[i]].Kind, catalogByName[names[j]].Kind
		if ki != kj {
			return ki < kj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		s := r.Values[name]
		n := ""
		if s.N > 0 {
			n = fmt.Sprintf("n=%d", s.N)
		}
		fmt.Fprintf(w, "  %-44s %16.6g %-6s %s\n", name, s.Value, s.Unit, n)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-38s %s\n", c.Name, status)
	}
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "  INVALID RUN: %s\n", why)
	}
}

// ResultsDir is bench/results under the module root: the kept results,
// the traces and the server logs.
func ResultsDir(root string) string { return filepath.Join(root, "bench", "results") }

// historyLine is one line of BENCH_history.jsonl.
type historyLine struct {
	Time      string    `json:"time"`
	Commit    string    `json:"commit"`
	NProc     int       `json:"nproc"`
	GoVersion string    `json:"go"`
	Seed      int64     `json:"seed"`
	Claim     *string   `json:"claim"` // always null: the harness measures, it claims nothing
	Results   []*Result `json:"results"`
}

// Keep writes the invocation's results to BENCH_e2e.json (latest) and
// appends them as one line to BENCH_history.jsonl (the trajectory).
func Keep(root, resultsDir string, seed int64, results []*Result) error {
	line := historyLine{
		Time:      time.Now().UTC().Format(time.RFC3339),
		Commit:    commitOf(root),
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Seed:      seed,
		Results:   results,
	}
	pretty, err := json.MarshalIndent(line, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(resultsDir, "BENCH_e2e.json"), append(pretty, '\n'), 0o644); err != nil {
		return err
	}
	compact, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(resultsDir, "BENCH_history.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(compact, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commitOf names the commit under test; the driver's checkout is not a
// git repository, so "unknown" is an expected answer.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
