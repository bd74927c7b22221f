package bench

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestCatalogueMatchesBenchmarkFile keeps BENCHMARK.json and the
// catalogue in step: same names, units, directions and bounds, every
// workload with its why.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	declared := map[string]MetricDef{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = MetricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Kind: EndToEnd, Bound: m.Bound}
	}
	for _, m := range bf.PerLayer {
		declared[m.Name] = MetricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Kind: PerLayer}
	}
	if len(declared) != len(bf.EndToEnd)+len(bf.PerLayer) {
		t.Error("BENCHMARK.json uses a metric name twice")
	}
	inCatalog := 0
	for _, def := range Catalog {
		if !nameRE.MatchString(def.Name) {
			t.Errorf("catalogue name %q does not match %v", def.Name, nameRE)
		}
		if def.Kind == Diagnostic {
			if _, ok := declared[def.Name]; ok {
				t.Errorf("%s is a diagnostic but BENCHMARK.json declares it", def.Name)
			}
			continue
		}
		inCatalog++
		got, ok := declared[def.Name]
		if !ok {
			t.Errorf("catalogue metric %s is missing from BENCHMARK.json", def.Name)
			continue
		}
		if got.Unit != def.Unit || got.Better != def.Better || got.Kind != def.Kind || got.Bound != def.Bound {
			t.Errorf("%s: BENCHMARK.json says %+v, the catalogue %+v", def.Name, got, def)
		}
		if def.Kind == EndToEnd && (def.Bound <= 0 || def.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
		if moved, ok := catalogByName[def.Moves]; def.Moves != "" && (!ok || moved.Kind != EndToEnd) {
			t.Errorf("%s is predicted to move %q, which is not an end-to-end metric", def.Name, def.Moves)
		}
	}
	if inCatalog != len(declared) {
		t.Errorf("BENCHMARK.json declares %d metrics, the catalogue %d", len(declared), inCatalog)
	}
	if _, ok := declared["setup_s"]; !ok {
		t.Error("BENCHMARK.json lacks setup_s")
	}

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	want := append([]string(nil), Workloads...)
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness workloads %v", names, want)
	}
}

// TestSmoke runs every workload, timed and traced, at a fiftieth of
// the benchmark's run length on the smallest dataset, and holds what
// each run emits to BENCHMARK.json: every declared name emitted, every
// emitted name declared in the catalogue, all output checks passing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real sparker-serve processes")
	}
	bf := readBenchmarkFile(t)
	results := t.TempDir()
	var all []*Result
	for _, name := range Workloads {
		for _, traced := range []bool{false, true} {
			r, err := Run(Options{
				Workload: name, Seed: 1234, Seconds: 0.02 * float64(bf.RunSeconds),
				Trace: traced, K: 1, ResultsDir: results,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			all = append(all, r)
			for _, c := range r.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %q failed: %s", name, traced, c.Name, c.Detail)
				}
			}
			// go test runs the packages of the module side by side, so
			// a late generator is this machine being busy, not a defect.
			for _, why := range r.Invalid {
				t.Logf("%s traced=%v: invalid run: %s", name, traced, why)
			}
			if r.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed", name, traced, r.Failed, r.Attempted)
			}
			line, err := r.FinalLine()
			if err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
				continue
			}
			var out struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", name, traced, out.Correct, out.Attempted)
			}
			want := map[string]bool{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = true
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = true
				}
			}
			for n := range want {
				if _, ok := out.Metrics[n]; !ok {
					t.Errorf("%s traced=%v: %s declared in BENCHMARK.json but not emitted", name, traced, n)
				}
			}
			for n := range out.Metrics {
				if !want[n] {
					t.Errorf("%s traced=%v: %s emitted but not declared in BENCHMARK.json", name, traced, n)
				}
			}
		}
	}
	if err := Keep(results, results, 1234, all); err != nil {
		t.Fatalf("keeping results: %v", err)
	}
	for _, f := range []string{"BENCH_e2e.json", "BENCH_history.jsonl"} {
		if st, err := os.Stat(filepath.Join(results, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", f, err)
		}
	}
}

// TestInvalidRunIsRefused pins what an invalid run costs: no result is
// used from it, and A/A mode measures again rather than fold it into a
// median.
func TestInvalidRunIsRefused(t *testing.T) {
	valid := &Result{Workload: ServeRead}
	invalid := &Result{Workload: ServeRead, Invalid: []string{"load.late_ms_p99 = 3 ms"}}
	wrong := &Result{Workload: ServeRead, Checks: []Check{{Name: "answers", OK: false}}}
	if valid.Err() != nil || invalid.Err() == nil || wrong.Err() == nil {
		t.Fatalf("Err: valid %v, invalid %v, wrong %v", valid.Err(), invalid.Err(), wrong.Err())
	}

	calls := 0
	feed := func(rs ...*Result) func() (*Result, error) {
		calls = 0
		return func() (*Result, error) { calls++; return rs[calls-1], nil }
	}
	if r, err := runValid(feed(invalid, invalid, valid), io.Discard); err != nil || r != valid || calls != 3 {
		t.Errorf("two invalid runs then a valid one: result %v, err %v after %d runs", r, err, calls)
	}
	if _, err := runValid(feed(invalid, invalid, invalid, valid), io.Discard); err == nil || calls != 1+aaRetries {
		t.Errorf("only invalid runs: err %v after %d runs, want an error after %d", err, calls, 1+aaRetries)
	}
	if _, err := runValid(feed(wrong, valid), io.Discard); err == nil || calls != 1 {
		t.Errorf("failed checks: err %v after %d runs, want an error at once", err, calls)
	}
}
