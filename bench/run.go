// Package bench is the end-to-end benchmark behind cmd/sparker-load:
// it generates seeded inputs, runs four workloads against the real
// binaries, checks their outputs and reports end-to-end and per-layer
// metrics. It measures every layer from outside: calls into public
// functions, the HTTP surface, and /proc. See README.md.
package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// fullSeconds is the run length at which the phases have the sizes the
// workloads were designed with (20 s open loop, 20 000 saturation
// queries, ...). Shorter runs shrink every phase by seconds/fullSeconds;
// no workload is ever dropped to save time.
const fullSeconds = 40.0

// maxStealShare is the share of the run's CPU time the host may have
// stolen from this machine before the run's timings mean nothing.
const maxStealShare = 0.02

// Options selects and sizes one run.
type Options struct {
	// Workload names one workload.
	Workload string
	// Seed drives datagen, every shuffle and the op stream.
	Seed int64
	// Seconds is how long the run measures.
	Seconds float64
	// Trace selects the traced run (per-layer metrics) over the timed
	// one (end-to-end metrics).
	Trace bool
	// K overrides the workload's dataset scale (AbtBuy().Scaled(K));
	// zero keeps the workload's own. The smoke test runs on K=1.
	K int
	// ResultsDir receives traces and server logs (see ResultsDir).
	ResultsDir string
}

// scaled shrinks a full-length phase size to this run's length.
func (o Options) scaled(full float64) int {
	n := int(full * o.Seconds / fullSeconds)
	if n < 1 {
		n = 1
	}
	return n
}

func (o Options) k(own int) int {
	if o.K > 0 {
		return o.K
	}
	return own
}

// env is what every workload needs from its surroundings.
type env struct {
	Options
	bin string
	// work is this run's temp dir: inputs, snapshots, op logs.
	work string
	rng  *rand.Rand
	res  *Result
}

// Run executes one workload and returns its result. An error means the
// harness could not run the workload at all; failed output checks are
// reported in the result.
func Run(o Options) (*Result, error) {
	runners := map[string]func(*env) error{
		BatchResolve: runBatch,
		ServeRead:    runServeRead,
		ServeMixed:   runServeMixed,
		ClusterRead:  runClusterRead,
	}
	run, ok := runners[o.Workload]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", o.Workload, Workloads)
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("bench: -seconds must be positive, got %v", o.Seconds)
	}
	if o.ResultsDir == "" {
		return nil, fmt.Errorf("bench: no results directory given")
	}
	root, err := FindRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(o.ResultsDir, "logs"), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDirName), 0o755); err != nil {
		return nil, err
	}
	e := &env{Options: o, rng: rand.New(rand.NewSource(o.Seed)), res: newResult(o.Workload, o)}
	if o.Workload != BatchResolve {
		if e.bin, err = BuildServer(root); err != nil {
			return nil, err
		}
	}
	if e.work, err = os.MkdirTemp(filepath.Join(root, buildDirName), o.Workload+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	steal0, err := stealTicks()
	if err != nil {
		return nil, err
	}
	began := time.Now()
	if err := run(e); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", o.Workload, err)
	}
	steal1, err := stealTicks()
	if err != nil {
		return nil, err
	}
	stolen := float64(steal1-steal0) / clockTick / (time.Since(began).Seconds() * float64(runtime.NumCPU()))
	e.res.set("load.steal_share", stolen, 0)
	if stolen > maxStealShare {
		e.res.Invalid = append(e.res.Invalid, fmt.Sprintf("load.steal_share = %.3f > %.2f: the host took the CPUs away during the run", stolen, maxStealShare))
	}
	return e.res, nil
}

// tracePath is where a traced run writes its spans.
func (e *env) tracePath() string {
	return filepath.Join(e.ResultsDir, "trace-"+e.Workload+".jsonl")
}

// dataset generates and loads AbtBuy().Scaled(k) under a subdirectory
// of the work dir.
func (e *env) dataset(sub string, k int) (*Dataset, error) {
	dir := filepath.Join(e.work, sub)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := WriteDataset(dir, k, e.Seed)
	if err != nil {
		return nil, err
	}
	return d, d.LoadCollection()
}
