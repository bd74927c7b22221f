package dataflow

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Config controls the simulated cluster.
type Config struct {
	// Parallelism is the number of executor goroutines. It plays the role
	// of the total executor-core count of a Spark cluster.
	Parallelism int
	// MaxTaskAttempts bounds retries for a failing task (>=1).
	MaxTaskAttempts int
	// FaultRate is the probability that a task attempt is killed by the
	// fault injector before it runs. Zero disables injection.
	FaultRate float64
	// FaultSeed seeds the fault injector for deterministic tests.
	FaultSeed int64
	// MaxInjectedFaults caps the total number of injected failures so a
	// high FaultRate cannot make a job unwinnable.
	MaxInjectedFaults int
}

// Option mutates a Config.
type Option func(*Config)

// WithParallelism sets the executor count.
func WithParallelism(n int) Option { return func(c *Config) { c.Parallelism = n } }

// WithMaxTaskAttempts sets the per-task attempt budget.
func WithMaxTaskAttempts(n int) Option { return func(c *Config) { c.MaxTaskAttempts = n } }

// WithFaultInjection enables the fault injector: each task attempt fails
// with probability rate, up to maxFaults total injected failures.
func WithFaultInjection(rate float64, seed int64, maxFaults int) Option {
	return func(c *Config) {
		c.FaultRate = rate
		c.FaultSeed = seed
		c.MaxInjectedFaults = maxFaults
	}
}

// Metrics aggregates counters across all jobs run on a Context. All fields
// are updated atomically; read a consistent view with Context.Metrics.
type Metrics struct {
	JobsRun          atomic.Int64
	StagesRun        atomic.Int64
	TasksLaunched    atomic.Int64
	TasksFailed      atomic.Int64
	TasksRetried     atomic.Int64
	ShuffleRecords   atomic.Int64
	BroadcastsBuilt  atomic.Int64
	RecordsProcessed atomic.Int64
}

// MetricsSnapshot is a plain-value copy of Metrics.
type MetricsSnapshot struct {
	JobsRun          int64
	StagesRun        int64
	TasksLaunched    int64
	TasksFailed      int64
	TasksRetried     int64
	ShuffleRecords   int64
	BroadcastsBuilt  int64
	RecordsProcessed int64
}

func (m *Metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		JobsRun:          m.JobsRun.Load(),
		StagesRun:        m.StagesRun.Load(),
		TasksLaunched:    m.TasksLaunched.Load(),
		TasksFailed:      m.TasksFailed.Load(),
		TasksRetried:     m.TasksRetried.Load(),
		ShuffleRecords:   m.ShuffleRecords.Load(),
		BroadcastsBuilt:  m.BroadcastsBuilt.Load(),
		RecordsProcessed: m.RecordsProcessed.Load(),
	}
}

// Context is the driver for a simulated cluster: a scheduler that runs
// the tasks of each job on Parallelism executors, retrying failed
// attempts, and a meter of what the jobs did.
type Context struct {
	cfg     Config
	metrics Metrics
	faults  *faultInjector
	stageID atomic.Int64
	closed  atomic.Bool
}

// NewContext starts a simulated cluster. With no options it uses one
// executor per CPU core.
func NewContext(opts ...Option) *Context {
	cfg := Config{
		Parallelism:     runtime.NumCPU(),
		MaxTaskAttempts: 3,
	}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.Parallelism = max(cfg.Parallelism, 1)
	cfg.MaxTaskAttempts = max(cfg.MaxTaskAttempts, 1)
	c := &Context{cfg: cfg}
	if cfg.FaultRate > 0 {
		c.faults = newFaultInjector(cfg.FaultRate, cfg.FaultSeed, cfg.MaxInjectedFaults)
	}
	return c
}

// Close marks the context closed: jobs submitted after Close fail, and a
// job already running finishes on its own executors.
func (c *Context) Close() { c.closed.Store(true) }

// Parallelism reports the executor count.
func (c *Context) Parallelism() int { return c.cfg.Parallelism }

// Metrics returns a snapshot of the cluster counters.
func (c *Context) Metrics() MetricsSnapshot { return c.metrics.snapshot() }

// ResetMetrics zeroes all counters (useful between benchmark phases).
func (c *Context) ResetMetrics() {
	c.metrics = Metrics{}
}

// AddShuffleRecords meters records that a job moves between executors:
// what a Spark shuffle would write and read. The jobs' drivers call it
// with the record counts of the exchange their algorithm implies.
func (c *Context) AddShuffleRecords(n int) { c.metrics.ShuffleRecords.Add(int64(n)) }

// MapRanges runs one job of one stage. It cuts [0, n) into parts
// contiguous, ascending ranges, as kernel.ForRanges does (parts is
// clamped to [1, n], and a non-positive parts means one range per
// executor), runs f on each range as one task, and returns the tasks'
// outputs concatenated in range order, so the result does not depend on
// the executor count. A failed task attempt is retried up to
// MaxTaskAttempts, so f may run more than once for a range and must
// return the same output each time.
func MapRanges[T any](ctx *Context, n, parts int, f func(lo, hi int) ([]T, error)) ([]T, error) {
	if parts < 1 {
		parts = ctx.cfg.Parallelism
	}
	parts = max(1, min(parts, n))
	ctx.metrics.JobsRun.Add(1)
	outs := make([][]T, parts)
	err := ctx.runStage(parts, func(p int) error {
		lo, hi := p*n/parts, (p+1)*n/parts
		out, err := f(lo, hi)
		if err != nil {
			return err
		}
		outs[p] = out
		ctx.metrics.RecordsProcessed.Add(int64(hi - lo))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if all := slices.Concat(outs...); all != nil {
		return all, nil
	}
	return []T{}, nil // no records is an empty result, not a nil one
}

// taskError wraps a failure with its partition for diagnostics.
type taskError struct {
	partition int
	attempt   int
	err       error
}

func (e *taskError) Error() string {
	return fmt.Sprintf("dataflow: task for partition %d failed (attempt %d): %v", e.partition, e.attempt, e.err)
}

func (e *taskError) Unwrap() error { return e.err }

// runStage executes fn once per partition, retrying failed attempts up
// to MaxTaskAttempts, on min(Parallelism, partitions) executors started
// for the stage that pull partition numbers until none is left. It
// returns the first unrecovered error, in partition order, if any.
func (c *Context) runStage(partitions int, fn func(partition int) error) error {
	if c.closed.Load() {
		return fmt.Errorf("dataflow: context is closed")
	}
	stage := c.stageID.Add(1)
	c.metrics.StagesRun.Add(1)

	errs := make([]error, partitions)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(c.cfg.Parallelism, partitions) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := int(next.Add(1)) - 1; p < partitions; p = int(next.Add(1)) - 1 {
				errs[p] = c.runTaskWithRetry(stage, p, fn)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *Context) runTaskWithRetry(stage int64, partition int, fn func(partition int) error) error {
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxTaskAttempts; attempt++ {
		c.metrics.TasksLaunched.Add(1)
		if attempt > 1 {
			c.metrics.TasksRetried.Add(1)
		}
		err := c.runTaskAttempt(stage, partition, attempt, fn)
		if err == nil {
			return nil
		}
		c.metrics.TasksFailed.Add(1)
		lastErr = &taskError{partition: partition, attempt: attempt, err: err}
	}
	return lastErr
}

func (c *Context) runTaskAttempt(stage int64, partition, attempt int, fn func(partition int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dataflow: task panic: %v", r)
		}
	}()
	if c.faults != nil && c.faults.shouldFail() {
		return fmt.Errorf("dataflow: injected fault (stage %d partition %d attempt %d)", stage, partition, attempt)
	}
	return fn(partition)
}

// faultInjector kills task attempts with a fixed probability, up to a cap.
type faultInjector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rate     float64
	injected int
	max      int
}

func newFaultInjector(rate float64, seed int64, max int) *faultInjector {
	if max <= 0 {
		max = 1 << 30
	}
	return &faultInjector{rng: rand.New(rand.NewSource(seed)), rate: rate, max: max}
}

func (f *faultInjector) shouldFail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.injected >= f.max {
		return false
	}
	if f.rng.Float64() < f.rate {
		f.injected++
		return true
	}
	return false
}
