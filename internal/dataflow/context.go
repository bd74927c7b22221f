package dataflow

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config controls the simulated cluster.
type Config struct {
	// Parallelism is the number of executor goroutines. It plays the role
	// of the total executor-core count of a Spark cluster.
	Parallelism int
	// DefaultPartitions is the partition count used when a caller passes
	// a non-positive value to Parallelize or to a shuffle operation.
	DefaultPartitions int
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

// Context is the driver for a simulated cluster. It owns the executor pool
// and must be closed when no more jobs will run.
type Context struct {
	cfg     Config
	tasks   chan func()
	wg      sync.WaitGroup
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
	if cfg.Parallelism < 1 {
		cfg.Parallelism = 1
	}
	if cfg.DefaultPartitions < 1 {
		cfg.DefaultPartitions = cfg.Parallelism
	}
	if cfg.MaxTaskAttempts < 1 {
		cfg.MaxTaskAttempts = 1
	}
	c := &Context{
		cfg:   cfg,
		tasks: make(chan func(), 4*cfg.Parallelism),
	}
	if cfg.FaultRate > 0 {
		c.faults = newFaultInjector(cfg.FaultRate, cfg.FaultSeed, cfg.MaxInjectedFaults)
	}
	for i := 0; i < cfg.Parallelism; i++ {
		c.wg.Add(1)
		go c.executor()
	}
	return c
}

func (c *Context) executor() {
	defer c.wg.Done()
	for task := range c.tasks {
		task()
	}
}

// Close shuts the executor pool down. Jobs submitted after Close fail.
func (c *Context) Close() {
	if c.closed.CompareAndSwap(false, true) {
		close(c.tasks)
		c.wg.Wait()
	}
}

// Parallelism reports the executor count.
func (c *Context) Parallelism() int { return c.cfg.Parallelism }

// DefaultPartitions reports the default partition count.
func (c *Context) DefaultPartitions() int { return c.cfg.DefaultPartitions }

// Metrics returns a snapshot of the cluster counters.
func (c *Context) Metrics() MetricsSnapshot { return c.metrics.snapshot() }

// ResetMetrics zeroes all counters (useful between benchmark phases).
func (c *Context) ResetMetrics() {
	c.metrics = Metrics{}
}

// TaskContext is passed to every task attempt.
type TaskContext struct {
	Partition int
	Attempt   int
	StageID   int64
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

// runStage executes fn once per partition on the executor pool, retrying
// failed attempts up to MaxTaskAttempts. It returns the first unrecovered
// error, if any.
func (c *Context) runStage(partitions int, fn func(tc *TaskContext) error) error {
	if c.closed.Load() {
		return fmt.Errorf("dataflow: context is closed")
	}
	stage := c.stageID.Add(1)
	c.metrics.StagesRun.Add(1)

	errs := make([]error, partitions)
	var wg sync.WaitGroup
	wg.Add(partitions)
	for p := 0; p < partitions; p++ {
		p := p
		c.tasks <- func() {
			defer wg.Done()
			errs[p] = c.runTaskWithRetry(stage, p, fn)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *Context) runTaskWithRetry(stage int64, partition int, fn func(tc *TaskContext) error) error {
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

func (c *Context) runTaskAttempt(stage int64, partition, attempt int, fn func(tc *TaskContext) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dataflow: task panic: %v", r)
		}
	}()
	if c.faults != nil && c.faults.shouldFail() {
		return fmt.Errorf("dataflow: injected fault (stage %d partition %d attempt %d)", stage, partition, attempt)
	}
	return fn(&TaskContext{Partition: partition, Attempt: attempt, StageID: stage})
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
