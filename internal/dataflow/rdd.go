package dataflow

import "sync"

// RDD is a lazy, partitioned dataset. Transformations build lineage;
// nothing executes until an action runs. An RDD is safe for concurrent
// actions once constructed.
type RDD[T any] struct {
	ctx   *Context
	name  string
	parts int
	// compute produces partition p. Narrow transformations call their
	// parent's compute in the same task (pipelining); shuffle RDDs return
	// pre-materialised buckets.
	compute func(p int, tc *TaskContext) ([]T, error)
	// prepare runs on the driver before any task of a dependent stage and
	// materialises upstream shuffle outputs (the stage barrier).
	prepare func() error

	cacheMu   sync.Mutex
	cacheOn   bool
	cache     [][]T
	cacheOnce []sync.Once
	cacheErr  []error
}

// Context returns the cluster context the RDD is bound to.
func (r *RDD[T]) Context() *Context { return r.ctx }

// NumPartitions reports the partition count.
func (r *RDD[T]) NumPartitions() int { return r.parts }

// Name returns the debug name of the RDD.
func (r *RDD[T]) Name() string { return r.name }

// Persist enables caching: each partition is computed at most once and
// reused by later jobs, like Spark's MEMORY_ONLY persistence.
func (r *RDD[T]) Persist() *RDD[T] {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if !r.cacheOn {
		r.cacheOn = true
		r.cache = make([][]T, r.parts)
		r.cacheOnce = make([]sync.Once, r.parts)
		r.cacheErr = make([]error, r.parts)
	}
	return r
}

// partition evaluates partition p honouring the cache.
func (r *RDD[T]) partition(p int, tc *TaskContext) ([]T, error) {
	r.cacheMu.Lock()
	cacheOn := r.cacheOn
	r.cacheMu.Unlock()
	if !cacheOn {
		return r.compute(p, tc)
	}
	r.cacheOnce[p].Do(func() {
		r.cache[p], r.cacheErr[p] = r.compute(p, tc)
	})
	return r.cache[p], r.cacheErr[p]
}

func newRDD[T any](ctx *Context, name string, parts int, prepare func() error,
	compute func(p int, tc *TaskContext) ([]T, error)) *RDD[T] {
	if prepare == nil {
		prepare = func() error { return nil }
	}
	return &RDD[T]{ctx: ctx, name: name, parts: parts, prepare: prepare, compute: compute}
}

// Parallelize distributes data across numPartitions partitions. A
// non-positive numPartitions uses the context default. Elements keep their
// order within and across partitions.
func Parallelize[T any](ctx *Context, data []T, numPartitions int) *RDD[T] {
	if numPartitions < 1 {
		numPartitions = ctx.DefaultPartitions()
	}
	n := len(data)
	if numPartitions > n && n > 0 {
		numPartitions = n
	}
	if n == 0 {
		numPartitions = 1
	}
	return newRDD(ctx, "parallelize", numPartitions, nil, func(p int, _ *TaskContext) ([]T, error) {
		lo := p * n / numPartitions
		hi := (p + 1) * n / numPartitions
		return data[lo:hi], nil
	})
}

// Map applies f to every element.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return newRDD(r.ctx, r.name+".map", r.parts, r.prepare, func(p int, tc *TaskContext) ([]U, error) {
		in, err := r.partition(p, tc)
		if err != nil {
			return nil, err
		}
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		r.ctx.metrics.RecordsProcessed.Add(int64(len(in)))
		return out, nil
	})
}

// FlatMap applies f to every element and concatenates the results.
func FlatMap[T, U any](r *RDD[T], f func(T) []U) *RDD[U] {
	return newRDD(r.ctx, r.name+".flatMap", r.parts, r.prepare, func(p int, tc *TaskContext) ([]U, error) {
		in, err := r.partition(p, tc)
		if err != nil {
			return nil, err
		}
		var out []U
		for _, v := range in {
			out = append(out, f(v)...)
		}
		r.ctx.metrics.RecordsProcessed.Add(int64(len(in)))
		return out, nil
	})
}

// Filter keeps the elements for which pred returns true.
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	return newRDD(r.ctx, r.name+".filter", r.parts, r.prepare, func(p int, tc *TaskContext) ([]T, error) {
		in, err := r.partition(p, tc)
		if err != nil {
			return nil, err
		}
		out := make([]T, 0, len(in))
		for _, v := range in {
			if pred(v) {
				out = append(out, v)
			}
		}
		r.ctx.metrics.RecordsProcessed.Add(int64(len(in)))
		return out, nil
	})
}

// MapPartitions applies f to each whole partition. The input slice must be
// treated as read-only.
func MapPartitions[T, U any](r *RDD[T], f func([]T) ([]U, error)) *RDD[U] {
	return newRDD(r.ctx, r.name+".mapPartitions", r.parts, r.prepare, func(p int, tc *TaskContext) ([]U, error) {
		in, err := r.partition(p, tc)
		if err != nil {
			return nil, err
		}
		r.ctx.metrics.RecordsProcessed.Add(int64(len(in)))
		return f(in)
	})
}

// collectPartitions materialises every partition of r, running one task per
// partition on the executor pool. It is the engine behind actions and
// shuffle stages.
func collectPartitions[T any](r *RDD[T]) ([][]T, error) {
	if err := r.prepare(); err != nil {
		return nil, err
	}
	out := make([][]T, r.parts)
	err := r.ctx.runStage(r.parts, func(tc *TaskContext) error {
		data, err := r.partition(tc.Partition, tc)
		if err != nil {
			return err
		}
		out[tc.Partition] = data
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Collect gathers all elements on the driver in partition order.
func (r *RDD[T]) Collect() ([]T, error) {
	r.ctx.metrics.JobsRun.Add(1)
	parts, err := collectPartitions(r)
	if err != nil {
		return nil, err
	}
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Count returns the number of elements.
func (r *RDD[T]) Count() (int64, error) {
	r.ctx.metrics.JobsRun.Add(1)
	if err := r.prepare(); err != nil {
		return 0, err
	}
	counts := make([]int64, r.parts)
	err := r.ctx.runStage(r.parts, func(tc *TaskContext) error {
		data, err := r.partition(tc.Partition, tc)
		if err != nil {
			return err
		}
		counts[tc.Partition] = int64(len(data))
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// Aggregate folds every element into a per-partition accumulator with seq
// and merges the partials with comb.
func Aggregate[T, A any](r *RDD[T], zero func() A, seq func(A, T) A, comb func(A, A) A) (A, error) {
	var zeroA A
	r.ctx.metrics.JobsRun.Add(1)
	if err := r.prepare(); err != nil {
		return zeroA, err
	}
	partial := make([]A, r.parts)
	err := r.ctx.runStage(r.parts, func(tc *TaskContext) error {
		data, err := r.partition(tc.Partition, tc)
		if err != nil {
			return err
		}
		acc := zero()
		for _, v := range data {
			acc = seq(acc, v)
		}
		partial[tc.Partition] = acc
		return nil
	})
	if err != nil {
		return zeroA, err
	}
	acc := zero()
	for _, p := range partial {
		acc = comb(acc, p)
	}
	return acc, nil
}
