package dataflow

import "sync"

// KV is a key-value pair, the element type of keyed RDDs.
type KV[K comparable, V any] struct {
	Key   K
	Value V
}

// shuffleState materialises the hash-exchange output of a wide dependency
// exactly once. prepare() runs it on the driver, giving the stage barrier.
type shuffleState[T any] struct {
	once    sync.Once
	runFn   func()
	buckets [][]T
	err     error
}

func (s *shuffleState[T]) materialise() error {
	s.once.Do(s.runFn)
	return s.err
}

// exchange hash-partitions every record of r into numPartitions buckets by
// key. It is the moral equivalent of writing and reading shuffle files.
func exchange[K comparable, V any](r *RDD[KV[K, V]], numPartitions int) *shuffleState[KV[K, V]] {
	st := &shuffleState[KV[K, V]]{}
	st.runFn = func() {
		parts, err := collectPartitions(r)
		if err != nil {
			st.err = err
			return
		}
		buckets := make([][]KV[K, V], numPartitions)
		var n int64
		for _, part := range parts {
			for _, kv := range part {
				b := hashKey(kv.Key, numPartitions)
				buckets[b] = append(buckets[b], kv)
				n++
			}
		}
		r.ctx.metrics.ShuffleRecords.Add(n)
		st.buckets = buckets
	}
	return st
}

// partitionBy redistributes a keyed RDD across numPartitions partitions by
// key hash. A non-positive numPartitions uses the context default.
func partitionBy[K comparable, V any](r *RDD[KV[K, V]], numPartitions int) *RDD[KV[K, V]] {
	if numPartitions < 1 {
		numPartitions = r.ctx.DefaultPartitions()
	}
	st := exchange(r, numPartitions)
	prepare := func() error {
		if err := r.prepare(); err != nil {
			return err
		}
		return st.materialise()
	}
	return newRDD(r.ctx, r.name+".partitionBy", numPartitions, prepare, func(p int, _ *TaskContext) ([]KV[K, V], error) {
		if err := st.materialise(); err != nil {
			return nil, err
		}
		return st.buckets[p], nil
	})
}

// GroupByKey shuffles the RDD and groups all values sharing a key.
func GroupByKey[K comparable, V any](r *RDD[KV[K, V]], numPartitions int) *RDD[KV[K, []V]] {
	part := partitionBy(r, numPartitions)
	return MapPartitions(part, func(in []KV[K, V]) ([]KV[K, []V], error) {
		groups := make(map[K][]V)
		var order []K
		for _, kv := range in {
			if _, seen := groups[kv.Key]; !seen {
				order = append(order, kv.Key)
			}
			groups[kv.Key] = append(groups[kv.Key], kv.Value)
		}
		out := make([]KV[K, []V], 0, len(order))
		for _, k := range order {
			out = append(out, KV[K, []V]{Key: k, Value: groups[k]})
		}
		return out, nil
	})
}

// ReduceByKey combines values per key with an associative, commutative
// function. Values are pre-combined map-side before the shuffle, exactly as
// Spark does, which the shuffle-record metric reflects.
func ReduceByKey[K comparable, V any](r *RDD[KV[K, V]], combine func(V, V) V, numPartitions int) *RDD[KV[K, V]] {
	combined := MapPartitions(r, func(in []KV[K, V]) ([]KV[K, V], error) {
		acc := make(map[K]V)
		var order []K
		for _, kv := range in {
			if prev, seen := acc[kv.Key]; seen {
				acc[kv.Key] = combine(prev, kv.Value)
			} else {
				acc[kv.Key] = kv.Value
				order = append(order, kv.Key)
			}
		}
		out := make([]KV[K, V], 0, len(order))
		for _, k := range order {
			out = append(out, KV[K, V]{Key: k, Value: acc[k]})
		}
		return out, nil
	})
	grouped := GroupByKey(combined, numPartitions)
	return Map(grouped, func(kv KV[K, []V]) KV[K, V] {
		acc := kv.Value[0]
		for _, v := range kv.Value[1:] {
			acc = combine(acc, v)
		}
		return KV[K, V]{Key: kv.Key, Value: acc}
	})
}

// CollectAsMap collects a keyed RDD into a map (later duplicates win).
func CollectAsMap[K comparable, V any](r *RDD[KV[K, V]]) (map[K]V, error) {
	kvs, err := r.Collect()
	if err != nil {
		return nil, err
	}
	out := make(map[K]V, len(kvs))
	for _, kv := range kvs {
		out[kv.Key] = kv.Value
	}
	return out, nil
}
