// Package dataflow is a from-scratch, in-process reimplementation of the
// subset of Apache Spark that SparkER relies on — the operators the
// pipeline calls and no others (surface_test.go fails on an exported
// function without a caller elsewhere in the module): lazy, partitioned,
// generic RDDs with lineage; narrow transformations that pipeline inside a
// task; a hash shuffle with a stage barrier; broadcast variables; and a
// scheduler that executes the tasks of each stage on a fixed pool of
// simulated executors.
//
//   - sources and narrow transformations: Parallelize, Map, FlatMap,
//     Filter, MapPartitions, and RDD.Persist;
//   - the shuffle: GroupByKey, ReduceByKey (map-side combined);
//   - actions: RDD.Collect, RDD.Count, Aggregate, CollectAsMap;
//   - NewBroadcast; the Context with its metrics, task retries
//     (WithMaxTaskAttempts) and fault injection (WithFaultInjection).
//
// The engine exists so that the distributed algorithms of the paper
// (distributed token blocking, broadcast-join meta-blocking, iterative
// connected components) can be expressed with the same primitives the
// authors used on Spark, and so that scalability experiments can sweep the
// executor count. Executors are goroutines and the shuffle is an in-memory
// hash exchange, but all algorithmic structure is real: stages run to
// completion before their dependents, shuffled records are counted, tasks
// are retried on failure, and fault injection can kill task attempts to
// exercise the recovery path.
//
// Because Go methods cannot introduce new type parameters, transformations
// that change the element type are package-level functions:
//
//	ctx := dataflow.NewContext(dataflow.WithParallelism(4))
//	defer ctx.Close()
//	nums := dataflow.Parallelize(ctx, []int{1, 2, 3, 4}, 4)
//	sq := dataflow.Map(nums, func(x int) int { return x * x })
//	squares, err := sq.Collect()
//
// Keyed operations work on RDDs of KV pairs:
//
//	pairs := dataflow.Map(words, func(w string) dataflow.KV[string, int] {
//		return dataflow.KV[string, int]{Key: w, Value: 1}
//	})
//	counts := dataflow.ReduceByKey(pairs, func(a, b int) int { return a + b }, 0)
package dataflow
