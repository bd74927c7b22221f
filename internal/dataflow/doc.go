// Package dataflow is the in-process cluster SparkER's distributed
// algorithms run on: a scheduler that runs each job's tasks on a fixed
// number of simulated executors, and a meter of what the jobs did. It
// holds what the pipeline calls and no more (surface_test.go fails on an
// exported function without a caller elsewhere in the module):
//
//   - MapRanges, the one job: [0, n) cut into contiguous ranges, one task
//     per range, outputs concatenated in range order;
//   - NewBroadcast, a read-only value shipped to every task, as the
//     paper's meta-blocking ships the block index;
//   - the Context with its metrics, AddShuffleRecords, task retries
//     (WithMaxTaskAttempts) and fault injection (WithFaultInjection).
//
// The twins of the batch stages (blocking.DistributedTokenBlockingCorpus,
// metablocking.RunDistributed, matching.MatchPairsDistributedCorpus,
// clustering.DistributedConnectedComponents) run the same flat kernels
// as the sequential pass, one range per task, so they return the same
// blocks, edges, matches and entities. What the dataflow path adds is
// the count of what Spark would do: tasks launched, failed and retried,
// broadcasts built, and the records the algorithm on Spark would move
// through a shuffle, which each twin's driver meters from its own
// output. Executors are goroutines started per stage; tasks are retried
// on failure, and the fault injector can kill task attempts to exercise
// the recovery path.
//
//	ctx := dataflow.NewContext(dataflow.WithParallelism(4))
//	defer ctx.Close()
//	squares, err := dataflow.MapRanges(ctx, len(xs), 0, func(lo, hi int) ([]int, error) {
//		out := make([]int, 0, hi-lo)
//		for _, x := range xs[lo:hi] {
//			out = append(out, x*x)
//		}
//		return out, nil
//	})
package dataflow
