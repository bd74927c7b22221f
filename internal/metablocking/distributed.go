package metablocking

import (
	"fmt"
	"slices"

	"sparker/internal/blocking"
	"sparker/internal/dataflow"
	"sparker/internal/profile"
)

// RunDistributed executes meta-blocking on the dataflow engine using the
// paper's broadcast-join-inspired algorithm: the plan — the compact block
// index with its per-block entropies and comparison cardinalities,
// exactly the structures the Spark implementation ships to each executor
// — is broadcast, each pass's nodes are partitioned into contiguous
// ranges, and each task materialises the neighbourhood of one node at a
// time, so the full edge set never crosses the shuffle. The pass-1
// statistics are collected on the driver (per-node records, or CEP's
// weights — never edges) and the keep predicate decided from them is
// broadcast for the pruning pass. Results are bitwise-identical to Run.
func RunDistributed(ctx *dataflow.Context, idx *blocking.Index, opts Options, numPartitions int) ([]Edge, error) {
	if opts.Pruning < WEP || opts.Pruning > BlastPruning {
		return nil, fmt.Errorf("metablocking: unsupported pruning rule %v", opts.Pruning)
	}
	if numPartitions < 1 {
		numPartitions = ctx.DefaultPartitions()
	}
	bp := dataflow.NewBroadcast(ctx, newPlan(idx, opts))
	p := bp.Value()
	stats, err := mapRanges(ctx, bp, p.statNodes(), numPartitions, (*plan).stats)
	if err != nil {
		return nil, err
	}
	bk := dataflow.NewBroadcast(ctx, p.decide(stats))
	// Pass 2 partitions only the nodes that own a forward edge, so no task
	// is handed a range of side-B nodes with nothing to emit.
	chunks, err := mapRanges(ctx, bp, p.owners, numPartitions,
		func(p *plan, part []profile.ID, s *neighbourScratch) [][]Edge { return p.edges(bk.Value(), part, s) })
	if err != nil {
		return nil, err
	}
	return slices.Concat(chunks...), nil
}

// mapRanges is how the dataflow driver maps one pass of the plan: ids
// are split into numPartitions contiguous ranges, each task leases one
// flat scratch from the broadcast context's pool for its whole range,
// and the per-range results are collected in range order.
func mapRanges[T any](ctx *dataflow.Context, bp *dataflow.Broadcast[*plan], ids []profile.ID, numPartitions int,
	pass func(p *plan, part []profile.ID, s *neighbourScratch) []T) ([]T, error) {
	ranges := dataflow.Parallelize(ctx, ids, numPartitions)
	return dataflow.MapPartitions(ranges, func(part []profile.ID) ([]T, error) {
		p := bp.Value()
		s := p.g.scratch.get()
		defer p.g.scratch.put(s)
		return pass(p, part, s), nil
	}).Collect()
}

// RunNaiveDistributed is the baseline the broadcast-join design is
// measured against: it materialises one record per block-level comparison
// through the shuffle (flatMap blocks → (pair, stats), reduceByKey), then
// prunes with the global WEP threshold. Only CBS/ARCS weighting and WEP
// pruning are supported — enough for a fair time/shuffle comparison; the
// point of the experiment is the shuffled-record count, visible in the
// context metrics.
func RunNaiveDistributed(ctx *dataflow.Context, idx *blocking.Index, opts Options, numPartitions int) ([]Edge, error) {
	if opts.Pruning != WEP {
		return nil, fmt.Errorf("metablocking: naive baseline supports WEP only, got %v", opts.Pruning)
	}
	if opts.Scheme != CBS && opts.Scheme != ARCS {
		return nil, fmt.Errorf("metablocking: naive baseline supports CBS or ARCS, got %v", opts.Scheme)
	}
	g := newGraphContext(idx, opts)
	if numPartitions < 1 {
		numPartitions = ctx.DefaultPartitions()
	}
	col := idx.Blocks

	blocks := dataflow.Parallelize(ctx, makeOrdinals(len(col.Blocks)), numPartitions)
	bcol := dataflow.NewBroadcast(ctx, g)

	// Materialise every comparison of every block: the full aggregate
	// cardinality flows through the shuffle.
	pairs := dataflow.FlatMap(blocks, func(bi int32) []dataflow.KV[[2]int32, float64] {
		gg := bcol.Value()
		b := &gg.idx.Blocks.Blocks[bi]
		contribution := gg.blockSum[bi]
		var out []dataflow.KV[[2]int32, float64]
		emit := func(x, y profile.ID) {
			if y < x {
				x, y = y, x
			}
			out = append(out, dataflow.KV[[2]int32, float64]{Key: [2]int32{int32(x), int32(y)}, Value: contribution})
		}
		if b.CleanClean {
			for _, a := range b.A {
				for _, bb := range b.B {
					emit(a, bb)
				}
			}
		} else {
			for i := 0; i < len(b.A); i++ {
				for j := i + 1; j < len(b.A); j++ {
					emit(b.A[i], b.A[j])
				}
			}
		}
		return out
	})
	weighted := dataflow.ReduceByKey(pairs, func(a, b float64) float64 { return a + b }, numPartitions).Persist()

	type sumCount struct {
		Sum   float64
		Count int64
	}
	agg, err := dataflow.Aggregate(weighted,
		func() sumCount { return sumCount{} },
		func(acc sumCount, kv dataflow.KV[[2]int32, float64]) sumCount {
			acc.Sum += kv.Value
			acc.Count++
			return acc
		},
		func(a, b sumCount) sumCount { return sumCount{a.Sum + b.Sum, a.Count + b.Count} })
	if err != nil {
		return nil, err
	}
	if agg.Count == 0 {
		return nil, nil
	}
	threshold := agg.Sum / float64(agg.Count)

	kept := dataflow.Filter(weighted, func(kv dataflow.KV[[2]int32, float64]) bool {
		return kv.Value >= threshold
	})
	edges := dataflow.Map(kept, func(kv dataflow.KV[[2]int32, float64]) Edge {
		return Edge{A: profile.ID(kv.Key[0]), B: profile.ID(kv.Key[1]), Weight: kv.Value}
	})
	out, err := edges.Collect()
	if err != nil {
		return nil, err
	}
	sortEdges(out)
	return out, nil
}

func makeOrdinals(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
