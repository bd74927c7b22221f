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
// — is broadcast, each pass's nodes are cut into contiguous ranges, one
// task per range, and each task materialises the neighbourhood of one
// node at a time, so the full edge set never crosses a shuffle. The
// pass-1 statistics are collected on the driver (per-node records, or
// CEP's weights — never edges) and the keep predicate decided from them
// is broadcast for the pruning pass. Results are bitwise-identical to
// Run.
func RunDistributed(ctx *dataflow.Context, idx *blocking.Index, opts Options, numPartitions int) ([]Edge, error) {
	if opts.Pruning < WEP || opts.Pruning > BlastPruning {
		return nil, fmt.Errorf("metablocking: unsupported pruning rule %v", opts.Pruning)
	}
	bp := dataflow.NewBroadcast(ctx, newPlan(idx, opts))
	p := bp.Value()
	stats, err := mapRanges(ctx, bp, p.statNodes(), numPartitions, (*plan).stats)
	if err != nil {
		return nil, err
	}
	bk := dataflow.NewBroadcast(ctx, p.decide(stats))
	// Pass 2 cuts only the nodes that own a forward edge, so no task is
	// handed a range of side-B nodes with nothing to emit.
	chunks, err := mapRanges(ctx, bp, p.owners, numPartitions,
		func(p *plan, part []profile.ID, s *neighbourScratch) [][]Edge { return p.edges(bk.Value(), part, s) })
	if err != nil {
		return nil, err
	}
	return slices.Concat(chunks...), nil
}

// mapRanges is how the dataflow driver maps one pass of the plan: ids
// are cut into numPartitions contiguous ranges, one dataflow task each;
// a task leases one flat scratch from the broadcast context's pool for
// its whole range, and the per-range results come back in range order.
func mapRanges[T any](ctx *dataflow.Context, bp *dataflow.Broadcast[*plan], ids []profile.ID, numPartitions int,
	pass func(p *plan, part []profile.ID, s *neighbourScratch) []T) ([]T, error) {
	return dataflow.MapRanges(ctx, len(ids), numPartitions, func(lo, hi int) ([]T, error) {
		p := bp.Value()
		s := p.g.scratch.get()
		defer p.g.scratch.put(s)
		return pass(p, ids[lo:hi], s), nil
	})
}

// RunNaiveDistributed is the baseline the broadcast-join design is
// measured against: it materialises one record per block-level comparison
// and reduces them by pair, as a flatMap + reduceByKey over the blocks
// would, then prunes with the global WEP threshold. Each task sums the
// comparisons of one range of blocks per pair (the map-side combine);
// the combined records are what the reduceByKey shuffle moves, and the
// driver meters them, merges the partial sums and keeps the edges at or
// above their mean weight. Only CBS/ARCS weighting and WEP pruning are
// supported — enough for a fair time/shuffle comparison; the point of
// the experiment is the shuffled-record count, visible in the context
// metrics.
func RunNaiveDistributed(ctx *dataflow.Context, idx *blocking.Index, opts Options, numPartitions int) ([]Edge, error) {
	if opts.Pruning != WEP {
		return nil, fmt.Errorf("metablocking: naive baseline supports WEP only, got %v", opts.Pruning)
	}
	if opts.Scheme != CBS && opts.Scheme != ARCS {
		return nil, fmt.Errorf("metablocking: naive baseline supports CBS or ARCS, got %v", opts.Scheme)
	}
	bg := dataflow.NewBroadcast(ctx, newGraphContext(idx, opts))
	partials, err := dataflow.MapRanges(ctx, len(idx.Blocks.Blocks), numPartitions, func(lo, hi int) ([]map[[2]profile.ID]float64, error) {
		g := bg.Value()
		sums := map[[2]profile.ID]float64{}
		for bi := lo; bi < hi; bi++ {
			b := &g.idx.Blocks.Blocks[bi]
			contribution := g.blockSum[bi]
			emit := func(x, y profile.ID) {
				if y < x {
					x, y = y, x
				}
				sums[[2]profile.ID{x, y}] += contribution
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
		}
		return []map[[2]profile.ID]float64{sums}, nil
	})
	if err != nil {
		return nil, err
	}

	// The reduce side: partial sums merge in range order, so a pair's
	// weight does not depend on the executor count.
	weights := map[[2]profile.ID]float64{}
	records := 0
	for _, sums := range partials {
		records += len(sums)
		for pair, w := range sums {
			weights[pair] += w
		}
	}
	ctx.AddShuffleRecords(records)
	if len(weights) == 0 {
		return nil, nil
	}
	edges := make([]Edge, 0, len(weights))
	for pair, w := range weights {
		edges = append(edges, Edge{A: pair[0], B: pair[1], Weight: w})
	}
	sortEdges(edges)
	sum := 0.0
	for _, e := range edges {
		sum += e.Weight
	}
	threshold := sum / float64(len(edges))
	return slices.DeleteFunc(edges, func(e Edge) bool { return e.Weight < threshold }), nil
}
