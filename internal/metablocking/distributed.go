package metablocking

import (
	"fmt"
	"sort"

	"sparker/internal/blocking"
	"sparker/internal/dataflow"
	"sparker/internal/profile"
)

// RunDistributed executes meta-blocking on the dataflow engine using the
// paper's broadcast-join-inspired algorithm: the compact block index is
// broadcast to every executor, graph nodes are partitioned, and each task
// materialises the neighbourhood of one node at a time, so the full edge
// set never crosses the shuffle. Threshold computation adds one extra
// lightweight stage:
//
//   - WEP aggregates a global (sum, count) pair per partition;
//   - node-centric rules (WNP/Blast/CNP) compute the per-node thresholds
//     in a first pass and broadcast them for the pruning pass;
//   - CEP samples the global weight distribution via a collect of weights.
//
// Results are identical to Run (the sequential reference).
func RunDistributed(ctx *dataflow.Context, idx *blocking.Index, opts Options, numPartitions int) ([]Edge, error) {
	ids := idx.ProfileIDs()
	g := newGraphContext(idx, opts)
	if needsDegrees(opts.Scheme) {
		g.computeDegrees(ids)
	}
	if numPartitions < 1 {
		numPartitions = ctx.DefaultPartitions()
	}

	// The broadcast payload: the graph context wraps the block index,
	// per-block entropies and comparison cardinalities — exactly the
	// structures the Spark implementation ships to each executor.
	bg := dataflow.NewBroadcast(ctx, g)
	// Node thresholds are computed over every node; the passes that walk
	// edges partition only the nodes that own a forward edge, so no task
	// is handed a range of side-B nodes with nothing to emit.
	nodes := dataflow.Parallelize(ctx, ids, numPartitions)
	owners := dataflow.Parallelize(ctx, g.forwardOwners(ids), numPartitions)

	switch opts.Pruning {
	case WEP:
		return distWEP(bg, owners)
	case CEP:
		k := opts.TopK
		if k <= 0 {
			k = defaultTopK(idx, CEP)
		}
		return distCEP(bg, owners, k)
	case WNP, ReciprocalWNP, BlastPruning:
		return distNodeThreshold(ctx, bg, nodes, owners, opts.Pruning)
	case CNP, ReciprocalCNP:
		k := opts.TopK
		if k <= 0 {
			k = defaultTopK(idx, CNP)
		}
		return distCNP(ctx, bg, nodes, owners, k, opts.Pruning == ReciprocalCNP)
	}
	return nil, fmt.Errorf("metablocking: unsupported pruning rule %v", opts.Pruning)
}

// emitEdges materialises the owners' neighbourhoods partition-locally and
// emits each undirected edge once, applying keep. Each dataflow task
// leases one flat scratch from the broadcast context's pool for its
// whole partition.
func emitEdges(bg *dataflow.Broadcast[*graphContext], owners *dataflow.RDD[profile.ID],
	keep func(a, b profile.ID, w float64) bool) *dataflow.RDD[Edge] {
	return dataflow.MapPartitions(owners, func(part []profile.ID) ([]Edge, error) {
		g := bg.Value()
		s := g.scratch.get()
		defer g.scratch.put(s)
		var out []Edge
		for _, id := range part {
			g.forwardEdges(id, s, func(other profile.ID, w float64) {
				if keep(id, other, w) {
					out = append(out, Edge{A: id, B: other, Weight: w})
				}
			})
		}
		return out, nil
	})
}

func collectSorted(edges *dataflow.RDD[Edge]) ([]Edge, error) {
	out, err := edges.Collect()
	if err != nil {
		return nil, err
	}
	sortEdges(out)
	return out, nil
}

type sumCount struct {
	Sum   float64
	Count int64
}

func distWEP(bg *dataflow.Broadcast[*graphContext], owners *dataflow.RDD[profile.ID]) ([]Edge, error) {
	// Stage 1: per-node partial sums of forward-edge weights, reduced on
	// the driver in ascending node order — the same grouping the
	// sequential implementation uses, so thresholds match bitwise.
	partials, err := dataflow.MapPartitions(owners, func(part []profile.ID) ([]dataflow.KV[profile.ID, sumCount], error) {
		g := bg.Value()
		sc := g.scratch.get()
		defer g.scratch.put(sc)
		var out []dataflow.KV[profile.ID, sumCount]
		for _, id := range part {
			s, n := nodePartialSum(g.orderedNeighbours(id, sc), id)
			if n > 0 {
				out = append(out, dataflow.KV[profile.ID, sumCount]{Key: id, Value: sumCount{Sum: s, Count: n}})
			}
		}
		return out, nil
	}).Collect()
	if err != nil {
		return nil, err
	}
	sort.Slice(partials, func(i, j int) bool { return partials[i].Key < partials[j].Key })
	var sum float64
	var count int64
	for _, kv := range partials {
		sum += kv.Value.Sum
		count += kv.Value.Count
	}
	if count == 0 {
		return nil, nil
	}
	threshold := sum / float64(count)
	// Stage 2: prune.
	return collectSorted(emitEdges(bg, owners, func(_, _ profile.ID, w float64) bool {
		return w >= threshold
	}))
}

func distCEP(bg *dataflow.Broadcast[*graphContext], owners *dataflow.RDD[profile.ID], k int) ([]Edge, error) {
	// Stage 1: collect the weight distribution (weights only, not edges).
	weights, err := dataflow.MapPartitions(owners, func(part []profile.ID) ([]float64, error) {
		g := bg.Value()
		s := g.scratch.get()
		defer g.scratch.put(s)
		var out []float64
		for _, id := range part {
			g.forwardEdges(id, s, func(_ profile.ID, w float64) { out = append(out, w) })
		}
		return out, nil
	}).Collect()
	if err != nil {
		return nil, err
	}
	if len(weights) == 0 {
		return nil, nil
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(weights)))
	if k > len(weights) {
		k = len(weights)
	}
	threshold := weights[k-1]
	return collectSorted(emitEdges(bg, owners, func(_, _ profile.ID, w float64) bool {
		return w >= threshold
	}))
}

func distNodeThreshold(ctx *dataflow.Context, bg *dataflow.Broadcast[*graphContext],
	nodes, owners *dataflow.RDD[profile.ID], rule Pruning) ([]Edge, error) {
	blast := rule == BlastPruning
	// Stage 1: per-node thresholds, computed where the node lives.
	thresholdKVs, err := dataflow.MapPartitions(nodes, func(part []profile.ID) ([]dataflow.KV[profile.ID, float64], error) {
		g := bg.Value()
		s := g.scratch.get()
		defer g.scratch.put(s)
		var out []dataflow.KV[profile.ID, float64]
		for _, id := range part {
			nws := g.thresholdNeighbours(id, s, blast)
			if len(nws) == 0 {
				continue
			}
			out = append(out, dataflow.KV[profile.ID, float64]{Key: id, Value: nodeThreshold(nws, blast)})
		}
		return out, nil
	}).Collect()
	if err != nil {
		return nil, err
	}
	// Dense by profile ID: the pruning pass reads two thresholds per edge,
	// and an array load beats a hash lookup on the hottest loop.
	thresholds := make([]float64, bg.Value().scratch.n)
	for _, kv := range thresholdKVs {
		thresholds[kv.Key] = kv.Value
	}
	bth := dataflow.NewBroadcast(ctx, thresholds)
	reciprocal := rule == ReciprocalWNP
	// Stage 2: prune with both endpoints' thresholds available locally.
	return collectSorted(emitEdges(bg, owners, func(a, b profile.ID, w float64) bool {
		t := bth.Value()
		okA := w >= t[a]
		okB := w >= t[b]
		if reciprocal {
			return okA && okB
		}
		return okA || okB
	}))
}

func distCNP(ctx *dataflow.Context, bg *dataflow.Broadcast[*graphContext],
	nodes, owners *dataflow.RDD[profile.ID], k int, reciprocal bool) ([]Edge, error) {
	// Stage 1: per-node k-th largest weight.
	kthKVs, err := dataflow.MapPartitions(nodes, func(part []profile.ID) ([]dataflow.KV[profile.ID, float64], error) {
		g := bg.Value()
		s := g.scratch.get()
		defer g.scratch.put(s)
		var out []dataflow.KV[profile.ID, float64]
		for _, id := range part {
			nws := g.weightedNeighbours(id, s)
			if len(nws) == 0 {
				continue
			}
			out = append(out, dataflow.KV[profile.ID, float64]{Key: id, Value: s.kthLargestWeight(nws, k)})
		}
		return out, nil
	}).Collect()
	if err != nil {
		return nil, err
	}
	kth := make([]float64, bg.Value().scratch.n)
	for _, kv := range kthKVs {
		kth[kv.Key] = kv.Value
	}
	bkth := dataflow.NewBroadcast(ctx, kth)
	return collectSorted(emitEdges(bg, owners, func(a, b profile.ID, w float64) bool {
		t := bkth.Value()
		okA := w >= t[a]
		okB := w >= t[b]
		if reciprocal {
			return okA && okB
		}
		return okA || okB
	}))
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
		contribution := gg.entropy[bi] // 1 when entropy is disabled
		if gg.scheme == ARCS {
			contribution = gg.entropy[bi] / gg.comparison[bi]
		}
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
	return collectSorted(edges)
}

func makeOrdinals(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
