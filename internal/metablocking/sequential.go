package metablocking

import (
	"cmp"
	"slices"
	"sort"

	"sparker/internal/blocking"
	"sparker/internal/profile"
)

// Run executes meta-blocking sequentially and returns the retained edges
// sorted by (A, B). It is the reference implementation the distributed
// variants are tested against.
func Run(idx *blocking.Index, opts Options) []Edge {
	ids := idx.ProfileIDs()
	g := newGraphContext(idx, opts)
	if needsDegrees(opts.Scheme) {
		g.computeDegrees(ids)
	}

	switch opts.Pruning {
	case WEP:
		return runWEP(g, ids)
	case CEP:
		k := opts.TopK
		if k <= 0 {
			k = defaultTopK(idx, CEP)
		}
		return runCEP(g, ids, k)
	case WNP, ReciprocalWNP, BlastPruning:
		return runNodeThreshold(g, ids, opts.Pruning)
	case CNP, ReciprocalCNP:
		k := opts.TopK
		if k <= 0 {
			k = defaultTopK(idx, CNP)
		}
		return runCNP(g, ids, k, opts.Pruning == ReciprocalCNP)
	}
	return nil
}

// forEachEdge materialises the neighbourhood of every node that owns a
// forward edge and calls fn once per undirected edge (a < b), ascending
// in a; callers that need a total order sort what they collect.
func forEachEdge(g *graphContext, ids []profile.ID, fn func(a, b profile.ID, w float64)) {
	s := g.scratch.get()
	defer g.scratch.put(s)
	for _, id := range g.forwardOwners(ids) {
		g.forwardEdges(id, s, func(other profile.ID, w float64) { fn(id, other, w) })
	}
}

func sortEdges(edges []Edge) {
	slices.SortFunc(edges, func(x, y Edge) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
}

// nodePartialSum sums the weights of a node's forward edges (neighbour ID
// greater than the node's) over its ordered neighbourhood. Grouping the
// global WEP sum into per-node partials, accumulated in ascending node
// order, gives the sequential and distributed implementations
// bitwise-identical thresholds.
func nodePartialSum(nws []neighbourWeight, id profile.ID) (float64, int64) {
	var sum float64
	var count int64
	for _, nw := range nws {
		if nw.id > id {
			sum += nw.w
			count++
		}
	}
	return sum, count
}

// runWEP prunes below the global mean edge weight.
func runWEP(g *graphContext, ids []profile.ID) []Edge {
	var sum float64
	var count int64
	sc := g.scratch.get()
	for _, id := range g.forwardOwners(ids) {
		s, n := nodePartialSum(g.orderedNeighbours(id, sc), id)
		sum += s
		count += n
	}
	g.scratch.put(sc)
	if count == 0 {
		return nil
	}
	threshold := sum / float64(count)
	var out []Edge
	forEachEdge(g, ids, func(a, b profile.ID, w float64) {
		if w >= threshold {
			out = append(out, Edge{A: a, B: b, Weight: w})
		}
	})
	sortEdges(out)
	return out
}

// runCEP keeps the globally top-K edges (ties at the K-th weight are all
// kept, so the result can slightly exceed K).
func runCEP(g *graphContext, ids []profile.ID, k int) []Edge {
	var weights []float64
	forEachEdge(g, ids, func(_, _ profile.ID, w float64) {
		weights = append(weights, w)
	})
	if len(weights) == 0 {
		return nil
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(weights)))
	if k > len(weights) {
		k = len(weights)
	}
	threshold := weights[k-1]
	var out []Edge
	forEachEdge(g, ids, func(a, b profile.ID, w float64) {
		if w >= threshold {
			out = append(out, Edge{A: a, B: b, Weight: w})
		}
	})
	sortEdges(out)
	return out
}

// nodeThreshold computes one node's pruning threshold from its weighted
// neighbourhood (see thresholdNeighbours): the mean edge weight for WNP,
// or half the maximum for Blast. The mean's summation order is fixed
// (ascending neighbour ID) so that sequential and distributed runs agree
// bitwise.
func nodeThreshold(nws []neighbourWeight, blast bool) float64 {
	if blast {
		maxW := 0.0
		for _, nw := range nws {
			if nw.w > maxW {
				maxW = nw.w
			}
		}
		return maxW / 2
	}
	sum := 0.0
	for _, nw := range nws {
		sum += nw.w
	}
	return sum / float64(len(nws))
}

// nodeThresholds computes the per-node pruning thresholds, dense by
// profile ID (untouched nodes keep the zero threshold, matching the old
// map's zero value for absent keys).
func nodeThresholds(g *graphContext, ids []profile.ID, blast bool) []float64 {
	out := make([]float64, g.scratch.n)
	s := g.scratch.get()
	defer g.scratch.put(s)
	for _, id := range ids {
		nws := g.thresholdNeighbours(id, s, blast)
		if len(nws) == 0 {
			continue
		}
		out[id] = nodeThreshold(nws, blast)
	}
	return out
}

// runNodeThreshold implements WNP, reciprocal WNP, and Blast pruning.
func runNodeThreshold(g *graphContext, ids []profile.ID, rule Pruning) []Edge {
	thresholds := nodeThresholds(g, ids, rule == BlastPruning)
	reciprocal := rule == ReciprocalWNP
	var out []Edge
	forEachEdge(g, ids, func(a, b profile.ID, w float64) {
		okA := w >= thresholds[a]
		okB := w >= thresholds[b]
		keep := okA || okB
		if reciprocal {
			keep = okA && okB
		}
		if keep {
			out = append(out, Edge{A: a, B: b, Weight: w})
		}
	})
	sortEdges(out)
	return out
}

// runCNP keeps edges in the top-k neighbourhood of either endpoint (both
// for the reciprocal variant).
func runCNP(g *graphContext, ids []profile.ID, k int, reciprocal bool) []Edge {
	// kth[id] is the k-th largest edge weight of the node; an edge is in a
	// node's top-k iff w >= kth.
	kth := make([]float64, g.scratch.n)
	s := g.scratch.get()
	for _, id := range ids {
		nws := g.weightedNeighbours(id, s)
		if len(nws) == 0 {
			continue
		}
		kth[id] = s.kthLargestWeight(nws, k)
	}
	g.scratch.put(s)
	var out []Edge
	forEachEdge(g, ids, func(a, b profile.ID, w float64) {
		okA := w >= kth[a]
		okB := w >= kth[b]
		keep := okA || okB
		if reciprocal {
			keep = okA && okB
		}
		if keep {
			out = append(out, Edge{A: a, B: b, Weight: w})
		}
	})
	sortEdges(out)
	return out
}
