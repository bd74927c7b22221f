package metablocking

import (
	"cmp"
	"slices"

	"sparker/internal/blocking"
	"sparker/internal/kernel"
	"sparker/internal/profile"
)

// Run executes meta-blocking in process and returns the retained edges
// sorted by (A, B): each pass of the rule's plan is mapped over one
// contiguous range of its nodes per GOMAXPROCS worker, each worker on a
// scratch of its own, and the ranges' results are concatenated in range
// order. The edges are the same for every worker count.
func Run(idx *blocking.Index, opts Options) []Edge {
	p := newPlan(idx, opts)
	k := p.decide(slices.Concat(inRanges(p.g, p.statNodes(), p.stats)...))
	chunks := inRanges(p.g, p.owners, func(part []profile.ID, s *neighbourScratch) [][]Edge {
		return p.edges(k, part, s)
	})
	return slices.Concat(slices.Concat(chunks...)...)
}

// inRanges runs pass over ids cut into one contiguous range per
// GOMAXPROCS worker (kernel.ForRanges), each range on a scratch leased
// from g's pool, and returns the results in range order.
func inRanges[T any](g *graphContext, ids []profile.ID, pass func(part []profile.ID, s *neighbourScratch) T) []T {
	out := make([]T, kernel.Ranges(len(ids)))
	kernel.ForRanges(len(ids), len(out), func(r, lo, hi int) {
		s := g.scratch.get()
		defer g.scratch.put(s)
		out[r] = pass(ids[lo:hi], s)
	})
	return out
}

// allEdges materialises the neighbourhood of every node that owns a
// forward edge and returns every undirected edge (A < B) once, ascending
// in A; callers that need a total order sort it.
func allEdges(g *graphContext, ids []profile.ID) []Edge {
	s := g.scratch.get()
	defer g.scratch.put(s)
	var edges []Edge
	for _, id := range g.forwardOwners(ids) {
		for _, other := range g.neighbourhood(id, s) {
			st := s.take(other)
			if other > id {
				edges = append(edges, Edge{A: id, B: other, Weight: g.weight(id, other, &st)})
			}
		}
	}
	return edges
}

func sortEdges(edges []Edge) {
	slices.SortFunc(edges, func(x, y Edge) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
}
