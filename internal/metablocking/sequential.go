package metablocking

import (
	"cmp"
	"slices"

	"sparker/internal/blocking"
	"sparker/internal/profile"
)

// Run executes meta-blocking sequentially and returns the retained edges
// sorted by (A, B): each pass of the rule's plan is one loop over all its
// nodes, on one scratch.
func Run(idx *blocking.Index, opts Options) []Edge {
	p := newPlan(idx, opts)
	s := p.g.scratch.get()
	defer p.g.scratch.put(s)
	return p.edges(p.decide(p.stats(p.statNodes(), s)), p.owners, s)
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
