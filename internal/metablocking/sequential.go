package metablocking

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

	"sparker/internal/blocking"
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

// inRanges splits ids into one contiguous range per GOMAXPROCS worker,
// runs pass on the ranges concurrently, each on a scratch leased from
// g's pool, and returns the results in range order. The calling
// goroutine takes the last range. A range with no node (more workers
// than ids) runs nothing and leaves its result zero.
func inRanges[T any](g *graphContext, ids []profile.ID, pass func(part []profile.ID, s *neighbourScratch) T) []T {
	out := make([]T, runtime.GOMAXPROCS(0))
	run := func(i int) {
		if part := ids[i*len(ids)/len(out) : (i+1)*len(ids)/len(out)]; len(part) > 0 {
			s := g.scratch.get()
			defer g.scratch.put(s)
			out[i] = pass(part, s)
		}
	}
	var wg sync.WaitGroup
	for i := range len(out) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(len(out) - 1)
	wg.Wait()
	return out
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
