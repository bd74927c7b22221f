package metablocking

import (
	"cmp"
	"math"
	"slices"

	"sparker/internal/blocking"
	"sparker/internal/profile"
)

// plan is a pruning rule written once, as two passes over graph nodes:
// stats (pass 1) reads neighbourhoods into per-node statistics, decide
// turns the collected statistics into one keep predicate on the driver,
// and edges (pass 2) emits the forward edges that pass it. A pass only
// reads the plan, one contiguous range of node IDs and a scratch of its
// own, so a driver is free to map it over ranges as concurrent workers
// (Run) or as dataflow tasks (RunDistributed); Explain asks the same plan
// about a single pair.
type plan struct {
	g    *graphContext
	rule Pruning
	k    int // CEP's K, CNP's per-node k
	// owners are the nodes that own a forward edge: what pass 2 walks, and
	// pass 1 of every rule but WNP's and CNP's.
	owners []profile.ID
}

func newPlan(idx *blocking.Index, opts Options) *plan {
	p := &plan{g: newGraphContext(idx, opts), rule: opts.Pruning, k: opts.TopK}
	if p.k <= 0 {
		p.k = defaultTopK(idx, opts.Pruning)
	}
	p.owners = p.g.forwardOwners(idx.ProfileIDs())
	return p
}

// walksOwners reports whether pass 1 reads every edge once, from its
// lower endpoint, which the forward owners cover: the graph-wide
// thresholds, and Blast's maxima, which fold each edge into both
// endpoints. WNP's ordered mean and CNP's k-th weight read the whole
// neighbourhood of every node instead.
func (p *plan) walksOwners() bool {
	return p.rule == WEP || p.rule == CEP || p.rule == BlastPruning
}

// statNodes lists the nodes pass 1 visits.
func (p *plan) statNodes() []profile.ID {
	if p.walksOwners() {
		return p.owners
	}
	return p.g.idx.ProfileIDs()
}

// nodeStat is one pass-1 record: WEP's ordered partial sum v over the n
// forward edges of node id, one forward-edge weight v for CEP, the
// maximum v over the edges of node id one range of owners holds for
// Blast, or node id's threshold v for WNP (the mean) and CNP (the k-th
// largest weight).
type nodeStat struct {
	id profile.ID
	n  int32
	v  float64
}

// stats is pass 1 over one range of statNodes, ascending like the range.
// Every rule drains each neighbourhood it reads, taking the slots of the
// neighbours it has no use for as well.
func (p *plan) stats(part []profile.ID, s *neighbourScratch) []nodeStat {
	if p.rule == BlastPruning {
		return p.foldMaxima(part, s)
	}
	g := p.g
	out := make([]nodeStat, 0, len(part)) // one record per node at most, except under CEP
	for _, id := range part {
		switch p.rule {
		case WEP:
			// The partial sum over the node's forward edges, in ascending
			// neighbour order: grouping the global WEP sum into per-node
			// partials, accumulated in ascending node order, gives every
			// driver a bitwise-identical threshold.
			touched := g.neighbourhood(id, s)
			slices.Sort(touched)
			var sum float64
			var n int32
			for _, other := range touched {
				st := s.take(other)
				if other > id {
					sum += g.weight(id, other, &st)
					n++
				}
			}
			if n > 0 {
				out = append(out, nodeStat{id: id, n: n, v: sum})
			}
		case CEP:
			for _, other := range g.neighbourhood(id, s) {
				st := s.take(other)
				if other > id {
					out = append(out, nodeStat{id: id, v: g.weight(id, other, &st)})
				}
			}
		case WNP, ReciprocalWNP:
			if nws := g.orderedNeighbours(id, s); len(nws) > 0 {
				out = append(out, nodeStat{id: id, v: nodeMean(nws)})
			}
		case CNP, ReciprocalCNP:
			if nws := g.weightedNeighbours(id, s); len(nws) > 0 {
				out = append(out, nodeStat{id: id, v: s.kthLargestWeight(nws, p.k)})
			}
		}
	}
	return out
}

// foldMaxima is Blast's pass 1 over one range of owners: it materialises
// only the owners' neighbourhoods, folds each forward edge's weight into
// the maxima of both its endpoints, and reports one record per node with
// a positive maximum. A maximum does not depend on the order it is taken
// in, and decide takes it again over the ranges' records, so the result
// is the maximum over the node's whole neighbourhood, bit for bit: both
// endpoints accumulate a pair's statistics over the shared blocks in
// ascending ordinal order. The weight seen from the far endpoint is the
// edge's own except under ECBS, whose product runs in endpoint order.
// Maxima are taken with a plain >, not the NaN- and sign-aware max:
// weights are finite, non-negative and never −0
// (TestKernelWeightsAreFiniteAndNonNegative), and there the two agree.
func (p *plan) foldMaxima(part []profile.ID, s *neighbourScratch) []nodeStat {
	g := p.g
	if len(s.maxima) < g.scratch.n {
		s.maxima = make([]float64, g.scratch.n)
	} else {
		clear(s.maxima)
	}
	m := s.maxima
	ecbs := g.scheme == ECBS
	for _, id := range part {
		own := m[id]
		for _, other := range g.neighbourhood(id, s) {
			st := s.take(other)
			if other <= id {
				continue
			}
			w := g.weight(id, other, &st)
			if w > own {
				own = w
			}
			if ecbs {
				w = g.weight(other, id, &st)
			}
			if w > m[other] {
				m[other] = w
			}
		}
		m[id] = own
	}
	n := 0
	for _, v := range m {
		if v > 0 {
			n++
		}
	}
	out := make([]nodeStat, 0, n)
	for id, v := range m {
		if v > 0 {
			out = append(out, nodeStat{id: profile.ID(id), v: v})
		}
	}
	return out
}

// nodeMean is WNP's node threshold: the mean weight over the node's
// ordered neighbourhood. The summation order is fixed (ascending
// neighbour ID) so that every driver agrees bitwise.
func nodeMean(nws []neighbourWeight) float64 {
	sum := 0.0
	for _, nw := range nws {
		sum += nw.w
	}
	return sum / float64(len(nws))
}

// keep is the predicate pass 2 emits edges through: one graph-wide
// threshold, or per-node thresholds an edge must reach at either
// endpoint — at both under the reciprocal rules.
type keep struct {
	global float64
	// node is dense by profile ID (isolated nodes keep the zero
	// threshold: the pass reads two per edge, and an array load beats a
	// hash lookup on its hottest loop); nil for the graph-wide rules.
	node []float64
	both bool
}

// decide is the driver-side step between the passes. stats must be the
// pass-1 records of contiguous ranges concatenated in range order, so
// that WEP's records ascend by node — its float sum is not associative.
// Blast's ranges may each hold a record for the same node; decide takes
// the maximum over them.
func (p *plan) decide(stats []nodeStat) *keep {
	k := &keep{global: math.Inf(1)} // no edge, or no such rule: keep nothing
	switch p.rule {
	case WEP:
		var sum float64
		var count int64
		for _, st := range stats {
			sum += st.v
			count += int64(st.n)
		}
		if count > 0 {
			k.global = sum / float64(count)
		}
	case CEP:
		// Ties at the K-th weight are all kept, so the result can
		// slightly exceed K.
		if len(stats) > 0 {
			slices.SortFunc(stats, func(x, y nodeStat) int { return cmp.Compare(y.v, x.v) })
			k.global = stats[min(p.k, len(stats))-1].v
		}
	case BlastPruning:
		// Blast's threshold is half the node's maximum edge weight.
		k.node = make([]float64, p.g.scratch.n)
		for _, st := range stats {
			k.node[st.id] = max(k.node[st.id], st.v)
		}
		for i := range k.node {
			k.node[i] /= 2
		}
	case WNP, ReciprocalWNP, CNP, ReciprocalCNP:
		k.node = make([]float64, p.g.scratch.n)
		k.both = p.rule == ReciprocalWNP || p.rule == ReciprocalCNP
		for _, st := range stats {
			k.node[st.id] = st.v
		}
	}
	return k
}

// thresholds returns the thresholds the edge (a, b) is held against, the
// graph-wide one twice for the rules that have only that.
func (k *keep) thresholds(a, b profile.ID) (float64, float64) {
	if k.node == nil {
		return k.global, k.global
	}
	return k.node[a], k.node[b]
}

// edge decides one edge.
func (k *keep) edge(a, b profile.ID, w float64) bool {
	ta, tb := k.thresholds(a, b)
	if k.both {
		return w >= ta && w >= tb
	}
	return w >= ta || w >= tb
}

// edgeChunk is how many edges one chunk of pass 2's output holds.
const edgeChunk = 1 << 12

// edges is pass 2 over one range of owners: every forward edge that
// passes k, sorted by (A, B), in chunks of edgeChunk edges (more when
// one owner keeps more). Owners ascend and each owner's run is kept in
// one chunk and sorted by B there, so ranges concatenate to the sorted
// whole and no driver sorts the full edge list. Fixed-size chunks, not a
// growing slice, keep what a range allocates to about what it keeps; the
// driver copies them once into a result of the exact size.
func (p *plan) edges(k *keep, part []profile.ID, s *neighbourScratch) [][]Edge {
	var chunks [][]Edge
	var cur []Edge
	g := p.g
	for _, id := range part {
		run := len(cur)
		for _, other := range g.neighbourhood(id, s) {
			st := s.take(other)
			if other <= id {
				continue
			}
			w := g.weight(id, other, &st)
			if !k.edge(id, other, w) {
				continue
			}
			if len(cur) == cap(cur) {
				// Carry the owner's run so far over to a fresh chunk.
				next := make([]Edge, 0, max(edgeChunk, 2*(len(cur)-run)))
				next = append(next, cur[run:]...)
				if run > 0 {
					chunks = append(chunks, cur[:run])
				}
				cur, run = next, 0
			}
			cur = append(cur, Edge{A: id, B: other, Weight: w})
		}
		slices.SortFunc(cur[run:], func(x, y Edge) int { return cmp.Compare(x.B, y.B) })
	}
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks
}
