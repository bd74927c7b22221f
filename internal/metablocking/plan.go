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
// own, so a driver is free to map it over ranges one after another (Run)
// or as concurrent tasks (RunDistributed); Explain asks the same plan
// about a single pair.
type plan struct {
	g    *graphContext
	rule Pruning
	k    int // CEP's K, CNP's per-node k
	// owners are the nodes that own a forward edge: what pass 2 walks, and
	// pass 1 of the rules with one graph-wide threshold.
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

// global reports whether the rule prunes at one graph-wide threshold
// rather than at per-node ones.
func (p *plan) global() bool { return p.rule == WEP || p.rule == CEP }

// statNodes lists the nodes pass 1 visits. A graph-wide threshold reads
// every edge once, which the forward owners cover; a node threshold
// reads the whole neighbourhood of every node.
func (p *plan) statNodes() []profile.ID {
	if p.global() {
		return p.owners
	}
	return p.g.idx.ProfileIDs()
}

// nodeStat is one pass-1 record: WEP's ordered partial sum v over the n
// forward edges of node id, one forward-edge weight v for CEP, or node
// id's threshold v for the node rules (the WNP mean, Blast's half
// maximum, CNP's k-th largest weight).
type nodeStat struct {
	id profile.ID
	n  int32
	v  float64
}

// stats is pass 1 over one range of statNodes, ascending like the range.
func (p *plan) stats(part []profile.ID, s *neighbourScratch) []nodeStat {
	g := p.g
	out := make([]nodeStat, 0, len(part)) // one record per node at most, except under CEP
	for _, id := range part {
		switch p.rule {
		case WEP:
			if sum, n := nodePartialSum(g.orderedNeighbours(id, s), id); n > 0 {
				out = append(out, nodeStat{id: id, n: int32(n), v: sum})
			}
		case CEP:
			g.forwardEdges(id, s, func(_ profile.ID, w float64) {
				out = append(out, nodeStat{id: id, v: w})
			})
		case WNP, ReciprocalWNP, BlastPruning:
			blast := p.rule == BlastPruning
			if nws := g.thresholdNeighbours(id, s, blast); len(nws) > 0 {
				out = append(out, nodeStat{id: id, v: nodeThreshold(nws, blast)})
			}
		case CNP, ReciprocalCNP:
			if nws := g.weightedNeighbours(id, s); len(nws) > 0 {
				out = append(out, nodeStat{id: id, v: s.kthLargestWeight(nws, p.k)})
			}
		}
	}
	return out
}

// nodePartialSum sums the weights of a node's forward edges (neighbour ID
// greater than the node's) over its ordered neighbourhood. Grouping the
// global WEP sum into per-node partials, accumulated in ascending node
// order, gives every driver a bitwise-identical threshold.
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

// nodeThreshold computes one node's pruning threshold from its weighted
// neighbourhood (see thresholdNeighbours): the mean edge weight for WNP,
// or half the maximum for Blast. The mean's summation order is fixed
// (ascending neighbour ID) so that every driver agrees bitwise.
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
// pass-1 records in ascending node order — WEP's float sum is not
// associative — which is the order contiguous ranges concatenate to.
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
	case WNP, ReciprocalWNP, BlastPruning, CNP, ReciprocalCNP:
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

// edges is pass 2 over one range of owners: every forward edge that
// passes k, sorted by (A, B). Owners ascend and each owner's run is
// sorted by B as it is emitted, so ranges concatenate to the sorted whole
// and no driver sorts the full edge list.
func (p *plan) edges(k *keep, part []profile.ID, s *neighbourScratch) []Edge {
	var out []Edge
	for _, id := range part {
		run := len(out)
		p.g.forwardEdges(id, s, func(other profile.ID, w float64) {
			if k.edge(id, other, w) {
				out = append(out, Edge{A: id, B: other, Weight: w})
			}
		})
		slices.SortFunc(out[run:], func(x, y Edge) int { return cmp.Compare(x.B, y.B) })
	}
	return out
}
