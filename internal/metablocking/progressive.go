package metablocking

import (
	"math/rand"
	"sort"

	"sparker/internal/blocking"
	"sparker/internal/profile"
)

// Progressive meta-blocking, from "Schema-Agnostic Progressive Entity
// Resolution" [6] (cited by the paper): instead of pruning the blocking
// graph once, comparisons are *scheduled* in decreasing likelihood order
// so that a budget-bound run resolves as many entities as early as
// possible. Two schedulers are provided plus a random baseline:
//
//   - GlobalTop materialises every weighted edge and sorts it globally —
//     the quality ceiling, at O(|E|) memory;
//   - ProfileScheduling is the paper's PPS: profiles are ordered by their
//     duplication likelihood (their best edge weight) and each profile
//     emits its neighbourhood best-first, interleaved via the profile
//     order — near-ceiling quality at node-local memory;
//   - RandomOrder is the baseline progressive methods are measured
//     against.

// ScheduleStrategy selects the progressive comparison scheduler.
type ScheduleStrategy int

const (
	// GlobalTop emits all edges in strictly decreasing weight order.
	GlobalTop ScheduleStrategy = iota
	// ProfileScheduling is PPS [6]: profile-major, best-first.
	ProfileScheduling
	// RandomOrder emits the comparisons in seeded random order.
	RandomOrder
)

// String names the strategy for reports.
func (s ScheduleStrategy) String() string {
	switch s {
	case GlobalTop:
		return "global-top"
	case ProfileScheduling:
		return "profile-scheduling"
	case RandomOrder:
		return "random"
	}
	return "unknown"
}

// Schedule returns the comparisons of the blocking graph ordered by the
// chosen strategy, deduplicated (each undirected pair appears once).
// Budget bounds the result length; a non-positive budget returns the
// full schedule.
func Schedule(idx *blocking.Index, opts Options, strategy ScheduleStrategy, budget int) []Edge {
	ids := idx.ProfileIDs()
	g := newGraphContext(idx, opts)
	var out []Edge
	switch strategy {
	case GlobalTop:
		out = scheduleGlobalTop(g, ids)
	case ProfileScheduling:
		out = scheduleProfiles(g, ids)
	case RandomOrder:
		out = scheduleRandom(g, ids)
	}
	if budget > 0 && len(out) > budget {
		out = out[:budget]
	}
	return out
}

func scheduleGlobalTop(g *graphContext, ids []profile.ID) []Edge {
	edges := allEdges(g, ids)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Weight != edges[j].Weight {
			return edges[i].Weight > edges[j].Weight
		}
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	return edges
}

// scheduleProfiles is PPS: profiles are ordered by duplication likelihood
// (their best edge weight) and comparisons are emitted in rounds — round
// r yields every profile's r-th best un-emitted comparison. The first
// round therefore covers each profile's most promising comparison, which
// is where nearly all duplicates live; whole low-value neighbourhoods are
// deferred instead of being drained eagerly.
func scheduleProfiles(g *graphContext, ids []profile.ID) []Edge {
	type nodeSchedule struct {
		id    profile.ID
		best  float64
		edges []Edge
		next  int
	}
	s := g.scratch.get()
	defer g.scratch.put(s)
	nodes := make([]*nodeSchedule, 0, len(ids))
	for _, id := range ids {
		nws := g.weightedNeighbours(id, s)
		if len(nws) == 0 {
			continue
		}
		ns := &nodeSchedule{id: id}
		for _, nw := range nws {
			ns.edges = append(ns.edges, Edge{A: id, B: nw.id, Weight: nw.w})
			if nw.w > ns.best {
				ns.best = nw.w
			}
		}
		sort.Slice(ns.edges, func(i, j int) bool {
			if ns.edges[i].Weight != ns.edges[j].Weight {
				return ns.edges[i].Weight > ns.edges[j].Weight
			}
			return ns.edges[i].B < ns.edges[j].B
		})
		nodes = append(nodes, ns)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].best != nodes[j].best {
			return nodes[i].best > nodes[j].best
		}
		return nodes[i].id < nodes[j].id
	})

	seen := map[[2]profile.ID]bool{}
	var out []Edge
	for remaining := len(nodes); remaining > 0; {
		remaining = 0
		for _, ns := range nodes {
			// Emit this node's next not-yet-seen comparison, if any.
			for ns.next < len(ns.edges) {
				e := ns.edges[ns.next]
				ns.next++
				a, b := e.A, e.B
				if b < a {
					a, b = b, a
				}
				key := [2]profile.ID{a, b}
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, Edge{A: a, B: b, Weight: e.Weight})
				break
			}
			if ns.next < len(ns.edges) {
				remaining++
			}
		}
	}
	return out
}

func scheduleRandom(g *graphContext, ids []profile.ID) []Edge {
	edges := allEdges(g, ids)
	// The seeded shuffle permutes positions, so fix them first.
	sortEdges(edges)
	rng := rand.New(rand.NewSource(20190326)) // EDBT 2019 opening day
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}
