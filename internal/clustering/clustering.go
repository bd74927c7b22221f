// Package clustering implements SparkER's entity clusterer (Figure 5):
// the similarity graph produced by the matcher — profiles as nodes,
// matching pairs as edges — is partitioned into equivalence clusters so
// that every cluster holds all profiles of one real-world entity. The
// default algorithm is connected components under the transitivity
// assumption, the same algorithm the paper delegates to Spark GraphX; a
// two-phase variant (union-find per range of matches, then on the
// driver) runs on the dataflow engine.
// Center and merge-center clustering [8] are provided as the alternatives
// the entity-clustering literature evaluates.
package clustering

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"sparker/internal/dataflow"
	"sparker/internal/matching"
	"sparker/internal/profile"
)

// Entity is one resolved real-world entity: the set of profile IDs that
// refer to it.
type Entity struct {
	ID       int
	Profiles []profile.ID // sorted ascending
}

// UnionFind is a path-compressing disjoint-set forest over profile IDs.
type UnionFind struct {
	parent map[profile.ID]profile.ID
	rank   map[profile.ID]int
}

// NewUnionFind creates an empty forest.
func NewUnionFind() *UnionFind {
	return &UnionFind{parent: map[profile.ID]profile.ID{}, rank: map[profile.ID]int{}}
}

// Find returns the representative of x, adding x if unseen.
func (u *UnionFind) Find(x profile.ID) profile.ID {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	root := u.Find(p)
	u.parent[x] = root
	return root
}

// Union merges the sets of a and b.
func (u *UnionFind) Union(a, b profile.ID) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// Connected reports whether a and b are in the same set.
func (u *UnionFind) Connected(a, b profile.ID) bool { return u.Find(a) == u.Find(b) }

// entities returns the forest's sets as sorted entities.
func (u *UnionFind) entities() []Entity {
	rep := make(map[profile.ID]profile.ID, len(u.parent))
	for id := range u.parent {
		rep[id] = u.Find(id)
	}
	return entitiesFromAssignment(rep)
}

// entitiesFromAssignment turns a representative map into sorted entities.
func entitiesFromAssignment(rep map[profile.ID]profile.ID) []Entity {
	groups := map[profile.ID][]profile.ID{}
	for id, r := range rep {
		groups[r] = append(groups[r], id)
	}
	roots := make([]profile.ID, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	out := make([]Entity, 0, len(roots))
	for i, r := range roots {
		members := groups[r]
		sort.Slice(members, func(x, y int) bool { return members[x] < members[y] })
		out = append(out, Entity{ID: i, Profiles: members})
	}
	return out
}

// ConnectedComponents clusters the similarity graph sequentially with
// union-find. Only profiles that appear in at least one match become part
// of a (possibly singleton) entity; callers wanting singleton entities for
// unmatched profiles can append them afterwards.
func ConnectedComponents(matches []matching.Match) []Entity {
	uf := NewUnionFind()
	for _, m := range matches {
		uf.Union(m.A, m.B)
	}
	return uf.entities()
}

// DistributedConnectedComponents computes the same clustering on the
// dataflow engine in two phases. Each task unions one contiguous range of
// the matches and emits (profile, local root) for every profile it saw:
// the records a shuffle to the driver would move, which the driver
// meters. The driver then unions the emitted pairs. Two profiles share a
// local root only if a path of matches joins them, and every match is in
// some range, so the driver's components are the graph's — which are
// unique, so the entities equal ConnectedComponents'.
func DistributedConnectedComponents(ctx *dataflow.Context, matches []matching.Match, numPartitions int) ([]Entity, error) {
	if len(matches) == 0 {
		return nil, nil
	}
	roots, err := dataflow.MapRanges(ctx, len(matches), numPartitions, func(lo, hi int) ([][2]profile.ID, error) {
		uf := NewUnionFind()
		for _, m := range matches[lo:hi] {
			uf.Union(m.A, m.B)
		}
		out := make([][2]profile.ID, 0, len(uf.parent))
		for id := range uf.parent {
			out = append(out, [2]profile.ID{id, uf.Find(id)})
		}
		// Profile order, so the driver unions in the same order every run.
		slices.SortFunc(out, func(x, y [2]profile.ID) int { return cmp.Compare(x[0], y[0]) })
		return out, nil
	})
	if err != nil {
		return nil, fmt.Errorf("clustering: distributed CC: %w", err)
	}
	ctx.AddShuffleRecords(len(roots))
	uf := NewUnionFind()
	for _, r := range roots {
		uf.Union(r[0], r[1])
	}
	return uf.entities(), nil
}

// CenterClustering processes matches in descending score order: the first
// time a profile is seen it becomes a cluster center; later profiles
// attach to the first center they match, and matches between two
// non-center or two center profiles are skipped [8]. It avoids the
// chaining effect of connected components.
func CenterClustering(matches []matching.Match) []Entity {
	sorted := append([]matching.Match(nil), matches...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		if sorted[i].A != sorted[j].A {
			return sorted[i].A < sorted[j].A
		}
		return sorted[i].B < sorted[j].B
	})

	const (
		unassigned = 0
		center     = 1
		attached   = 2
	)
	state := map[profile.ID]int{}
	centerOf := map[profile.ID]profile.ID{}
	for _, m := range sorted {
		sa, sb := state[m.A], state[m.B]
		switch {
		case sa == unassigned && sb == unassigned:
			state[m.A] = center
			centerOf[m.A] = m.A
			state[m.B] = attached
			centerOf[m.B] = m.A
		case sa == center && sb == unassigned:
			state[m.B] = attached
			centerOf[m.B] = m.A
		case sb == center && sa == unassigned:
			state[m.A] = attached
			centerOf[m.A] = m.B
		}
	}
	return entitiesFromAssignment(centerOf)
}

// MergeCenterClustering is center clustering that additionally merges two
// clusters when a profile matches the centers of both [8].
func MergeCenterClustering(matches []matching.Match) []Entity {
	sorted := append([]matching.Match(nil), matches...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		if sorted[i].A != sorted[j].A {
			return sorted[i].A < sorted[j].A
		}
		return sorted[i].B < sorted[j].B
	})

	isCenter := map[profile.ID]bool{}
	assigned := map[profile.ID]bool{}
	uf := NewUnionFind()
	for _, m := range sorted {
		switch {
		case !assigned[m.A] && !assigned[m.B]:
			isCenter[m.A] = true
			assigned[m.A] = true
			assigned[m.B] = true
			uf.Union(m.A, m.B)
		case isCenter[m.A] && !assigned[m.B]:
			assigned[m.B] = true
			uf.Union(m.A, m.B)
		case isCenter[m.B] && !assigned[m.A]:
			assigned[m.A] = true
			uf.Union(m.A, m.B)
		case isCenter[m.A] && assigned[m.B] && !isCenter[m.B]:
			// m.B already belongs somewhere and also matches center m.A:
			// merge the two clusters.
			uf.Union(m.A, m.B)
		case isCenter[m.B] && assigned[m.A] && !isCenter[m.A]:
			uf.Union(m.A, m.B)
		}
	}
	rep := map[profile.ID]profile.ID{}
	for id := range assigned {
		rep[id] = uf.Find(id)
	}
	return entitiesFromAssignment(rep)
}

// UniqueMappingClustering is the clean-clean specialist [8]: since each
// source is duplicate-free, every profile can co-refer with at most one
// profile of the other source. Matches are processed in descending score
// order and accepted greedily when both endpoints are still unassigned,
// yielding a partial one-to-one mapping.
func UniqueMappingClustering(matches []matching.Match) []Entity {
	sorted := append([]matching.Match(nil), matches...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		if sorted[i].A != sorted[j].A {
			return sorted[i].A < sorted[j].A
		}
		return sorted[i].B < sorted[j].B
	})
	assigned := map[profile.ID]bool{}
	rep := map[profile.ID]profile.ID{}
	for _, m := range sorted {
		if assigned[m.A] || assigned[m.B] {
			continue
		}
		assigned[m.A] = true
		assigned[m.B] = true
		minID := m.A
		if m.B < minID {
			minID = m.B
		}
		rep[m.A] = minID
		rep[m.B] = minID
	}
	return entitiesFromAssignment(rep)
}

// PairsOf enumerates the pairwise co-references implied by the entities,
// used to evaluate clustering quality against a ground truth.
func PairsOf(entities []Entity) []matching.Match {
	var out []matching.Match
	for _, e := range entities {
		for i := 0; i < len(e.Profiles); i++ {
			for j := i + 1; j < len(e.Profiles); j++ {
				out = append(out, matching.Match{A: e.Profiles[i], B: e.Profiles[j], Score: 1})
			}
		}
	}
	return out
}
