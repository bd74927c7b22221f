package clustering

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sparker/internal/dataflow"
	"sparker/internal/kernel"
	"sparker/internal/matching"
	"sparker/internal/profile"
)

func m(a, b profile.ID, score float64) matching.Match {
	return matching.Match{A: a, B: b, Score: score}
}

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind()
	uf.Union(1, 2)
	uf.Union(3, 4)
	if uf.Connected(1, 3) {
		t.Fatal("disjoint sets reported connected")
	}
	uf.Union(2, 3)
	if !uf.Connected(1, 4) {
		t.Fatal("transitive union failed")
	}
	if uf.Find(9) != 9 {
		t.Fatal("unseen element must be its own root")
	}
}

func TestConnectedComponentsTransitivity(t *testing.T) {
	// p1~p2, p2~p3 implies p1,p2,p3 in one entity (the paper's
	// transitivity assumption).
	entities := ConnectedComponents([]matching.Match{m(1, 2, 0.9), m(2, 3, 0.8), m(5, 6, 0.7)})
	if len(entities) != 2 {
		t.Fatalf("entities: %v", entities)
	}
	if !reflect.DeepEqual(entities[0].Profiles, []profile.ID{1, 2, 3}) {
		t.Fatalf("first entity: %v", entities[0].Profiles)
	}
	if !reflect.DeepEqual(entities[1].Profiles, []profile.ID{5, 6}) {
		t.Fatalf("second entity: %v", entities[1].Profiles)
	}
}

func TestConnectedComponentsEmpty(t *testing.T) {
	if got := ConnectedComponents(nil); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestEntityIDsSequential(t *testing.T) {
	entities := ConnectedComponents([]matching.Match{m(10, 11, 1), m(1, 2, 1), m(20, 21, 1)})
	for i, e := range entities {
		if e.ID != i {
			t.Fatalf("entity %d has ID %d", i, e.ID)
		}
	}
}

func randomMatches(seed int64, n int) []matching.Match {
	rng := rand.New(rand.NewSource(seed))
	var out []matching.Match
	for i := 0; i < n; i++ {
		a := profile.ID(rng.Intn(40))
		b := profile.ID(rng.Intn(40))
		if a == b {
			continue
		}
		out = append(out, m(a, b, rng.Float64()))
	}
	return out
}

func TestDistributedCCMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx := dataflow.NewContext(dataflow.WithParallelism(workers))
		for seed := int64(0); seed < 5; seed++ {
			matches := randomMatches(seed, 60)
			seq := ConnectedComponents(matches)
			dist, err := DistributedConnectedComponents(ctx, matches, workers*2)
			if err != nil {
				t.Fatal(err)
			}
			if !sameClustering(seq, dist) {
				t.Fatalf("workers=%d seed=%d: clusterings differ\nseq  %v\ndist %v", workers, seed, seq, dist)
			}
		}
		ctx.Close()
	}
}

// TestDistributedCCEveryCut holds the two-phase clusterer to the
// sequential one for every executor and partition count, on no match,
// one match, a chain whose every link lands in its own range (in both
// directions) and a random graph; each range is one task, which ships
// one (profile, local root) record per profile it saw.
func TestDistributedCCEveryCut(t *testing.T) {
	var chain []matching.Match
	for i := 0; i < 40; i++ {
		chain = append(chain, m(profile.ID(i), profile.ID(i+1), 1))
	}
	reversed := slices.Clone(chain)
	slices.Reverse(reversed)
	cases := []struct {
		name    string
		matches []matching.Match
	}{
		{"none", nil},
		{"one", []matching.Match{m(3, 7, 1)}},
		{"chain", chain},
		{"reversed-chain", reversed},
		{"random", randomMatches(3, 60)},
	}
	for _, tc := range cases {
		want := ConnectedComponents(tc.matches)
		n := len(tc.matches)
		for _, workers := range []int{1, 2, 3, 8} {
			for _, parts := range []int{0, 1, n + 5} {
				ctx := dataflow.NewContext(dataflow.WithParallelism(workers))
				got, err := DistributedConnectedComponents(ctx, tc.matches, parts)
				metrics := ctx.Metrics()
				ctx.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !sameClustering(want, got) {
					t.Fatalf("%s executors=%d parts=%d: clusterings differ\nseq  %v\ndist %v", tc.name, workers, parts, want, got)
				}
				ranges, records := 0, 0
				if n > 0 {
					ranges = max(1, min(n, parts))
					if parts < 1 {
						ranges = min(n, workers)
					}
					seen := make([]int, ranges)
					kernel.ForRanges(n, ranges, func(r, lo, hi int) {
						ids := map[profile.ID]bool{}
						for _, mt := range tc.matches[lo:hi] {
							ids[mt.A], ids[mt.B] = true, true
						}
						seen[r] = len(ids)
					})
					for _, s := range seen {
						records += s
					}
				}
				if metrics.TasksLaunched != int64(ranges) || metrics.ShuffleRecords != int64(records) {
					t.Fatalf("%s executors=%d parts=%d: %d tasks shipped %d records, want %d and %d",
						tc.name, workers, parts, metrics.TasksLaunched, metrics.ShuffleRecords, ranges, records)
				}
			}
		}
	}
}

// sameClustering compares the partitions regardless of entity numbering.
func sameClustering(a, b []Entity) bool {
	key := func(es []Entity) map[profile.ID]profile.ID {
		rep := map[profile.ID]profile.ID{}
		for _, e := range es {
			minID := e.Profiles[0]
			for _, p := range e.Profiles {
				rep[p] = minID
			}
		}
		return rep
	}
	return reflect.DeepEqual(key(a), key(b))
}

func TestDistributedCCEmpty(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer ctx.Close()
	got, err := DistributedConnectedComponents(ctx, nil, 2)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v err %v", got, err)
	}
}

func TestQuickCCPartitionIsValid(t *testing.T) {
	f := func(seed int64) bool {
		matches := randomMatches(seed, 50)
		entities := ConnectedComponents(matches)
		// Every matched profile appears in exactly one entity.
		where := map[profile.ID]int{}
		for _, e := range entities {
			for _, p := range e.Profiles {
				if _, dup := where[p]; dup {
					return false
				}
				where[p] = e.ID
			}
		}
		// Every match's endpoints are co-clustered.
		for _, mm := range matches {
			if where[mm.A] != where[mm.B] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCenterClusteringNoChaining(t *testing.T) {
	// Chain 1-2, 2-3, 3-4 with descending scores: CC gives one entity;
	// center clustering keeps 1's cluster from swallowing 4.
	matches := []matching.Match{m(1, 2, 0.9), m(2, 3, 0.8), m(3, 4, 0.7)}
	cc := ConnectedComponents(matches)
	if len(cc) != 1 {
		t.Fatalf("CC entities: %v", cc)
	}
	center := CenterClustering(matches)
	if len(center) < 2 {
		t.Fatalf("center clustering did not break the chain: %v", center)
	}
	// 1 is the first-seen center and captures 2.
	if !reflect.DeepEqual(center[0].Profiles, []profile.ID{1, 2}) {
		t.Fatalf("first cluster: %v", center[0].Profiles)
	}
}

func TestMergeCenterMergesViaSharedNonCenter(t *testing.T) {
	// Centers 1 and 4; profile 2 attaches to 1, then also matches center
	// 4: merge-center unifies the clusters, center clustering does not.
	matches := []matching.Match{
		m(1, 2, 0.9), // 1 center, 2 attached
		m(4, 5, 0.8), // 4 center, 5 attached
		m(4, 2, 0.7), // 2 (attached) matches center 4
	}
	plain := CenterClustering(matches)
	merged := MergeCenterClustering(matches)
	if len(plain) != 2 {
		t.Fatalf("center: %v", plain)
	}
	if len(merged) != 1 {
		t.Fatalf("merge-center should unify: %v", merged)
	}
}

func TestCenterDeterministicOnScoreTies(t *testing.T) {
	matches := []matching.Match{m(3, 4, 0.5), m(1, 2, 0.5)}
	c1 := CenterClustering(matches)
	c2 := CenterClustering([]matching.Match{m(1, 2, 0.5), m(3, 4, 0.5)})
	if !sameClustering(c1, c2) {
		t.Fatal("tie-breaking depends on input order")
	}
}

func TestCenterClusteringAllBranches(t *testing.T) {
	// Exercise every assignment branch: center-meets-unassigned in both
	// argument orders, and skipped matches between two settled profiles.
	matches := []matching.Match{
		m(1, 2, 0.9), // both unassigned: 1 center, 2 attached
		m(3, 1, 0.8), // B is a center, A unassigned: 3 attaches to 1
		m(4, 5, 0.7), // new cluster: 4 center, 5 attached
		m(4, 6, 0.6), // A is a center, B unassigned: 6 attaches to 4
		m(2, 5, 0.5), // both attached: skipped
		m(1, 4, 0.4), // both centers: skipped
	}
	entities := CenterClustering(matches)
	if len(entities) != 2 {
		t.Fatalf("entities: %v", entities)
	}
	if !reflect.DeepEqual(entities[0].Profiles, []profile.ID{1, 2, 3}) {
		t.Fatalf("first cluster: %v", entities[0].Profiles)
	}
	if !reflect.DeepEqual(entities[1].Profiles, []profile.ID{4, 5, 6}) {
		t.Fatalf("second cluster: %v", entities[1].Profiles)
	}
}

func TestMergeCenterAllBranches(t *testing.T) {
	matches := []matching.Match{
		m(1, 2, 0.9), // both unassigned: 1 center
		m(3, 1, 0.8), // B center, A unassigned: attach
		m(4, 5, 0.7), // second cluster
		m(1, 5, 0.6), // A center, B attached elsewhere: merge clusters
		m(6, 7, 0.5), // third cluster
		m(7, 6, 0.4), // both assigned, no center relation: skip
	}
	entities := MergeCenterClustering(matches)
	if len(entities) != 2 {
		t.Fatalf("entities: %v", entities)
	}
	total := 0
	for _, e := range entities {
		total += len(e.Profiles)
	}
	if total != 7 {
		t.Fatalf("profiles covered: %d", total)
	}
}

func TestMergeCenterReverseMerge(t *testing.T) {
	// The symmetric merge branch: B is the center, A is attached elsewhere.
	matches := []matching.Match{
		m(1, 2, 0.9), // 1 center, 2 attached
		m(4, 5, 0.8), // 4 center, 5 attached
		m(2, 4, 0.7), // A attached, B center: merge
	}
	entities := MergeCenterClustering(matches)
	if len(entities) != 1 {
		t.Fatalf("expected one merged entity: %v", entities)
	}
	if !reflect.DeepEqual(entities[0].Profiles, []profile.ID{1, 2, 4, 5}) {
		t.Fatalf("merged entity: %v", entities[0].Profiles)
	}
}

func TestUniqueMappingOneToOne(t *testing.T) {
	// Profile 2 matches both 10 and 11; only the stronger pairing
	// survives, and 11 can then pair with its runner-up 3.
	matches := []matching.Match{
		m(2, 10, 0.9),
		m(2, 11, 0.8),
		m(3, 11, 0.7),
	}
	entities := UniqueMappingClustering(matches)
	if len(entities) != 2 {
		t.Fatalf("entities: %v", entities)
	}
	if !reflect.DeepEqual(entities[0].Profiles, []profile.ID{2, 10}) {
		t.Fatalf("first entity: %v", entities[0].Profiles)
	}
	if !reflect.DeepEqual(entities[1].Profiles, []profile.ID{3, 11}) {
		t.Fatalf("second entity: %v", entities[1].Profiles)
	}
}

func TestUniqueMappingNoProfileTwice(t *testing.T) {
	matches := randomMatches(9, 80)
	entities := UniqueMappingClustering(matches)
	seen := map[profile.ID]bool{}
	for _, e := range entities {
		if len(e.Profiles) != 2 {
			t.Fatalf("unique mapping must yield pairs: %v", e.Profiles)
		}
		for _, p := range e.Profiles {
			if seen[p] {
				t.Fatalf("profile %d assigned twice", p)
			}
			seen[p] = true
		}
	}
}

func TestPairsOf(t *testing.T) {
	entities := []Entity{{ID: 0, Profiles: []profile.ID{1, 2, 3}}}
	pairs := PairsOf(entities)
	if len(pairs) != 3 {
		t.Fatalf("pairs: %v", pairs)
	}
}

func TestDistributedCCIterationsBounded(t *testing.T) {
	// A long path graph, its links split over the ranges, comes out as
	// one entity.
	var matches []matching.Match
	for i := 0; i < 20; i++ {
		matches = append(matches, m(profile.ID(i), profile.ID(i+1), 1))
	}
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer ctx.Close()
	entities, err := DistributedConnectedComponents(ctx, matches, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(entities) != 1 || len(entities[0].Profiles) != 21 {
		t.Fatalf("path graph not unified: %v", entities)
	}
}
