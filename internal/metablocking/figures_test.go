package metablocking

// Golden tests reproducing the paper's toy examples exactly: Figure 1
// (schema-agnostic meta-blocking) and Figure 2 (loose-schema meta-blocking
// with entropy). The four bibliographic profiles, the blocks they
// generate, every edge weight, and the pruned edge sets are all taken
// from the figures.

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"sparker/internal/blocking"
	"sparker/internal/profile"
)

// figureProfiles builds p1..p4 of Figure 1(a) as a dirty collection
// (the figure connects same-source profiles, so the toy is dirty ER).
func figureProfiles() *profile.Collection {
	mk := func(id string, kvs ...[2]string) profile.Profile {
		p := profile.Profile{OriginalID: id}
		for _, kv := range kvs {
			p.Add(kv[0], kv[1])
		}
		return p
	}
	p1 := mk("p1",
		[2]string{"name", "Blast"},
		[2]string{"authors", "G. Simonini"},
		[2]string{"abstract", "how to improve meta-blocking"})
	p2 := mk("p2",
		[2]string{"name", "SparkER"},
		[2]string{"authors", "L. Gagliardelli"},
		[2]string{"abstract", "Simonini et al proposed blocking"})
	p3 := mk("p3",
		[2]string{"title", "Blast: loosely schema blocking"},
		[2]string{"author", "Giovanni Simonini"},
		[2]string{"year", "2016"})
	p4 := mk("p4",
		[2]string{"title", "SparkER: parallel Blast"},
		[2]string{"author", "Luca Gagliardelli"},
		[2]string{"year", "2017"})
	return profile.NewDirty([]profile.Profile{p1, p2, p3, p4})
}

func blockKeys(c *blocking.Collection) map[string][]profile.ID {
	out := map[string][]profile.ID{}
	for i := range c.Blocks {
		b := c.Blocks[i]
		ids := append(append([]profile.ID{}, b.A...), b.B...)
		sort.Slice(ids, func(x, y int) bool { return ids[x] < ids[y] })
		out[b.Key] = ids
	}
	return out
}

// TestFigure1Blocks checks the schema-agnostic token blocking of Figure
// 1(b): exactly the five blocks shown, with the profiles shown.
func TestFigure1Blocks(t *testing.T) {
	c := figureProfiles()
	blocks := blocking.TokenBlocking(c, blocking.Options{})
	got := blockKeys(blocks)
	want := map[string][]profile.ID{
		"blast":        {0, 2, 3},
		"simonini":     {0, 1, 2},
		"blocking":     {0, 1, 2},
		"sparker":      {1, 3},
		"gagliardelli": {1, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("blocks mismatch:\ngot  %v\nwant %v", got, want)
	}
}

// TestFigure1MetaBlocking checks Figure 1(c): CBS edge weights
// (3,2,2,2,1,1) and average-threshold pruning that removes exactly the
// dashed edges p1-p4 and p3-p4.
func TestFigure1MetaBlocking(t *testing.T) {
	c := figureProfiles()
	blocks := blocking.TokenBlocking(c, blocking.Options{})
	idx := blocking.BuildIndex(blocks)
	edges := Run(idx, Options{Scheme: CBS, Pruning: WEP})

	want := []Edge{
		{A: 0, B: 1, Weight: 2}, // p1-p2
		{A: 0, B: 2, Weight: 3}, // p1-p3
		{A: 1, B: 2, Weight: 2}, // p2-p3
		{A: 1, B: 3, Weight: 2}, // p2-p4
	}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("retained edges mismatch:\ngot  %v\nwant %v", edges, want)
	}
}

// figure2Partitioning is the loose schema of Figure 2(a): cluster 1 =
// {Name, Title, Abstract} with entropy 0.4, cluster 2 = {Authors, Author}
// with entropy 0.8 (year stays in the blob).
type figure2Partitioning struct{}

func (figure2Partitioning) ClusterOf(_ int, attribute string) int {
	switch attribute {
	case "name", "title", "abstract":
		return 1
	case "authors", "author":
		return 2
	}
	return 0
}

func (figure2Partitioning) EntropyOf(cluster int) float64 {
	switch cluster {
	case 1:
		return 0.4
	case 2:
		return 0.8
	}
	return 0
}

// TestFigure2LooseBlocks checks Figure 2(b): the token "simonini" splits
// into simonini_author {p1, p3} and simonini_text {p2}; the latter
// produces no block.
func TestFigure2LooseBlocks(t *testing.T) {
	c := figureProfiles()
	blocks := blocking.TokenBlocking(c, blocking.Options{Clustering: figure2Partitioning{}})
	got := blockKeys(blocks)
	want := map[string][]profile.ID{
		"blast_1":        {0, 2, 3},
		"blocking_1":     {0, 1, 2},
		"sparker_1":      {1, 3},
		"simonini_2":     {0, 2},
		"gagliardelli_2": {1, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loose blocks mismatch:\ngot  %v\nwant %v", got, want)
	}
}

// TestFigure2EntropyMetaBlocking checks Figure 2(c): entropy-weighted
// edges (p1-p3 = 1.6, p2-p4 = 1.2, all others 0.4) and pruning that keeps
// only the two correct matches, removing the red edges Figure 1(c)
// retained.
func TestFigure2EntropyMetaBlocking(t *testing.T) {
	c := figureProfiles()
	blocks := blocking.TokenBlocking(c, blocking.Options{Clustering: figure2Partitioning{}})
	idx := blocking.BuildIndex(blocks)

	edges := Run(idx, Options{Scheme: CBS, Pruning: WEP, Entropy: figure2Partitioning{}})
	if len(edges) != 2 {
		t.Fatalf("retained %d edges, want 2: %v", len(edges), edges)
	}
	if edges[0].A != 0 || edges[0].B != 2 || math.Abs(edges[0].Weight-1.6) > 1e-9 {
		t.Fatalf("edge p1-p3 wrong: %+v", edges[0])
	}
	if edges[1].A != 1 || edges[1].B != 3 || math.Abs(edges[1].Weight-1.2) > 1e-9 {
		t.Fatalf("edge p2-p4 wrong: %+v", edges[1])
	}
}

// TestFigure2AllEdgeWeights verifies every weight of the Figure 2(c)
// graph before pruning.
func TestFigure2AllEdgeWeights(t *testing.T) {
	c := figureProfiles()
	blocks := blocking.TokenBlocking(c, blocking.Options{Clustering: figure2Partitioning{}})
	idx := blocking.BuildIndex(blocks)
	g := newGraphContext(idx, Options{Scheme: CBS, Entropy: figure2Partitioning{}})

	want := map[[2]profile.ID]float64{
		{0, 1}: 0.4, {0, 2}: 1.6, {0, 3}: 0.4,
		{1, 2}: 0.4, {1, 3}: 1.2, {2, 3}: 0.4,
	}
	got := map[[2]profile.ID]float64{}
	for _, e := range allEdges(g, idx.ProfileIDs()) {
		got[[2]profile.ID{e.A, e.B}] = e.Weight
	}
	if len(got) != len(want) {
		t.Fatalf("edge count: got %v want %v", got, want)
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("edge %v: weight %.3f, want %.3f", k, got[k], w)
		}
	}
}
