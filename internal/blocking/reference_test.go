package blocking

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"sparker/internal/dataflow"
	"sparker/internal/profile"
)

// This file retains the pre-flat-kernel batch blocking pipeline as
// map-based reference implementations and proves, property-style, that
// the corpus TokenBlocking, the CSR Filter, the flat BuildIndex and the
// kernel DistinctPairs are exact drop-ins: block collections, indexes
// and pair sets must be identical across clean/dirty × loose-schema ×
// filter-ratio × min-block-size, for every worker count.
// The references deliberately keep the old shapes — a global key map with
// per-key *bucket allocations, map[profile.ID][]assignment plus
// []map[profile.ID]bool keep sets, a map-backed index, map[Pair]bool
// dedup — so the two code paths share as little as possible.

// refTokenBlocking is the historical sequential map build.
func refTokenBlocking(c *profile.Collection, opts Options) *Collection {
	minSize := opts.MinBlockSize
	if minSize < 2 {
		minSize = 2
	}
	type bucket struct {
		cluster int
		a, b    []profile.ID
	}
	buckets := make(map[string]*bucket)
	for i := range c.Profiles {
		p := &c.Profiles[i]
		for _, kt := range opts.KeysOf(p) {
			bk := buckets[kt.Key]
			if bk == nil {
				bk = &bucket{cluster: kt.Cluster}
				buckets[kt.Key] = bk
			}
			if c.IsClean() && p.SourceID == 1 {
				bk.b = append(bk.b, p.ID)
			} else {
				bk.a = append(bk.a, p.ID)
			}
		}
	}
	out := &Collection{CleanClean: c.IsClean(), NumProfiles: c.Size()}
	for key, bk := range buckets {
		if len(bk.a)+len(bk.b) < minSize {
			continue
		}
		if c.IsClean() && (len(bk.a) == 0 || len(bk.b) == 0) {
			continue
		}
		out.Blocks = append(out.Blocks, Block{
			Key:        key,
			ClusterID:  bk.cluster,
			CleanClean: c.IsClean(),
			A:          bk.a,
			B:          bk.b,
		})
	}
	sortBlocks(out.Blocks)
	return out
}

// refFilter is the historical map-based block filtering.
func refFilter(c *Collection, ratio float64) *Collection {
	if ratio <= 0 || ratio > 1 {
		ratio = DefaultFilterRatio
	}
	type assignment struct {
		block int
		size  int64
	}
	perProfile := make(map[profile.ID][]assignment)
	for i := range c.Blocks {
		card := c.Blocks[i].Comparisons()
		for _, id := range c.Blocks[i].A {
			perProfile[id] = append(perProfile[id], assignment{block: i, size: card})
		}
		for _, id := range c.Blocks[i].B {
			perProfile[id] = append(perProfile[id], assignment{block: i, size: card})
		}
	}
	keep := make([]map[profile.ID]bool, len(c.Blocks))
	for i := range keep {
		keep[i] = make(map[profile.ID]bool)
	}
	for id, as := range perProfile {
		sort.Slice(as, func(i, j int) bool {
			if as[i].size != as[j].size {
				return as[i].size < as[j].size
			}
			return c.Blocks[as[i].block].Key < c.Blocks[as[j].block].Key
		})
		limit := int(math.Ceil(ratio * float64(len(as))))
		if limit < 1 {
			limit = 1
		}
		for _, a := range as[:limit] {
			keep[a.block][id] = true
		}
	}
	out := &Collection{CleanClean: c.CleanClean, NumProfiles: c.NumProfiles}
	for i := range c.Blocks {
		b := &c.Blocks[i]
		var a2, b2 []profile.ID
		for _, id := range b.A {
			if keep[i][id] {
				a2 = append(a2, id)
			}
		}
		for _, id := range b.B {
			if keep[i][id] {
				b2 = append(b2, id)
			}
		}
		if len(a2)+len(b2) < 2 {
			continue
		}
		if c.CleanClean && (len(a2) == 0 || len(b2) == 0) {
			continue
		}
		out.Blocks = append(out.Blocks, Block{
			Key: b.Key, ClusterID: b.ClusterID, CleanClean: b.CleanClean, A: a2, B: b2,
		})
	}
	return out
}

// refBuildIndex is the historical map-backed profile-to-blocks index.
func refBuildIndex(c *Collection) map[profile.ID][]BlockRef {
	out := make(map[profile.ID][]BlockRef)
	for i := range c.Blocks {
		b := &c.Blocks[i]
		for _, id := range b.A {
			out[id] = append(out[id], MakeBlockRef(int32(i), false))
		}
		for _, id := range b.B {
			out[id] = append(out[id], MakeBlockRef(int32(i), true))
		}
	}
	return out
}

// refDistinctPairs is the historical map[Pair]bool dedup enumeration, in
// first-seen block order.
func refDistinctPairs(c *Collection) []Pair {
	seen := make(map[Pair]bool)
	var out []Pair
	add := func(p Pair) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for i := range c.Blocks {
		b := &c.Blocks[i]
		if c.CleanClean {
			for _, a := range b.A {
				for _, bb := range b.B {
					add(Pair{A: a, B: bb})
				}
			}
		} else {
			for x := 0; x < len(b.A); x++ {
				for y := x + 1; y < len(b.A); y++ {
					add(Pair{A: b.A[x], B: b.A[y]}.Canonical())
				}
			}
		}
	}
	return out
}

// --- fixtures ---

// matrixCollection builds a deterministic clean or dirty collection with
// multiple attributes, shared vocabulary across sources, and skewed token
// frequencies (so purge/filter have real work to do).
func matrixCollection(seed int64, clean bool, n int) *profile.Collection {
	next := uint64(seed)*2654435761 + 12345
	rnd := func(mod int) int {
		next = next*6364136223846793005 + 1442695040888963407
		return int((next >> 33) % uint64(mod))
	}
	words := []string{
		"alpha", "beta", "gamma", "delta", "widget", "gadget", "pro", "deluxe",
		"mini", "max", "red", "blue", "steel", "carbon", "x100", "x200", "v2",
	}
	attrs := [][2]string{{"name", "title"}, {"descr", "short_descr"}, {"price", "list_price"}}
	mk := func(i, src int) profile.Profile {
		p := profile.Profile{OriginalID: fmt.Sprintf("s%d-%d", src, i)}
		for a := 0; a < len(attrs); a++ {
			var val string
			k := 1 + rnd(4)
			for w := 0; w < k; w++ {
				val += words[rnd(len(words))] + " "
			}
			// Common stop-word-ish token in ~half the profiles.
			if rnd(2) == 0 {
				val += "common "
			}
			p.Add(attrs[a][src%2], val)
		}
		return p
	}
	if clean {
		var a, b []profile.Profile
		for i := 0; i < n/2; i++ {
			a = append(a, mk(i, 0))
		}
		for i := 0; i < n-n/2; i++ {
			b = append(b, mk(i, 1))
		}
		return profile.NewCleanClean(a, b)
	}
	var ps []profile.Profile
	for i := 0; i < n; i++ {
		ps = append(ps, mk(i, i%2))
	}
	return profile.NewDirty(ps)
}

// matrixClustering maps every attribute name to a small cluster space so
// the loose-schema arm of the matrix produces multi-cluster keys.
type matrixClustering struct{}

func (matrixClustering) ClusterOf(sourceID int, attribute string) int {
	switch attribute {
	case "name", "title":
		return 1
	case "descr", "short_descr":
		return 2
	}
	return 0
}

// --- comparison helpers ---

func requireSameCollection(t *testing.T, label string, want, got *Collection) {
	t.Helper()
	if want.CleanClean != got.CleanClean || want.NumProfiles != got.NumProfiles {
		t.Fatalf("%s: metadata (%v,%d) != reference (%v,%d)",
			label, got.CleanClean, got.NumProfiles, want.CleanClean, want.NumProfiles)
	}
	if len(want.Blocks) != len(got.Blocks) {
		t.Fatalf("%s: %d blocks, reference %d", label, len(got.Blocks), len(want.Blocks))
	}
	for i := range want.Blocks {
		if !reflect.DeepEqual(want.Blocks[i], got.Blocks[i]) {
			t.Fatalf("%s: block %d\n got %+v\nwant %+v", label, i, got.Blocks[i], want.Blocks[i])
		}
	}
}

func requireSameIndex(t *testing.T, label string, want map[profile.ID][]BlockRef, got *Index) {
	t.Helper()
	if len(want) != got.NumProfiles() {
		t.Fatalf("%s: %d profiles indexed, reference %d", label, got.NumProfiles(), len(want))
	}
	bound := got.MaxProfileID() + 4
	for id := profile.ID(-1); id <= bound; id++ {
		w := want[id]
		g := got.BlocksOf(id)
		if len(w) != len(g) {
			t.Fatalf("%s: id %d has %d refs, reference %d", label, id, len(g), len(w))
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("%s: id %d ref %d is %v, reference %v", label, id, j, g[j], w[j])
			}
		}
		if got.NumBlocksOf(id) != len(w) {
			t.Fatalf("%s: NumBlocksOf(%d)=%d, reference %d", label, id, got.NumBlocksOf(id), len(w))
		}
	}
	ids := got.ProfileIDs()
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatalf("%s: ProfileIDs not sorted", label)
	}
	for _, id := range ids {
		if len(want[id]) == 0 {
			t.Fatalf("%s: ProfileIDs lists %d, which the reference does not index", label, id)
		}
	}
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

func requireSamePairs(t *testing.T, label string, want, got []Pair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: pair %d is %v, reference %v", label, i, got[i], want[i])
		}
	}
}

// TestBatchPipelineMatchesMapReference is the equivalence property of the
// rebuilt batch pipeline: across clean/dirty × schema-agnostic/loose-
// schema × filter ratios × min block sizes × seeds, every stage must
// reproduce its retained map-based reference exactly — TokenBlocking at
// several GOMAXPROCS, Filter, BuildIndex and DistinctPairs end to end.
func TestBatchPipelineMatchesMapReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, clean := range []bool{false, true} {
		for _, loose := range []bool{false, true} {
			for _, seed := range []int64{1, 42} {
				opts := Options{}
				if loose {
					opts.Clustering = matrixClustering{}
				}
				c := matrixCollection(seed, clean, 60)
				for _, minSize := range []int{0, 3} {
					opts.MinBlockSize = minSize
					label := fmt.Sprintf("clean=%v/loose=%v/seed=%d/min=%d", clean, loose, seed, minSize)

					want := refTokenBlocking(c, opts)
					for _, procs := range []int{1, 2, 3, 8} {
						runtime.GOMAXPROCS(procs)
						got := TokenBlocking(c, opts)
						requireSameCollection(t, fmt.Sprintf("%s/GOMAXPROCS=%d", label, procs), want, got)
					}

					for _, ratio := range []float64{0.3, 0.8, 1.0} {
						fl := fmt.Sprintf("%s/ratio=%g", label, ratio)
						wantF := refFilter(want, ratio)
						gotF := Filter(want, ratio)
						requireSameCollection(t, fl+"/filter", wantF, gotF)

						requireSameIndex(t, fl+"/index", refBuildIndex(wantF), BuildIndex(wantF))

						wantP := refDistinctPairs(wantF)
						sortPairs(wantP)
						requireSamePairs(t, fl+"/pairs", wantP, wantF.DistinctPairs())
					}
				}
			}
		}
	}
}

// TestDistributedMatchesMapReference pins the distributed blocker to the
// same reference: the index-mapped MapPartitions build must emit exactly
// the sequential reference blocks, including within-block ID order.
func TestDistributedMatchesMapReference(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.WithParallelism(3))
	defer ctx.Close()
	for _, clean := range []bool{false, true} {
		for _, loose := range []bool{false, true} {
			opts := Options{}
			if loose {
				opts.Clustering = matrixClustering{}
			}
			c := matrixCollection(7, clean, 50)
			want := refTokenBlocking(c, opts)
			for _, parts := range []int{1, 4, 7} {
				got, err := DistributedTokenBlocking(ctx, c, opts, parts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("clean=%v/loose=%v/parts=%d", clean, loose, parts)
				requireSameCollection(t, label, want, got)
			}
		}
	}
}

// TestBatchScratchReuse runs two different collections through the pooled
// worker buffers and mark sets back to back, guarding against cross-run
// contamination of the recycled state.
func TestBatchScratchReuse(t *testing.T) {
	a := matrixCollection(3, false, 40)
	b := matrixCollection(9, true, 40)
	for i := 0; i < 3; i++ {
		for _, c := range []*profile.Collection{a, b} {
			blocks := TokenBlocking(c, Options{})
			requireSameCollection(t, "reuse/blocks", refTokenBlocking(c, Options{}), blocks)
			filtered := Filter(blocks, 0.6)
			requireSameCollection(t, "reuse/filter", refFilter(blocks, 0.6), filtered)
			want := refDistinctPairs(filtered)
			sortPairs(want)
			requireSamePairs(t, "reuse/pairs", want, filtered.DistinctPairs())
		}
	}
}

// TestFilterEmptyAndDegenerate pins the CSR pass's edge cases: empty
// collections, an all-filtered collection, and out-of-range lookups on
// the flat index.
func TestFilterEmptyAndDegenerate(t *testing.T) {
	empty := &Collection{CleanClean: true, NumProfiles: 10}
	if got := Filter(empty, 0.8); got.NumBlocks() != 0 {
		t.Fatalf("filter of empty collection: %d blocks", got.NumBlocks())
	}
	if got := empty.DistinctPairs(); len(got) != 0 {
		t.Fatalf("pairs of empty collection: %d", len(got))
	}
	idx := BuildIndex(empty)
	if idx.MaxProfileID() != -1 || idx.NumProfiles() != 0 || len(idx.ProfileIDs()) != 0 {
		t.Fatalf("empty index: max=%d n=%d", idx.MaxProfileID(), idx.NumProfiles())
	}
	if refs := idx.BlocksOf(0); refs != nil {
		t.Fatalf("BlocksOf on empty index: %v", refs)
	}
	one := &Collection{Blocks: []Block{{Key: "k", A: []profile.ID{7}}}, NumProfiles: 8}
	if got := Filter(one, 0.8); got.NumBlocks() != 0 {
		t.Fatalf("singleton block survived: %d", got.NumBlocks())
	}
	oneIdx := BuildIndex(one)
	if oneIdx.BlocksOf(-1) != nil || oneIdx.BlocksOf(1000) != nil {
		t.Fatal("out-of-range BlocksOf not nil")
	}
	if oneIdx.NumBlocksOf(7) != 1 || oneIdx.MaxProfileID() != 7 {
		t.Fatalf("singleton index: n=%d max=%d", oneIdx.NumBlocksOf(7), oneIdx.MaxProfileID())
	}
}

// TestTokenBlockingWorkersRace exercises the corpus build's fan-out, up
// to one range per minimum-size slice of the collection, under
// concurrent calls at several GOMAXPROCS — the target of the CI -race
// run for this package.
func TestTokenBlockingWorkersRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	c := matrixCollection(11, true, 600)
	want := refTokenBlocking(c, Options{})
	for _, procs := range []int{1, 4, 7, 64} {
		runtime.GOMAXPROCS(procs)
		done := make(chan *Collection, 4)
		for i := 0; i < 4; i++ {
			go func() { done <- TokenBlocking(c, Options{}) }()
		}
		for i := 0; i < 4; i++ {
			requireSameCollection(t, fmt.Sprintf("race/GOMAXPROCS=%d", procs), want, <-done)
		}
	}
}
