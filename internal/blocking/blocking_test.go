package blocking

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sparker/internal/dataflow"
	"sparker/internal/profile"
)

func mkProfile(id string, kvs ...[2]string) profile.Profile {
	p := profile.Profile{OriginalID: id}
	for _, kv := range kvs {
		p.Add(kv[0], kv[1])
	}
	return p
}

func smallClean() *profile.Collection {
	a := []profile.Profile{
		mkProfile("a1", [2]string{"name", "alpha widget"}),
		mkProfile("a2", [2]string{"name", "beta gadget"}),
		mkProfile("a3", [2]string{"name", "gamma tool"}),
	}
	b := []profile.Profile{
		mkProfile("b1", [2]string{"title", "alpha widget deluxe"}),
		mkProfile("b2", [2]string{"title", "beta gadget pro"}),
	}
	return profile.NewCleanClean(a, b)
}

func TestTokenBlockingCleanRequiresBothSides(t *testing.T) {
	c := smallClean()
	blocks := TokenBlocking(c, Options{})
	for i := range blocks.Blocks {
		b := &blocks.Blocks[i]
		if len(b.A) == 0 || len(b.B) == 0 {
			t.Fatalf("block %q has an empty side", b.Key)
		}
	}
	keys := map[string]bool{}
	for i := range blocks.Blocks {
		keys[blocks.Blocks[i].Key] = true
	}
	for _, want := range []string{"alpha", "widget", "beta", "gadget"} {
		if !keys[want] {
			t.Fatalf("missing block %q (have %v)", want, keys)
		}
	}
	// "gamma"/"tool"/"deluxe"/"pro" appear on one side only.
	for _, absent := range []string{"gamma", "tool", "deluxe", "pro"} {
		if keys[absent] {
			t.Fatalf("unexpected block %q", absent)
		}
	}
}

func TestTokenBlockingDirtyNeedsTwoProfiles(t *testing.T) {
	c := profile.NewDirty([]profile.Profile{
		mkProfile("x", [2]string{"v", "shared unique1"}),
		mkProfile("y", [2]string{"v", "shared unique2"}),
	})
	blocks := TokenBlocking(c, Options{})
	if blocks.NumBlocks() != 1 || blocks.Blocks[0].Key != "shared" {
		t.Fatalf("blocks: %+v", blocks.Blocks)
	}
	if got := blocks.Blocks[0].Comparisons(); got != 1 {
		t.Fatalf("comparisons=%d", got)
	}
}

func TestBlockComparisons(t *testing.T) {
	clean := Block{CleanClean: true, A: []profile.ID{1, 2, 3}, B: []profile.ID{4, 5}}
	if clean.Comparisons() != 6 {
		t.Fatalf("clean: %d", clean.Comparisons())
	}
	dirty := Block{A: []profile.ID{1, 2, 3, 4}}
	if dirty.Comparisons() != 6 {
		t.Fatalf("dirty: %d", dirty.Comparisons())
	}
}

func TestDistinctPairsDeduplicated(t *testing.T) {
	c := smallClean()
	blocks := TokenBlocking(c, Options{})
	pairs := blocks.DistinctPairs()
	seen := map[Pair]bool{}
	for _, p := range pairs {
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
	// a1-b1 co-occur in blocks alpha and widget but must appear once.
	if !seen[Pair{A: 0, B: 3}] {
		t.Fatal("missing pair a1-b1")
	}
}

func TestPurgeBySizeDropsStopWordBlocks(t *testing.T) {
	// "common" appears in every profile: its block holds 100% of profiles
	// and must be purged at the 0.5 default.
	var a, b []profile.Profile
	for i := 0; i < 4; i++ {
		a = append(a, mkProfile(fmt.Sprintf("a%d", i), [2]string{"v", fmt.Sprintf("common worda%d", i)}))
		b = append(b, mkProfile(fmt.Sprintf("b%d", i), [2]string{"v", fmt.Sprintf("common worda%d", i)}))
	}
	c := profile.NewCleanClean(a, b)
	blocks := TokenBlocking(c, Options{})
	purged := PurgeBySize(blocks, 0.5)
	for i := range purged.Blocks {
		if purged.Blocks[i].Key == "common" {
			t.Fatal("giant block survived purging")
		}
	}
	if purged.NumBlocks() != blocks.NumBlocks()-1 {
		t.Fatalf("purged %d blocks, want exactly 1", blocks.NumBlocks()-purged.NumBlocks())
	}
}

func TestFilterRemovesLargestBlocksPerProfile(t *testing.T) {
	// Profile 0 appears in 5 blocks of growing size; ratio 0.8 keeps the 4
	// smallest.
	var blocks []Block
	for i := 0; i < 5; i++ {
		a := []profile.ID{0}
		b := []profile.ID{10}
		for j := 0; j < i; j++ {
			b = append(b, profile.ID(11+j))
		}
		blocks = append(blocks, Block{Key: fmt.Sprintf("k%d", i), CleanClean: true, A: a, B: b})
	}
	col := &Collection{Blocks: blocks, CleanClean: true, NumProfiles: 20}
	filtered := Filter(col, 0.8)
	for i := range filtered.Blocks {
		if filtered.Blocks[i].Key == "k4" {
			for _, id := range filtered.Blocks[i].A {
				if id == 0 {
					t.Fatal("profile 0 still in its largest block")
				}
			}
		}
	}
}

func TestFilterDropsDegenerateBlocks(t *testing.T) {
	c := smallClean()
	blocks := TokenBlocking(c, Options{})
	filtered := Filter(blocks, 0.5)
	for i := range filtered.Blocks {
		b := &filtered.Blocks[i]
		if b.Size() < 2 || (filtered.CleanClean && (len(b.A) == 0 || len(b.B) == 0)) {
			t.Fatalf("degenerate block survived: %+v", b)
		}
	}
}

func TestFilterRecallPreserved(t *testing.T) {
	// The known match a1-b1 shares two distinctive tokens; filtering at the
	// default ratio must not sever it.
	c := smallClean()
	blocks := TokenBlocking(c, Options{})
	filtered := Filter(blocks, DefaultFilterRatio)
	found := false
	for _, p := range filtered.DistinctPairs() {
		if p.A == 0 && p.B == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("filtering severed the distinctive match")
	}
}

func TestBuildIndex(t *testing.T) {
	c := smallClean()
	blocks := TokenBlocking(c, Options{})
	idx := BuildIndex(blocks)
	if got := idx.NumBlocksOf(0); got != 2 { // alpha, widget
		t.Fatalf("a1 in %d blocks, want 2", got)
	}
	ids := idx.ProfileIDs()
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatal("ProfileIDs not sorted")
	}
	// gamma/tool profile never blocks.
	for _, id := range ids {
		if id == 2 {
			t.Fatal("profile without cross-source tokens must not be indexed")
		}
	}
}

func TestStatsString(t *testing.T) {
	c := smallClean()
	blocks := TokenBlocking(c, Options{})
	s := blocks.ComputeStats()
	if s.NumBlocks != blocks.NumBlocks() || s.TotalComparisons != blocks.TotalComparisons() {
		t.Fatalf("stats mismatch: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestPairCanonical(t *testing.T) {
	p := Pair{A: 5, B: 2}.Canonical()
	if p.A != 2 || p.B != 5 {
		t.Fatalf("got %v", p)
	}
}

// TestDistributedMatchesSequential verifies the core substitution claim:
// the dataflow implementation produces exactly the sequential blocks.
func TestDistributedMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		ctx := dataflow.NewContext(dataflow.WithParallelism(workers))
		c := smallClean()
		seq := TokenBlocking(c, Options{})
		dist, err := DistributedTokenBlocking(ctx, c, Options{}, workers*2)
		ctx.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !sameBlocks(seq, dist) {
			t.Fatalf("workers=%d: distributed blocks differ from sequential", workers)
		}
	}
}

func sameBlocks(x, y *Collection) bool {
	if x.NumBlocks() != y.NumBlocks() {
		return false
	}
	norm := func(c *Collection) map[string][]profile.ID {
		out := map[string][]profile.ID{}
		for i := range c.Blocks {
			b := c.Blocks[i]
			ids := append(append([]profile.ID{}, b.A...), b.B...)
			sort.Slice(ids, func(p, q int) bool { return ids[p] < ids[q] })
			out[b.Key] = ids
		}
		return out
	}
	return reflect.DeepEqual(norm(x), norm(y))
}

func TestQuickDistributedEqualsSequential(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.WithParallelism(4))
	defer ctx.Close()
	f := func(seed int64) bool {
		c := randomCollection(seed)
		seq := TokenBlocking(c, Options{})
		dist, err := DistributedTokenBlocking(ctx, c, Options{}, 3)
		if err != nil {
			return false
		}
		return sameBlocks(seq, dist)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// randomCollection builds a small deterministic collection from a seed.
func randomCollection(seed int64) *profile.Collection {
	words := []string{"red", "green", "blue", "fast", "slow", "big", "small", "x1", "x2", "x3"}
	next := uint64(seed)
	rnd := func(n int) int {
		next = next*6364136223846793005 + 1442695040888963407
		return int((next >> 33) % uint64(n))
	}
	var a, b []profile.Profile
	for i := 0; i < 8; i++ {
		var val string
		for w := 0; w < 3; w++ {
			val += words[rnd(len(words))] + " "
		}
		p := mkProfile(fmt.Sprintf("p%d", i), [2]string{"v", val})
		if rnd(2) == 0 {
			a = append(a, p)
		} else {
			b = append(b, p)
		}
	}
	if len(a) == 0 {
		a = append(a, mkProfile("pad", [2]string{"v", "red"}))
	}
	if len(b) == 0 {
		b = append(b, mkProfile("pad2", [2]string{"v", "red"}))
	}
	return profile.NewCleanClean(a, b)
}

func TestQuickPurgeNeverIncreasesComparisons(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCollection(seed)
		blocks := TokenBlocking(c, Options{})
		purged := PurgeBySize(blocks, 0.5)
		filtered := Filter(purged, 0.8)
		return purged.TotalComparisons() <= blocks.TotalComparisons() &&
			filtered.TotalComparisons() <= purged.TotalComparisons()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLooseSchemaKeys(t *testing.T) {
	clustering := stubClustering{"name": 1, "price": 2}
	c := profile.NewCleanClean(
		[]profile.Profile{mkProfile("a", [2]string{"name", "widget"}, [2]string{"price", "99"})},
		[]profile.Profile{mkProfile("b", [2]string{"name", "widget"}, [2]string{"price", "99"})},
	)
	blocks := TokenBlocking(c, Options{Clustering: clustering})
	got := map[string]bool{}
	for i := range blocks.Blocks {
		got[blocks.Blocks[i].Key] = true
	}
	if !got["widget_1"] || !got["99_2"] {
		t.Fatalf("loose keys missing: %v", got)
	}
}

type stubClustering map[string]int

func (s stubClustering) ClusterOf(_ int, attribute string) int { return s[attribute] }

// TestHugeProfileDoesNotTaxLaterDerivations: the pooled dedup set is
// cleared at the cost of its capacity, so a set grown by one oversized
// profile must not go back to the pool, or every later derivation that
// draws that scratch pays for the huge profile again. appendKeys leaves
// its scratch ready for the pool; the test hands it one of its own,
// since what sync.Pool returns is not deterministic (under -race it
// drops items at random). A set one key past maxPooledSeen must come
// back as a different, empty map; one at the bound, or small, as the
// same map, cleared.
func TestHugeProfileDoesNotTaxLaterDerivations(t *testing.T) {
	var opts Options
	ks := keyScratchPool.New().(*keyScratch)
	for _, tc := range []struct {
		tokens int
		reused bool
	}{{maxPooledSeen, true}, {maxPooledSeen + 1, false}, {3, true}} {
		var b strings.Builder
		for i := 0; i < tc.tokens; i++ {
			fmt.Fprintf(&b, "t%d ", i)
		}
		p := mkProfile("h", [2]string{"text", b.String()})
		before := reflect.ValueOf(ks.seen).Pointer()
		if keys := opts.appendKeys(ks, nil, &p); len(keys) != tc.tokens {
			t.Fatalf("%d-token profile: %d keys", tc.tokens, len(keys))
		}
		if len(ks.seen) != 0 {
			t.Fatalf("%d-token profile: the dedup set holds %d keys after the derivation", tc.tokens, len(ks.seen))
		}
		if reused := reflect.ValueOf(ks.seen).Pointer() == before; reused != tc.reused {
			t.Fatalf("%d-token profile (pool bound %d): dedup set reused = %v, want %v",
				tc.tokens, maxPooledSeen, reused, tc.reused)
		}
	}
}
