package sparker_test

// Cross-module invariant tests: properties that must hold across the
// whole pipeline regardless of configuration, checked on generated data
// with testing/quick-style seed variation.

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"sparker"
	"sparker/internal/blocking"
	"sparker/internal/dataflow"
	"sparker/internal/datagen"
	"sparker/internal/evaluation"
	"sparker/internal/looseschema"
	"sparker/internal/metablocking"
)

func seededDataset(t *testing.T, seed int64) (*sparker.Collection, *sparker.GroundTruth) {
	t.Helper()
	cfg := datagen.AbtBuy()
	cfg.CoreEntities = 80
	cfg.AOnly = 8
	cfg.BDup = 6
	cfg.Seed = seed
	ds := datagen.Generate(cfg)
	gt, err := evaluation.FromOriginalIDs(ds.Collection, ds.GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Collection, gt
}

// TestInvariantEveryCandidateSharesAKey: every pair the blocker emits
// must actually share at least one blocking key — blocking never invents
// comparisons.
func TestInvariantEveryCandidateSharesAKey(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c, _ := seededDataset(t, seed)
		opts := sparker.BlockingOptions{}
		blocks := sparker.TokenBlocking(c, opts)
		pairs := blocks.DistinctPairs()
		for i, p := range pairs {
			if i == 200 {
				break
			}
			if len(sparker.SharedBlockingKeys(c, opts, p.A, p.B)) == 0 {
				t.Fatalf("seed %d: pair %v shares no key", seed, p)
			}
		}
	}
}

// TestInvariantMetaBlockingIsSubset: meta-blocking only removes
// comparisons; its candidates are a subset of the block-implied pairs.
func TestInvariantMetaBlockingIsSubset(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c, _ := seededDataset(t, seed)
		blocks := sparker.TokenBlocking(c, sparker.BlockingOptions{})
		filtered := sparker.FilterBlocks(sparker.PurgeBlocks(blocks, 0.5), 0.8)
		implied := map[blocking.Pair]bool{}
		for _, p := range filtered.DistinctPairs() {
			implied[p.Canonical()] = true
		}
		idx := sparker.BuildBlockIndex(filtered)
		for _, pruning := range []metablocking.Pruning{metablocking.WEP, metablocking.BlastPruning, metablocking.CNP} {
			edges := sparker.RunMetaBlocking(idx, sparker.MetaBlockingOptions{Scheme: sparker.CBS, Pruning: pruning})
			for _, e := range edges {
				if !implied[(blocking.Pair{A: e.A, B: e.B}).Canonical()] {
					t.Fatalf("seed %d %v: edge (%d,%d) not implied by any block", seed, pruning, e.A, e.B)
				}
			}
		}
	}
}

// TestInvariantCleanCleanNoSameSourcePairs: in clean-clean tasks no
// candidate pair may come from a single source.
func TestInvariantCleanCleanNoSameSourcePairs(t *testing.T) {
	c, _ := seededDataset(t, 5)
	res, err := sparker.Resolve(c, sparker.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Blocker.Candidates {
		if c.SameSource(p.A, p.B) {
			t.Fatalf("same-source candidate %v", p)
		}
	}
	for _, m := range res.Matches {
		if c.SameSource(m.A, m.B) {
			t.Fatalf("same-source match %v", m)
		}
	}
}

// TestInvariantEntitiesPartitionMatchedProfiles: entities never overlap
// and cover exactly the matched profiles (for connected components).
func TestInvariantEntitiesPartitionMatchedProfiles(t *testing.T) {
	c, _ := seededDataset(t, 7)
	res, err := sparker.Resolve(c, sparker.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	matched := map[sparker.ProfileID]bool{}
	for _, m := range res.Matches {
		matched[m.A] = true
		matched[m.B] = true
	}
	seen := map[sparker.ProfileID]bool{}
	for _, e := range res.Entities {
		for _, id := range e.Profiles {
			if seen[id] {
				t.Fatalf("profile %d in two entities", id)
			}
			seen[id] = true
			if !matched[id] {
				t.Fatalf("profile %d clustered without a match", id)
			}
		}
	}
	if len(seen) != len(matched) {
		t.Fatalf("entities cover %d profiles, matches touch %d", len(seen), len(matched))
	}
}

// TestInvariantThresholdMonotone: raising the match threshold never adds
// matches.
func TestInvariantThresholdMonotone(t *testing.T) {
	c, _ := seededDataset(t, 9)
	blocker, err := sparker.NewPipeline(sparker.DefaultConfig(), nil).RunBlocker(c)
	if err != nil {
		t.Fatal(err)
	}
	measure := sparker.JaccardMeasure(sparker.TokenizerOptions{})
	prev := -1
	for _, th := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		n := len(sparker.MatchPairs(c, blocker.Candidates, measure, th))
		if prev >= 0 && n > prev {
			t.Fatalf("threshold %.1f yields %d matches > %d at the lower threshold", th, n, prev)
		}
		prev = n
	}
}

// TestInvariantEntropyNeverNegative: cluster entropies are non-negative
// and the blob of an all-clustered collection stays empty.
func TestInvariantEntropyNeverNegative(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c, _ := seededDataset(t, seed)
		for _, th := range []float64{0.15, 0.3, 0.6, 1.0} {
			part := looseschema.Partition(c, looseschema.Options{Threshold: th})
			for k := range part.Clusters {
				if part.EntropyOf(k) < 0 {
					t.Fatalf("seed %d th %.2f: negative entropy in cluster %d", seed, th, k)
				}
			}
		}
	}
}

// TestInvariantProgressivePrefixRecallDominates: for best-first
// scheduling, recall at a larger budget never drops (prefix property).
func TestInvariantProgressivePrefixRecallDominates(t *testing.T) {
	c, gt := seededDataset(t, 11)
	blocks := sparker.TokenBlocking(c, sparker.BlockingOptions{})
	filtered := sparker.FilterBlocks(sparker.PurgeBlocks(blocks, 0.5), 0.8)
	idx := sparker.BuildBlockIndex(filtered)
	full := sparker.ScheduleComparisons(idx, sparker.MetaBlockingOptions{Scheme: sparker.ARCS}, sparker.ScheduleProfiles, 0)
	prevFound := 0
	for _, frac := range []int{10, 25, 50, 100} {
		budget := len(full) * frac / 100
		found := 0
		for _, e := range full[:budget] {
			if gt.Contains(sparker.CandidatePair{A: e.A, B: e.B}) {
				found++
			}
		}
		if found < prevFound {
			t.Fatalf("recall dropped with a larger budget: %d < %d", found, prevFound)
		}
		prevFound = found
	}
}

// goldenPass is one recorded whole-pipeline outcome: edge and match
// counts, the FNV-1a of the (A, B, Float64bits(Weight)) edge list and of
// the (A, B, Float64bits(Score)) match list, and the order-free
// entity-set hash.
type goldenPass struct {
	edges, matches            int
	edgeFNV, matchFNV, entFNV uint64
}

// weightedPairHash hashes n (a, b, weight) triples in order.
func weightedPairHash(n int, at func(i int) (a, b sparker.ProfileID, w float64)) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < n; i++ {
		a, b, w := at(i)
		binary.LittleEndian.PutUint32(buf[0:], uint32(a))
		binary.LittleEndian.PutUint32(buf[4:], uint32(b))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(w))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// entitySetHash identifies an entity set whatever order its entities and
// members come in.
func entitySetHash(es []sparker.Entity) uint64 {
	keys := make([][]sparker.ProfileID, len(es))
	for i, e := range es {
		keys[i] = slices.Clone(e.Profiles)
		slices.Sort(keys[i])
	}
	slices.SortFunc(keys, func(a, b []sparker.ProfileID) int { return cmp.Compare(a[0], b[0]) })
	h := fnv.New64a()
	var buf [4]byte
	for _, k := range keys {
		for _, id := range k {
			binary.LittleEndian.PutUint32(buf[:], uint32(id))
			h.Write(buf[:])
		}
		h.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}
	return h.Sum64()
}

// TestGoldenWholePass pins the whole pipeline's output, recorded at the
// commit before the matcher moved to prepared bags and meta-blocking
// stopped sorting neighbourhoods it only takes a maximum of: same edges
// and weights bit for bit, same matches, same entities, sequentially
// and on the dataflow engine. WEP and WNP exercise the order-dependent
// float sums; the dirty collection exercises the side-less
// neighbourhood.
func TestGoldenWholePass(t *testing.T) {
	abt := datagen.AbtBuy()
	abt.Seed = 1
	wnp := sparker.DefaultConfig()
	wnp.Pruning = metablocking.WNP
	rcnp := sparker.DefaultConfig()
	rcnp.Scheme = metablocking.JS
	rcnp.Pruning = metablocking.ReciprocalCNP
	cosine := sparker.DefaultConfig()
	cosine.Measure = sparker.MeasureCosineTFIDF
	clean := datagen.Generate(abt).Collection
	dirty := datagen.GenerateDirty(400, 1).Collection
	cases := []struct {
		name string
		c    *sparker.Collection
		cfg  sparker.Config
		want goldenPass
	}{
		{"abtbuy/default", clean, sparker.DefaultConfig(), goldenPass{20693, 850, 0x373876b3072c23ef, 0xdeb3a0c8afab03b4, 0x2a7e7dd1d4ddfccc}},
		{"abtbuy/schema-agnostic", clean, sparker.SchemaAgnosticConfig(), goldenPass{79368, 850, 0xb81f93f1049b9c1a, 0xdeb3a0c8afab03b4, 0x2a7e7dd1d4ddfccc}},
		{"abtbuy/wnp", clean, wnp, goldenPass{80318, 850, 0xd483dc0efdb5c09d, 0xdeb3a0c8afab03b4, 0x2a7e7dd1d4ddfccc}},
		{"abtbuy/reciprocal-cnp", clean, rcnp, goldenPass{11417, 850, 0xc81fadc70602cb71, 0xdeb3a0c8afab03b4, 0x2a7e7dd1d4ddfccc}},
		{"abtbuy/cosine", clean, cosine, goldenPass{20693, 1053, 0x373876b3072c23ef, 0xccea5e65eed11c3, 0x476becedcad7331e}},
		{"dirty/default", dirty, sparker.DefaultConfig(), goldenPass{11788, 440, 0x7069a137c9ecb0db, 0x59419c6907caeb0d, 0x8120266f4c4a1941}},
		{"dirty/schema-agnostic", dirty, sparker.SchemaAgnosticConfig(), goldenPass{32104, 441, 0x835a556c8b0096a, 0x9b78294dffefb4dc, 0x84925746b4348b38}},
		{"dirty/wnp", dirty, wnp, goldenPass{31935, 441, 0x4e022169a71f5a54, 0x9b78294dffefb4dc, 0x84925746b4348b38}},
		{"dirty/reciprocal-cnp", dirty, rcnp, goldenPass{4200, 441, 0xf28491f0a50fb335, 0x9b78294dffefb4dc, 0x84925746b4348b38}},
	}
	ctx := dataflow.NewContext(dataflow.WithParallelism(3))
	defer ctx.Close()
	for _, tc := range cases {
		for _, dctx := range []*dataflow.Context{nil, ctx} {
			res, err := sparker.NewPipeline(tc.cfg, dctx).Resolve(tc.c)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			edges, matches := res.Blocker.Edges, res.Matches
			got := goldenPass{
				edges:   len(edges),
				matches: len(matches),
				edgeFNV: weightedPairHash(len(edges), func(i int) (a, b sparker.ProfileID, w float64) {
					return edges[i].A, edges[i].B, edges[i].Weight
				}),
				matchFNV: weightedPairHash(len(matches), func(i int) (a, b sparker.ProfileID, w float64) {
					return matches[i].A, matches[i].B, matches[i].Score
				}),
				entFNV: entitySetHash(res.Entities),
			}
			if got != tc.want {
				t.Errorf("%s (dataflow=%v): got {%d, %d, %#x, %#x, %#x}, recorded %+v",
					tc.name, dctx != nil, got.edges, got.matches, got.edgeFNV, got.matchFNV, got.entFNV, tc.want)
			}
		}
	}
}
