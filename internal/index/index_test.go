package index

import (
	"fmt"
	"strings"
	"testing"

	"sparker/internal/blocking"
	"sparker/internal/datagen"
	"sparker/internal/evaluation"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

// mkProfile builds a test profile from key/value pairs.
func mkProfile(id string, kvs ...string) profile.Profile {
	p := profile.Profile{OriginalID: id}
	for i := 0; i+1 < len(kvs); i += 2 {
		p.Add(kvs[i], kvs[i+1])
	}
	return p
}

// testCollection is a tiny clean-clean catalog with one obvious match per
// source-A profile.
func testCollection() *profile.Collection {
	a := []profile.Profile{
		mkProfile("a1", "name", "acme turboblend blender", "price", "89.99"),
		mkProfile("a2", "name", "zenix soundwave speaker", "price", "49.99"),
		mkProfile("a3", "name", "quietcool desk fan", "price", "29.99"),
	}
	b := []profile.Profile{
		mkProfile("b1", "title", "turboblend blender by acme"),
		mkProfile("b2", "title", "zenix soundwave portable speaker"),
		mkProfile("b3", "title", "luxor desk lamp"),
	}
	return profile.NewCleanClean(a, b)
}

func TestQueryFindsDuplicate(t *testing.T) {
	c := testCollection()
	x, err := NewFromCollection(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := c.Get(0) // a1: acme turboblend blender
	res := x.Query(q)
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if res.Candidates[0].ID != 3 { // b1
		t.Fatalf("top candidate = %d, want 3 (b1)", res.Candidates[0].ID)
	}
	if res.PostingsScanned >= c.Size()*res.Keys {
		t.Fatalf("postings scanned %d not bounded by candidate blocks", res.PostingsScanned)
	}
	// Clean-clean: candidates must come from the opposite source only.
	for _, cand := range res.Candidates {
		if cand.ID < 3 {
			t.Fatalf("candidate %d from the query's own source", cand.ID)
		}
	}
}

func TestQueryMatchesBatchBlocking(t *testing.T) {
	// With purging, filtering and pruning disabled, the index's candidate
	// set for a profile must equal the batch token-blocking candidate set.
	c := testCollection()
	cfg := DefaultConfig()
	cfg.PurgeFactor = 1
	cfg.FilterRatio = 1
	cfg.MetaBlocking = false
	x, err := NewFromCollection(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := blocking.TokenBlocking(c, blocking.Options{}).DistinctPairs()
	for id := profile.ID(0); int(id) < c.Size(); id++ {
		want := map[profile.ID]bool{}
		for _, pr := range batch {
			if pr.A == id {
				want[pr.B] = true
			}
			if pr.B == id {
				want[pr.A] = true
			}
		}
		got := map[profile.ID]bool{}
		for _, cand := range x.Query(c.Get(id)).Candidates {
			got[cand.ID] = true
		}
		if len(got) != len(want) {
			t.Fatalf("profile %d: got %v candidates, batch blocking has %v", id, got, want)
		}
		for w := range want {
			if !got[w] {
				t.Fatalf("profile %d: candidate %d missing from index query", id, w)
			}
		}
	}
}

func TestUpsertInsertAndReplace(t *testing.T) {
	x := New(true, DefaultConfig())
	id1, created, err := x.Upsert(mkProfile("a1", "name", "acme blender"))
	if err != nil || !created {
		t.Fatalf("insert: id=%d created=%v err=%v", id1, created, err)
	}
	p2 := mkProfile("b1", "title", "acme blender deluxe")
	p2.SourceID = 1
	id2, created, err := x.Upsert(p2)
	if err != nil || !created {
		t.Fatalf("insert b: %v", err)
	}
	q := mkProfile("probe", "name", "acme blender")
	res := x.Query(&q)
	if len(res.Candidates) != 1 || res.Candidates[0].ID != id2 {
		t.Fatalf("candidates = %+v, want just %d", res.Candidates, id2)
	}

	// Replace b1 so it no longer shares tokens with the probe.
	p2r := mkProfile("b1", "title", "luxor lamp")
	p2r.SourceID = 1
	id2r, created, err := x.Upsert(p2r)
	if err != nil || created || id2r != id2 {
		t.Fatalf("replace: id=%d created=%v err=%v", id2r, created, err)
	}
	if res := x.Query(&q); len(res.Candidates) != 0 {
		t.Fatalf("stale candidates after replace: %+v", res.Candidates)
	}
	// The new tokens are queryable.
	q2 := mkProfile("probe2", "name", "luxor lamp")
	if res := x.Query(&q2); len(res.Candidates) != 1 || res.Candidates[0].ID != id2 {
		t.Fatalf("replacement not indexed: %+v", res.Candidates)
	}
	if x.Size() != 2 {
		t.Fatalf("size = %d, want 2", x.Size())
	}
}

func TestUpsertRejectsBadSource(t *testing.T) {
	x := New(true, DefaultConfig())
	p := mkProfile("z", "name", "thing")
	p.SourceID = 2
	if _, _, err := x.Upsert(p); err == nil {
		t.Fatal("expected error for SourceID 2 on clean-clean index")
	}
}

func TestDirtyQueryExcludesSelf(t *testing.T) {
	ps := []profile.Profile{
		mkProfile("d1", "name", "acme blender"),
		mkProfile("d2", "name", "acme blender deluxe"),
		mkProfile("d3", "name", "zenix speaker"),
	}
	c := profile.NewDirty(ps)
	x, err := NewFromCollection(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := x.Query(c.Get(0))
	for _, cand := range res.Candidates {
		if cand.ID == 0 {
			t.Fatal("query returned the profile itself")
		}
	}
	if len(res.Candidates) != 1 || res.Candidates[0].ID != 1 {
		t.Fatalf("candidates = %+v, want just d2", res.Candidates)
	}

	// A query profile carrying a stray SourceID must be normalized the
	// way Upsert normalizes, or self-exclusion breaks.
	stray := *c.Get(0)
	stray.SourceID = 1
	for _, cand := range x.Query(&stray).Candidates {
		if cand.ID == 0 {
			t.Fatal("stray SourceID broke self-exclusion")
		}
	}
}

func TestOversizedPostingsPurged(t *testing.T) {
	// "widget" appears in every profile: with the default 0.5 fraction its
	// posting must be skipped, like batch block purging would.
	var ps []profile.Profile
	for i := 0; i < 10; i++ {
		ps = append(ps, mkProfile(
			strings.Repeat("x", i+1), // distinct IDs
			"name", "widget item"+strings.Repeat("z", i)))
	}
	c := profile.NewDirty(ps)
	x, err := NewFromCollection(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := mkProfile("probe", "name", "widget")
	res := x.Query(&q)
	if res.BlocksPurged != 1 {
		t.Fatalf("blocks purged = %d, want 1", res.BlocksPurged)
	}
	if len(res.Candidates) != 0 {
		t.Fatalf("stop-token query returned %d candidates", len(res.Candidates))
	}
}

func TestFilterSkipsLeastDistinctivePostings(t *testing.T) {
	// The query hits four singleton postings and one posting shared by
	// every profile; FilterRatio 0.8 must drop the big one, so the noise
	// profiles never become candidates.
	cfg := DefaultConfig()
	cfg.PurgeFactor = 1 // isolate filtering from purging
	cfg.MetaBlocking = false
	x := New(false, cfg)
	if _, _, err := x.Upsert(mkProfile("target", "name", "alpha beta gamma delta common")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, _, err := x.Upsert(mkProfile(fmt.Sprintf("noise%d", i), "name", fmt.Sprintf("common pad%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	q := mkProfile("probe", "name", "alpha beta gamma delta common")
	res := x.Query(&q)
	if res.BlocksFiltered != 1 {
		t.Fatalf("blocks filtered = %d, want 1", res.BlocksFiltered)
	}
	if len(res.Candidates) != 1 || res.Candidates[0].SharedKeys != 4 {
		t.Fatalf("candidates = %+v, want just the target via 4 keys", res.Candidates)
	}
}

func TestPruneTopK(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pruning = metablocking.CNP
	cfg.TopK = 2
	cfg.PurgeFactor = 1 // keep the shared "alpha" posting probeable
	x := New(false, cfg)
	for _, name := range []string{"alpha beta", "alpha beta gamma", "alpha", "alpha beta gamma delta"} {
		if _, _, err := x.Upsert(mkProfile(name, "name", name)); err != nil {
			t.Fatal(err)
		}
	}
	q := mkProfile("probe", "name", "alpha beta gamma delta epsilon")
	res := x.Query(&q)
	if len(res.Candidates) != 2 {
		t.Fatalf("top-k kept %d, want 2", len(res.Candidates))
	}
	if res.Candidates[0].Weight < res.Candidates[1].Weight {
		t.Fatal("candidates not ranked by weight")
	}
	if res.Pruned != 2 {
		t.Fatalf("pruned = %d, want 2", res.Pruned)
	}
}

func TestPruneMean(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pruning = metablocking.WNP
	cfg.PurgeFactor = 1
	x := New(false, cfg)
	for _, name := range []string{"alpha beta gamma delta", "alpha", "beta"} {
		if _, _, err := x.Upsert(mkProfile(name, "name", name)); err != nil {
			t.Fatal(err)
		}
	}
	// Weights: first profile shares 4 keys, the others 1 each; the mean
	// (2) keeps only the heavy neighbour, like WNP would.
	q := mkProfile("probe", "name", "alpha beta gamma delta")
	res := x.Query(&q)
	if len(res.Candidates) != 1 || res.Candidates[0].SharedKeys != 4 {
		t.Fatalf("mean pruning kept %+v", res.Candidates)
	}
	if res.Pruned != 2 {
		t.Fatalf("pruned = %d, want 2", res.Pruned)
	}
}

func TestWeightSchemes(t *testing.T) {
	for _, scheme := range []metablocking.Scheme{
		metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS,
	} {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		cfg.MetaBlocking = false
		c := testCollection()
		x, err := NewFromCollection(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := x.Query(c.Get(1)) // a2: zenix soundwave speaker
		if len(res.Candidates) == 0 {
			t.Fatalf("%v: no candidates", scheme)
		}
		if res.Candidates[0].ID != 4 { // b2
			t.Fatalf("%v: top candidate = %d, want 4", scheme, res.Candidates[0].ID)
		}
		if res.Candidates[0].Weight <= 0 {
			t.Fatalf("%v: non-positive weight", scheme)
		}
	}
}

func TestECBSWeightsSurviveNovelTokens(t *testing.T) {
	// The query carries many tokens with no posting; only the live ones
	// may count as its block set, otherwise LogRatio(numBlocks, keys)
	// clamps to zero and every ECBS weight collapses.
	cfg := DefaultConfig()
	cfg.Scheme = metablocking.ECBS
	cfg.MetaBlocking = false
	x := New(false, cfg)
	for _, name := range []string{"alpha beta", "alpha", "gamma delta"} {
		if _, _, err := x.Upsert(mkProfile(name, "name", name)); err != nil {
			t.Fatal(err)
		}
	}
	q := mkProfile("probe", "name",
		"alpha beta nova1 nova2 nova3 nova4 nova5 nova6 nova7 nova8")
	res := x.Query(&q)
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %+v, want 2", res.Candidates)
	}
	for _, c := range res.Candidates {
		if c.Weight <= 0 {
			t.Fatalf("ECBS weight collapsed to %v for candidate %d", c.Weight, c.ID)
		}
	}
}

func TestResolveAndReport(t *testing.T) {
	c := testCollection()
	x, err := NewFromCollection(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := c.Get(0)
	r := x.Resolve(q)
	if len(r.Matches) == 0 {
		t.Fatal("no matches")
	}
	if r.Matches[0].B != 3 {
		t.Fatalf("top match = %d, want 3 (b1)", r.Matches[0].B)
	}
	if r.Comparisons != len(r.Query.Candidates) {
		t.Fatalf("comparisons = %d, candidates = %d", r.Comparisons, len(r.Query.Candidates))
	}
	gt := evaluation.NewGroundTruth([]blocking.Pair{{A: 0, B: 3}})
	reports := r.Report(q.ID, gt, c.MaxComparisons())
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	if reports[1].Step != "index-matching" || reports[1].Metrics.Recall != 1 {
		t.Fatalf("matching report = %+v", reports[1])
	}
}

func TestQueryComparisonsBounded(t *testing.T) {
	// On a realistic synthetic collection, per-query matcher work must
	// stay bounded by the candidate blocks — far below the collection
	// size the batch pipeline would rescan.
	c := datagen.Generate(datagen.AbtBuy()).Collection
	x, err := NewFromCollection(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var comparisons, found int
	for i := 0; i < 100; i++ {
		r := x.Resolve(c.Get(profile.ID(i)))
		comparisons += r.Comparisons
		if len(r.Matches) > 0 {
			found++
		}
	}
	avg := float64(comparisons) / 100
	if avg > float64(c.Size())/10 {
		t.Fatalf("avg comparisons/query = %.1f, not orders below %d profiles", avg, c.Size())
	}
	if found < 50 {
		t.Fatalf("only %d/100 queries produced a match", found)
	}
}

func TestSnapshot(t *testing.T) {
	c := testCollection()
	x, err := NewFromCollection(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x.Query(c.Get(0))
	if _, _, err := x.Upsert(mkProfile("a9", "name", "brand new gadget")); err != nil {
		t.Fatal(err)
	}
	s := x.Snapshot()
	if s.Profiles != 7 {
		t.Fatalf("profiles = %d, want 7", s.Profiles)
	}
	if s.Blocks == 0 || s.Assignments == 0 || s.MaxBlockSize == 0 {
		t.Fatalf("empty block stats: %+v", s)
	}
	if s.Queries != 1 || s.Upserts != 1 {
		t.Fatalf("counters = %d/%d, want 1/1", s.Queries, s.Upserts)
	}
	if s.Shards != 16 {
		t.Fatalf("shards = %d, want 16", s.Shards)
	}
}

func TestMetaAndGet(t *testing.T) {
	c := testCollection()
	x, err := NewFromCollection(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	orig, src, ok := x.Meta(3)
	if !ok || orig != "b1" || src != 1 {
		t.Fatalf("Meta(3) = %q/%d/%v", orig, src, ok)
	}
	if _, _, ok := x.Meta(99); ok {
		t.Fatal("Meta(99) should miss")
	}
	// Get's copy must be isolated from the stored profile.
	p, ok := x.Get(0)
	if !ok {
		t.Fatal("Get(0) missed")
	}
	p.Attributes[0].Value = "mutated"
	if got, _ := x.Get(0); got.Attributes[0].Value == "mutated" {
		t.Fatal("Get returned a view into the stored profile")
	}
}

// TestMatchThresholdZeroKeepsEveryScoredCandidate: a stored 0 means 0 in
// both layers. Every candidate the index scores is a match, as the batch
// matcher keeps every pair at threshold 0; the index no longer reads 0
// as 0.3.
func TestMatchThresholdZeroKeepsEveryScoredCandidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MatchThreshold = 0
	cfg.MetaBlocking = false
	x := New(false, cfg)
	profiles := synthQueryProfiles(60, 1, 23)
	for _, p := range profiles {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	c := profile.NewDirty(profiles)
	low := 0
	for i := range profiles {
		p := profiles[i]
		r := x.Resolve(&p)
		if r.Comparisons == 0 || len(r.Matches) != r.Comparisons {
			t.Fatalf("query %s: %d matches of %d scored", p.OriginalID, len(r.Matches), r.Comparisons)
		}
		pairs := make([]blocking.Pair, len(r.Matches))
		for j, m := range r.Matches {
			pairs[j] = blocking.Pair{A: profile.ID(i), B: m.B}.Canonical()
			if m.Score < 0.3 {
				low++
			}
		}
		if batch := matching.MatchPairs(c, pairs, matching.JaccardMeasure(cfg.Tokenizer), 0); len(batch) != len(pairs) {
			t.Fatalf("query %s: the batch matcher keeps %d of %d pairs at threshold 0", p.OriginalID, len(batch), len(pairs))
		}
	}
	if low == 0 {
		t.Fatal("no match scored under 0.3: the fixture cannot tell 0 from 0.3")
	}
}
