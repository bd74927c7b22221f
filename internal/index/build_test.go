package index

import (
	"fmt"
	"math"
	"testing"

	"sparker/internal/core"
	"sparker/internal/datagen"
	"sparker/internal/profile"
)

// writePathBuild is the reference NewFromCollection is pinned to: an
// empty index and one putLocked per profile, in ID order — how the
// constructor built before it went column-wise.
func writePathBuild(c *profile.Collection, cfg Config) *Index {
	x := New(c.IsClean(), cfg)
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	for i := range c.Profiles {
		p := c.Profiles[i]
		x.putLocked(p)
		if p.ID >= x.nextID {
			x.nextID = p.ID + 1
		}
	}
	return x
}

// buildWrites are mixed overwrites and inserts over c: every seventh
// profile is overwritten with its own values plus a token no profile
// has, and new profiles reuse existing values plus new tokens — so
// carved posting runs must grow, and new postings appear.
func buildWrites(c *profile.Collection) []profile.Profile {
	var out []profile.Profile
	for i := 0; i < c.Size(); i += 7 {
		p := c.Profiles[i]
		p.Attributes = append([]profile.KeyValue(nil), p.Attributes...)
		p.Add("extra", fmt.Sprintf("fresh%d shared%d", i, i%5))
		out = append(out, p)

		q := profile.Profile{OriginalID: fmt.Sprintf("new-%d", i), SourceID: p.SourceID ^ 1}
		if !c.IsClean() {
			q.SourceID = 0
		}
		q.Attributes = append([]profile.KeyValue(nil), c.Profiles[(i*31)%c.Size()].Attributes...)
		q.Add("extra", fmt.Sprintf("novel%d shared%d", i%11, i%5))
		out = append(out, q)
	}
	return out
}

// TestNewFromCollectionMatchesWritePath: the column-wise bulk build is
// the write path's index. On the generated families, under the default
// config, Dice and one shard, the two are in one state (indexState);
// after the same overwrites and inserts through Upsert they still are,
// and they resolve a sample of profiles alike.
func TestNewFromCollectionMatchesWritePath(t *testing.T) {
	bib := datagen.BibDefault()
	bib.CorePapers, bib.AOnly, bib.BOnly = 300, 30, 30
	collections := map[string]*profile.Collection{
		"abtbuy-x2":     datagen.Generate(datagen.AbtBuy().Scaled(2)).Collection,
		"bibliographic": datagen.GenerateBibliographic(bib).Collection,
		"dirty":         datagen.GenerateDirty(600, 3).Collection,
	}
	custom := DefaultConfig()
	custom.Measure = core.MeasureDice
	oneShard := DefaultConfig()
	oneShard.Shards = 1
	configs := map[string]Config{"default": DefaultConfig(), "custom measure": custom, "one shard": oneShard}

	for cname, c := range collections {
		writes := buildWrites(c)
		for name, cfg := range configs {
			label := cname + "/" + name
			want := writePathBuild(c, cfg)
			got, err := NewFromCollection(c, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Size() != c.Size() || got.numBlocks.Load() != want.numBlocks.Load() {
				t.Fatalf("%s: %d profiles / %d postings, write path %d / %d",
					label, got.Size(), got.numBlocks.Load(), want.Size(), want.numBlocks.Load())
			}
			sameState(t, label+": built", want, got)

			upsertAll(t, want, writes)
			upsertAll(t, got, writes)
			sameState(t, fmt.Sprintf("%s: after %d upserts", label, len(writes)), want, got)
			for i := 0; i < c.Size(); i += 53 {
				sameAnswers(t, label, want, got, &c.Profiles[i])
			}
			for i := 0; i < len(writes); i += 17 {
				sameAnswers(t, label, want, got, &writes[i])
			}
		}
	}
}

// TestNewFromCollectionRejects: a collection that fails Validate or holds
// one identity twice builds no index, with the errors the write path
// gave.
func TestNewFromCollectionRejects(t *testing.T) {
	dup := profile.NewDirty([]profile.Profile{mkProfile("a", "name", "x"), mkProfile("a", "name", "y")})
	if _, err := NewFromCollection(dup, DefaultConfig()); err == nil || err.Error() != "index: duplicate profile 0:a" {
		t.Fatalf("duplicate identity: %v", err)
	}
	sparse := profile.NewDirty([]profile.Profile{mkProfile("a", "name", "x")})
	sparse.Profiles[0].ID = 3
	if _, err := NewFromCollection(sparse, DefaultConfig()); err == nil {
		t.Fatal("a collection with a non-dense ID was accepted")
	}
	empty, err := NewFromCollection(profile.NewDirty(nil), DefaultConfig())
	if err != nil || empty.Size() != 0 || empty.numBlocks.Load() != 0 {
		t.Fatalf("empty collection: %v", err)
	}
	sameState(t, "empty collection", New(false, DefaultConfig()), empty)
}

// sameAnswers pins two indexes to bitwise-identical resolutions of q:
// candidates (ID, shared keys, weight bits), postings scanned, pruned
// count, and matches (ID, score bits).
func sameAnswers(t *testing.T, what string, want, got *Index, q *profile.Profile) {
	t.Helper()
	w, g := want.Resolve(q), got.Resolve(q)
	if err := sameCandidates(g.Query.Candidates, w.Query.Candidates); err != nil {
		t.Fatalf("%s: query %s: %v", what, q.OriginalID, err)
	}
	if g.Query.PostingsScanned != w.Query.PostingsScanned || g.Query.Pruned != w.Query.Pruned {
		t.Fatalf("%s: query %s: %d postings scanned / %d pruned, want %d / %d", what, q.OriginalID,
			g.Query.PostingsScanned, g.Query.Pruned, w.Query.PostingsScanned, w.Query.Pruned)
	}
	if len(g.Matches) != len(w.Matches) || g.Comparisons != w.Comparisons {
		t.Fatalf("%s: query %s: %d matches / %d comparisons, want %d / %d",
			what, q.OriginalID, len(g.Matches), g.Comparisons, len(w.Matches), w.Comparisons)
	}
	for i := range w.Matches {
		if g.Matches[i].B != w.Matches[i].B || math.Float64bits(g.Matches[i].Score) != math.Float64bits(w.Matches[i].Score) {
			t.Fatalf("%s: query %s match %d: %+v, want %+v", what, q.OriginalID, i, g.Matches[i], w.Matches[i])
		}
	}
}
