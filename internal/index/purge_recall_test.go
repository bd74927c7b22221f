package index

// Token-blind queries: a query whose every blocking key hits a posting
// over the purge bound (MaxBlockFraction) reaches no candidate at all.
// An LSH fallback probe once rescued them; it added no recall on any
// generated set at the default bound and was deleted. These tests pin
// what is left: the purge bound alone makes a query token-blind, and
// the same bound, relaxed, brings its matches back.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sparker/internal/datagen"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

var (
	recallOnce sync.Once
	recallCol  *profile.Collection
)

// recallCollection memoises the ~10k-profile datagen collection the
// serving benchmarks use.
func recallCollection(t testing.TB) *profile.Collection {
	t.Helper()
	recallOnce.Do(func() {
		cfg := datagen.AbtBuy()
		cfg.CoreEntities = 4500
		cfg.AOnly = 400
		cfg.BDup = 400
		recallCol = datagen.Generate(cfg).Collection
	})
	return recallCol
}

// TestFallbackRecallOnDatagen runs the token-blind scenario on the 10k
// datagen collection: queries built from only the too-common tokens of an
// indexed profile (every one of their postings is over a 2 % purge bound)
// get no candidate and no truncation — an empty answer, not a cut one —
// and every such query finds its profile again under the default bound.
// Fully deterministic: fixed generator seed, fixed bounds.
func TestFallbackRecallOnDatagen(t *testing.T) {
	if testing.Short() {
		t.Skip("10k collection build")
	}
	c := recallCollection(t)

	cfg := DefaultConfig()
	cfg.Prune = PruneNone // membership, not rank, is the question
	strict := cfg
	strict.MaxBlockFraction = 0.02 // purge postings above ~2% of the collection
	x, err := NewFromCollection(c, strict)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := NewFromCollection(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxSize := int(strict.MaxBlockFraction * float64(c.Size()))

	// Document frequency of every distinct token, to find each profile's
	// "too common" subset without peeking at index internals.
	df := make(map[string]int)
	for i := range c.Profiles {
		seen := make(map[string]bool)
		for _, kv := range c.Profiles[i].Attributes {
			for _, tok := range cfg.Tokenizer.Tokens(kv.Value) {
				if !seen[tok] {
					seen[tok] = true
					df[tok]++
				}
			}
		}
	}

	recovered, blind := 0, 0
	for i := range c.Profiles {
		p := &c.Profiles[i]
		var common []string
		seen := make(map[string]bool)
		for _, kv := range p.Attributes {
			for _, tok := range cfg.Tokenizer.Tokens(kv.Value) {
				if !seen[tok] && df[tok] > maxSize {
					common = append(common, tok)
				}
				seen[tok] = true
			}
		}
		if len(common) < 4 {
			continue
		}
		// Clean-clean semantics: candidates come from the opposite
		// source, so the query poses as the other side's record.
		q := profile.Profile{OriginalID: "recall-probe", SourceID: 1 - p.SourceID}
		q.Add("blob", strings.Join(common, " "))

		r := x.Resolve(&q)
		if len(r.Query.Candidates) != 0 {
			continue // a posting survived purging after all
		}
		if r.Query.BlocksPurged == 0 || r.Query.Truncated || r.Comparisons != 0 {
			t.Fatalf("token-blind query for %s: purged %d, truncated %v, %d comparisons",
				p.OriginalID, r.Query.BlocksPurged, r.Query.Truncated, r.Comparisons)
		}
		blind++
		for _, cand := range relaxed.Query(&q).Candidates {
			if cand.ID == p.ID {
				recovered++
				break
			}
		}
		if blind >= 50 {
			break // enough classes sampled
		}
	}
	if blind == 0 {
		t.Fatal("no token-blind query class found in the 10k collection; scenario needs retuning")
	}
	if recovered != blind {
		t.Fatalf("the default purge bound recovered %d of %d token-blind query classes", recovered, blind)
	}
}

// TestFallbackRecallTokenizerConsistency guards the DF computation above
// against tokenizer drift: Tokens and the index's key derivation must
// agree on the default config.
func TestFallbackRecallTokenizerConsistency(t *testing.T) {
	p := profile.Profile{OriginalID: "x"}
	p.Add("name", "Acme TurboBlend 5000, with the turbo mode!")
	cfg := DefaultConfig()
	toks := cfg.Tokenizer.Tokens("Acme TurboBlend 5000, with the turbo mode!")
	if len(toks) == 0 {
		t.Fatal("tokenizer returned nothing")
	}
	var viaScratch []string
	var sc tokenize.Scratch
	viaScratch = cfg.Tokenizer.AppendTokens(viaScratch, "Acme TurboBlend 5000, with the turbo mode!", &sc)
	if len(viaScratch) != len(toks) {
		t.Fatalf("AppendTokens %v != Tokens %v", viaScratch, toks)
	}
	for i := range toks {
		if toks[i] != viaScratch[i] {
			t.Fatalf("token %d: %q vs %q", i, viaScratch[i], toks[i])
		}
	}
}

// commonTokenProfiles builds a collection in token blocking's blind spot:
// filler profiles draw half their tokens from a tiny common vocabulary
// (so every common token's posting holds far more than a 0.2 purge bound
// of the index), and a target/query twin pair shares only those common
// tokens.
func commonTokenProfiles(fillers int) ([]profile.Profile, profile.Profile, profile.Profile) {
	common := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	next := uint64(97)
	rnd := func(mod int) int {
		next = next*6364136223846793005 + 1442695040888963407
		return int((next >> 33) % uint64(mod))
	}
	var ps []profile.Profile
	for i := 0; i < fillers; i++ {
		p := profile.Profile{OriginalID: fmt.Sprintf("f%d", i)}
		toks := make([]string, 0, 5)
		start := rnd(len(common))
		for j := 0; j < 4; j++ { // half the common vocabulary each
			toks = append(toks, common[(start+j*2)%len(common)])
		}
		toks = append(toks, fmt.Sprintf("unique%d", i))
		p.Add("name", strings.Join(toks, " "))
		ps = append(ps, p)
	}
	target := profile.Profile{OriginalID: "target"}
	target.Add("name", strings.Join(common[:6], " ")+" targetonly")
	query := profile.Profile{OriginalID: "query"}
	query.Add("name", strings.Join(common[:6], " "))
	return ps, target, query
}

// TestFallbackRecoversPurgedTokenMatches is the same scenario in
// miniature: a query sharing only purged-common tokens with its match
// gets nothing under a 0.2 bound, and the match — candidate and scored —
// once every posting is admitted.
func TestFallbackRecoversPurgedTokenMatches(t *testing.T) {
	fillers, target, query := commonTokenProfiles(120)
	for _, maxBlock := range []float64{0.2, 1} {
		cfg := DefaultConfig()
		cfg.MaxBlockFraction = maxBlock
		x := New(false, cfg)
		upsertAll(t, x, append(fillers, target))
		targetID, ok := x.lookupOrig("0|target")
		if !ok {
			t.Fatal("target not indexed")
		}
		r := x.Resolve(&query)
		if maxBlock < 1 {
			if len(r.Query.Candidates) != 0 || r.Query.BlocksPurged == 0 || len(r.Matches) != 0 {
				t.Fatalf("bound %v: %d candidates, %d purged, %d matches; the scenario should purge every posting",
					maxBlock, len(r.Query.Candidates), r.Query.BlocksPurged, len(r.Matches))
			}
			continue
		}
		if len(r.Query.Candidates) == 0 || r.Query.Candidates[0].ID != targetID {
			t.Fatalf("bound %v: target is not the top candidate: %+v", maxBlock, r.Query.Candidates)
		}
		if len(r.Matches) == 0 || r.Matches[0].B != targetID {
			t.Fatalf("bound %v: Resolve did not match the target (matches %v)", maxBlock, r.Matches)
		}
	}
}
