package index

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"sparker/internal/matching"
	"sparker/internal/metablocking"
)

// This file proves a restored snapshot is an exact stand-in for the live
// index: after save → load, Query candidate sets (IDs, shared-key counts
// and weight bits) and Resolve matches (IDs and score bits) must be
// identical for every weight scheme × pruning rule × clean/dirty task —
// the same grid the flat-kernel equivalence harness pins against the map
// reference.

func TestPersistedQueryEquivalence(t *testing.T) {
	for _, clean := range []bool{false, true} {
		sources := 1
		if clean {
			sources = 2
		}
		for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS} {
			for _, rule := range []PruneRule{PruneTopK, PruneMean, PruneNone} {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.Prune = rule
				cfg.MatchThreshold = -1 // keep every scored candidate
				label := fmt.Sprintf("clean=%v %v/%v", clean, scheme, rule)

				x := New(clean, cfg)
				for _, p := range synthQueryProfiles(60, sources, 5) {
					if _, _, err := x.Upsert(p); err != nil {
						t.Fatal(err)
					}
				}
				y := saveLoad(t, x, cfg)

				for _, p := range synthQueryProfiles(60, sources, 5) {
					p := p
					want := x.Query(&p).Candidates
					got := y.Query(&p).Candidates
					if len(want) != len(got) {
						t.Fatalf("%s query %s: %d candidates, live index %d",
							label, p.OriginalID, len(got), len(want))
					}
					for i := range want {
						if want[i].ID != got[i].ID || want[i].SharedKeys != got[i].SharedKeys ||
							math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
							t.Fatalf("%s query %s candidate %d: %+v vs live %+v",
								label, p.OriginalID, i, got[i], want[i])
						}
					}

					wr := x.Resolve(&p)
					gr := y.Resolve(&p)
					if wr.Comparisons != gr.Comparisons || len(wr.Matches) != len(gr.Matches) {
						t.Fatalf("%s resolve %s: loaded %d matches/%d comparisons, live %d/%d",
							label, p.OriginalID, len(gr.Matches), gr.Comparisons,
							len(wr.Matches), wr.Comparisons)
					}
					for i := range wr.Matches {
						if wr.Matches[i].B != gr.Matches[i].B ||
							math.Float64bits(wr.Matches[i].Score) != math.Float64bits(gr.Matches[i].Score) {
							t.Fatalf("%s resolve %s match %d: %+v vs live %+v",
								label, p.OriginalID, i, gr.Matches[i], wr.Matches[i])
						}
					}
				}
			}
		}
	}
}

// TestPersistedEquivalenceAfterChurn replays upsert churn (replacements
// that tombstone postings and inserts that extend the ID space) before
// the save, so the snapshot captures posting lists in their live,
// churned order — and queries still agree bit for bit.
func TestPersistedEquivalenceAfterChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prune = PruneNone
	cfg.MatchThreshold = -1
	x := New(false, cfg)
	batch := synthQueryProfiles(80, 1, 9)
	for _, p := range batch {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	// Replace every third profile with shuffled token content, twice.
	for round := 0; round < 2; round++ {
		alt := synthQueryProfiles(80, 1, uint64(21+round))
		for i := 0; i < len(batch); i += 3 {
			p := alt[i]
			p.OriginalID = batch[i].OriginalID
			if _, created, err := x.Upsert(p); err != nil || created {
				t.Fatalf("churn replace %d: created=%v err=%v", i, created, err)
			}
		}
	}
	y := saveLoad(t, x, cfg)
	for _, p := range synthQueryProfiles(80, 1, 9) {
		p := p
		want := x.Query(&p).Candidates
		got := y.Query(&p).Candidates
		if len(want) != len(got) {
			t.Fatalf("query %s: %d candidates, live %d", p.OriginalID, len(got), len(want))
		}
		for i := range want {
			if want[i].ID != got[i].ID ||
				math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
				t.Fatalf("query %s candidate %d: %+v vs live %+v", p.OriginalID, i, got[i], want[i])
			}
		}
	}
}

// TestPersistedCustomMeasure round-trips an index configured with a
// custom (non-default) measure: no bags are serialized, and the loaded
// index scores through the same measure implementation.
func TestPersistedCustomMeasure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Measure = matching.DiceMeasure(cfg.Tokenizer)
	cfg.MatchThreshold = -1
	x := New(false, cfg)
	for _, p := range synthQueryProfiles(40, 1, 17) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	y := saveLoad(t, x, cfg)
	for _, p := range synthQueryProfiles(40, 1, 17) {
		p := p
		wr, gr := x.Resolve(&p), y.Resolve(&p)
		if len(wr.Matches) != len(gr.Matches) {
			t.Fatalf("resolve %s: %d matches, live %d", p.OriginalID, len(gr.Matches), len(wr.Matches))
		}
		for i := range wr.Matches {
			if wr.Matches[i].B != gr.Matches[i].B ||
				math.Float64bits(wr.Matches[i].Score) != math.Float64bits(gr.Matches[i].Score) {
				t.Fatalf("resolve %s match %d diverged", p.OriginalID, i)
			}
		}
	}
}

// TestPersistedBagFallback saves under a custom measure (no bags in the
// file) and loads under the default config: the loaded index must
// recompute the cached bags and agree with a directly built default
// index bit for bit.
func TestPersistedBagFallback(t *testing.T) {
	saveCfg := DefaultConfig()
	saveCfg.Measure = matching.DiceMeasure(saveCfg.Tokenizer)
	saveCfg.MatchThreshold = -1
	x := New(false, saveCfg)
	defCfg := DefaultConfig()
	defCfg.MatchThreshold = -1
	ref := New(false, defCfg)
	for _, p := range synthQueryProfiles(40, 1, 19) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ref.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "bagless.snap")
	if _, err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	y, err := Load(path, defCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range synthQueryProfiles(40, 1, 19) {
		p := p
		wr, gr := ref.Resolve(&p), y.Resolve(&p)
		if len(wr.Matches) != len(gr.Matches) {
			t.Fatalf("resolve %s: %d matches, reference %d", p.OriginalID, len(gr.Matches), len(wr.Matches))
		}
		for i := range wr.Matches {
			if wr.Matches[i].B != gr.Matches[i].B ||
				math.Float64bits(wr.Matches[i].Score) != math.Float64bits(gr.Matches[i].Score) {
				t.Fatalf("resolve %s match %d diverged from recomputed-bag reference", p.OriginalID, i)
			}
		}
	}
}
