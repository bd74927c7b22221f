package index

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"sparker/internal/core"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
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
			for _, rule := range servedRules {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				rule.apply(&cfg)
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

// TestPersistedEquivalenceAfterChurn replays upsert churn before the
// save — replacements that move profiles to the ends of their postings,
// and inserts into source A after source B's, so that a clean-clean
// restore holds interleaved sources — and then requires the restored
// index, which rebuilds its postings in ID order, to answer like the
// live one bit for bit: candidates with their weights, postings scanned,
// pruned counts and matches, for every scheme × pruning rule × task.
func TestPersistedEquivalenceAfterChurn(t *testing.T) {
	for _, clean := range []bool{false, true} {
		sources := 1
		if clean {
			sources = 2
		}
		for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS} {
			for _, rule := range servedRules {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				rule.apply(&cfg)
				cfg.MatchThreshold = -1 // keep every scored candidate
				label := fmt.Sprintf("clean=%v %v/%v", clean, scheme, rule)

				x := New(clean, cfg)
				batch := synthQueryProfiles(80, sources, 9)
				upsertAll(t, x, batch)
				// Replace every third profile with other token content, twice.
				for round := 0; round < 2; round++ {
					alt := synthQueryProfiles(80, sources, uint64(21+round))
					for i := 0; i < len(batch); i += 3 {
						p := alt[i]
						p.OriginalID = batch[i].OriginalID
						if _, created, err := x.Upsert(p); err != nil || created {
							t.Fatalf("%s: churn replace %d: created=%v err=%v", label, i, created, err)
						}
					}
				}
				// Inserts: source B first, then source A after it.
				late := synthQueryProfiles(20, 1, 33)
				for i := range late {
					late[i].OriginalID = fmt.Sprintf("late%d", i)
					if clean && i < len(late)/2 {
						late[i].SourceID = 1
					}
				}
				upsertAll(t, x, late)

				y := saveLoad(t, x, cfg)
				sameState(t, label, x, y)
				for _, ps := range [][]profile.Profile{batch, late, synthQueryProfiles(40, sources, 44)} {
					for i := range ps {
						sameAnswers(t, label, x, y, &ps[i])
					}
				}
			}
		}
	}
}

// TestPersistedCustomMeasure round-trips an index configured with Dice,
// the measure other than the default: the loaded index scores every
// candidate exactly as the live one.
func TestPersistedCustomMeasure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Measure = core.MeasureDice
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

// TestPersistedBagFallback saves under Dice and loads under the default
// Jaccard: the image holds nothing of the measure, so the loaded index
// scores from the keys the file holds and must agree with a directly
// built default index bit for bit.
func TestPersistedBagFallback(t *testing.T) {
	saveCfg := DefaultConfig()
	saveCfg.Measure = core.MeasureDice
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
				t.Fatalf("resolve %s match %d diverged from the default-built reference", p.OriginalID, i)
			}
		}
	}
}
