package index

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

// This file retains the pre-flat-kernel map-based candidate accumulator
// as a reference and proves the query hot path's dense scratch is an
// exact drop-in: candidate sets, order, and weights must be
// bitwise-identical for every scheme × prune rule × task type.

// candAcc is the historical per-candidate accumulator: refCandidates
// fills it field by field in a map, sharing no accumulation code with
// the flat kernel's PairStats.
type candAcc struct {
	cbs  int
	arcs float64
}

// weight hands the reference's statistics to metablocking.Weight, the
// one formula (pinned bitwise against the batch reference's own copy in
// internal/metablocking/reference_test.go), picking the one Sum the
// scheme reads only here.
func (x *Index) weight(a *candAcc, queryKeys, candKeys int, numBlocks float64) float64 {
	st := metablocking.PairStats{CBS: int32(a.cbs), Sum: float64(a.cbs)}
	if x.cfg.Scheme == metablocking.ARCS {
		st.Sum = a.arcs
	}
	return metablocking.Weight(x.cfg.Scheme, &st, false, queryKeys, candKeys, numBlocks, 1)
}

// refCandidates replicates Query on the historical map accumulator path.
func refCandidates(x *Index, p *profile.Profile) []Candidate {
	if !x.clean && p.SourceID != 0 {
		q := *p
		q.SourceID = 0
		p = &q
	}
	keys := x.opts.KeysOf(p)

	selfID := profile.ID(-1)
	if id, ok := x.lookupOrig(origKey(p)); ok {
		selfID = id
	}
	maxSize := int(x.cfg.MaxBlockFraction * float64(x.numProfiles.Load()))
	if maxSize < 2 {
		maxSize = 2
	}

	type probe struct {
		key  string
		sh   *shard
		size int
	}
	probes := make([]probe, 0, len(keys))
	for _, kt := range keys {
		s := x.shardFor(kt.Key)
		s.mu.RLock()
		pl := s.postings[kt.Key]
		sz := 0
		if pl != nil {
			sz = pl.size()
		}
		s.mu.RUnlock()
		if pl == nil || sz > maxSize {
			continue
		}
		probes = append(probes, probe{key: kt.Key, sh: s, size: sz})
	}
	liveKeys := len(probes)
	if x.cfg.FilterRatio < 1 && len(probes) > 0 {
		sort.SliceStable(probes, func(i, j int) bool {
			if probes[i].size != probes[j].size {
				return probes[i].size < probes[j].size
			}
			return probes[i].key < probes[j].key
		})
		keep := int(math.Ceil(x.cfg.FilterRatio * float64(len(probes))))
		if keep < 1 {
			keep = 1
		}
		probes = probes[:keep]
	}

	acc := make(map[profile.ID]candAcc)
	for _, pr := range probes {
		s := pr.sh
		s.mu.RLock()
		pl := s.postings[pr.key]
		if pl == nil {
			s.mu.RUnlock()
			continue
		}
		card := pl.comparisons(x.clean)
		visit := func(ids []profile.ID) {
			for _, id := range ids {
				if id == selfID {
					continue
				}
				a := acc[id]
				a.cbs++
				a.arcs += 1 / card
				acc[id] = a
			}
		}
		if x.clean {
			if p.SourceID == 1 {
				visit(pl.a)
			} else {
				visit(pl.b)
			}
		} else {
			visit(pl.a)
		}
		s.mu.RUnlock()
	}

	numBlocks := float64(x.numBlocks.Load())
	needsCandKeys := false
	switch x.cfg.Scheme {
	case metablocking.ECBS, metablocking.JS, metablocking.EJS:
		needsCandKeys = true
	}
	out := make([]Candidate, 0, len(acc))
	for id, a := range acc {
		a := a
		candKeys := 0
		if needsCandKeys {
			if sp := x.byID[id]; sp != nil {
				candKeys = len(sp.keys)
			}
		}
		out = append(out, Candidate{ID: id, Weight: x.weight(&a, liveKeys, candKeys, numBlocks), SharedKeys: a.cbs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].ID < out[j].ID
	})
	res := &QueryResult{Candidates: out}
	x.prune(res)
	return res.Candidates
}

// synthQueryProfiles builds overlapping-token profiles across sources.
func synthQueryProfiles(n, sources int, seed uint64) []profile.Profile {
	next := seed*2654435761 + 1
	rnd := func(mod int) int {
		next = next*6364136223846793005 + 1442695040888963407
		return int((next >> 33) % uint64(mod))
	}
	out := make([]profile.Profile, 0, n)
	for i := 0; i < n; i++ {
		p := profile.Profile{OriginalID: fmt.Sprintf("p%d", i), SourceID: i % sources}
		name := fmt.Sprintf("tok%d tok%d shared%d", rnd(12), rnd(12), rnd(4))
		p.Add("name", name)
		p.Add("desc", fmt.Sprintf("word%d common", rnd(8)))
		out = append(out, p)
	}
	return out
}

func TestQueryMatchesMapReference(t *testing.T) {
	for _, clean := range []bool{false, true} {
		sources := 1
		if clean {
			sources = 2
		}
		for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.EJS, metablocking.ARCS} {
			for _, rule := range []PruneRule{PruneTopK, PruneMean, PruneNone} {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.Prune = rule
				x := New(clean, cfg)
				if scheme == metablocking.EJS && x.cfg.Scheme != metablocking.JS {
					t.Fatalf("an EJS index weighs by %v; want JS (no node degrees online)", x.cfg.Scheme)
				}
				for _, p := range synthQueryProfiles(60, sources, 5) {
					if _, _, err := x.Upsert(p); err != nil {
						t.Fatal(err)
					}
				}
				label := fmt.Sprintf("clean=%v %v/%v", clean, scheme, rule)
				for _, p := range synthQueryProfiles(60, sources, 5) {
					p := p
					want := refCandidates(x, &p)
					got := x.Query(&p).Candidates
					if len(want) != len(got) {
						t.Fatalf("%s query %s: %d candidates, reference %d", label, p.OriginalID, len(got), len(want))
					}
					for i := range want {
						if want[i].ID != got[i].ID || want[i].SharedKeys != got[i].SharedKeys ||
							math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
							t.Fatalf("%s query %s candidate %d: %+v vs reference %+v",
								label, p.OriginalID, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestResolveFastPathMatchesJaccardMeasure is the cross-layer scoring
// pin: for the same pair, the index's cached-bag scorer, the generic
// matching.JaccardMeasure one-off path (Measure.Score, what a configured
// measure runs) and the batch matcher's prepared scorer over the same
// profiles agree bit for bit.
func TestResolveFastPathMatchesJaccardMeasure(t *testing.T) {
	fastCfg := DefaultConfig() // Measure nil: fast path
	slowCfg := DefaultConfig()
	slowCfg.Measure = matching.JaccardMeasure(slowCfg.Tokenizer)
	slowCfg.MatchThreshold = -1 // keep every scored candidate
	fastCfg.MatchThreshold = -1
	fast := New(false, fastCfg)
	slow := New(false, slowCfg)
	profiles := synthQueryProfiles(80, 1, 13)
	batchID := map[profile.ID]profile.ID{} // index ID -> ID in the batch collection
	for i, p := range profiles {
		id, _, err := fast.Upsert(p)
		if err != nil {
			t.Fatal(err)
		}
		batchID[id] = profile.ID(i)
		if _, _, err := slow.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	batch := matching.JaccardMeasure(fastCfg.Tokenizer).Prepare(profile.NewDirty(profiles))
	scored := 0
	for i, p := range profiles {
		p := p
		fr := fast.Resolve(&p)
		sr := slow.Resolve(&p)
		if fr.Comparisons != sr.Comparisons || len(fr.Matches) != len(sr.Matches) {
			t.Fatalf("query %s: fast %d matches/%d comparisons, slow %d/%d",
				p.OriginalID, len(fr.Matches), fr.Comparisons, len(sr.Matches), sr.Comparisons)
		}
		for k := range fr.Matches {
			if fr.Matches[k].B != sr.Matches[k].B ||
				math.Float64bits(fr.Matches[k].Score) != math.Float64bits(sr.Matches[k].Score) {
				t.Fatalf("query %s match %d: fast %+v vs slow %+v",
					p.OriginalID, k, fr.Matches[k], sr.Matches[k])
			}
			if got := batch(profile.ID(i), batchID[fr.Matches[k].B]); math.Float64bits(got) != math.Float64bits(fr.Matches[k].Score) {
				t.Fatalf("query %s match %d: batch scorer %v vs index %v",
					p.OriginalID, k, got, fr.Matches[k].Score)
			}
			scored++
		}
	}
	if scored == 0 {
		t.Fatal("no pair was scored")
	}
}

// TestQueryScratchGrowsWithUpserts interleaves queries with upserts that
// extend the ID space, exercising the scratch ensure/grow path.
func TestQueryScratchGrowsWithUpserts(t *testing.T) {
	x := New(false, DefaultConfig())
	batch := synthQueryProfiles(120, 1, 9)
	for i, p := range batch {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
		q := batch[i/2]
		want := refCandidates(x, &q)
		got := x.Query(&q).Candidates
		if len(want) != len(got) {
			t.Fatalf("after %d upserts: %d candidates, reference %d", i+1, len(got), len(want))
		}
		for j := range want {
			if want[j].ID != got[j].ID || math.Float64bits(want[j].Weight) != math.Float64bits(got[j].Weight) {
				t.Fatalf("after %d upserts candidate %d: %+v vs %+v", i+1, j, got[j], want[j])
			}
		}
	}
}
