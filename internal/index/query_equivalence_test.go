package index

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"sparker/internal/core"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// This file retains the pre-flat-kernel map-based candidate accumulator
// as a reference and proves the query hot path's dense scratch is an
// exact drop-in: candidate sets, order, and weights must be
// bitwise-identical for every scheme × prune rule × task type.

// servedRule is one pruning setting the index serves: meta-blocking off,
// or on with a node rule.
type servedRule struct {
	on   bool
	rule metablocking.Pruning
}

// servedRules are every pruning setting the index serves.
var servedRules = []servedRule{{true, metablocking.CNP}, {true, metablocking.WNP}, {false, 0}}

func (r servedRule) apply(cfg *Config) { cfg.MetaBlocking, cfg.Pruning = r.on, r.rule }

func (r servedRule) String() string {
	if !r.on {
		return "off"
	}
	return r.rule.String()
}

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
	if id, ok := x.lookupOrig(identityOf(p)); ok {
		selfID = id
	}
	maxSize := int(x.cfg.PurgeFactor * float64(x.numProfiles.Load()))
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
	if x.cfg.Scheme == metablocking.ARCS {
		sort.Slice(probes, func(i, j int) bool { return probes[i].key < probes[j].key })
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
				candKeys = len(sp.tokens)
			}
		}
		out = append(out, Candidate{ID: id, Weight: x.weight(&a, liveKeys, candKeys, numBlocks), SharedKeys: a.cbs})
	}
	if x.cfg.wnp() && len(out) > 0 {
		// WNP: the mean weight, summed in ascending ID order.
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		var sum float64
		for _, c := range out {
			sum += c.Weight
		}
		mean := sum / float64(len(out))
		keep := out[:0]
		for _, c := range out {
			if c.Weight >= mean {
				keep = append(keep, c)
			}
		}
		out = keep
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].ID < out[j].ID
	})
	if x.cfg.cnp() && len(out) > x.cfg.TopK {
		out = out[:x.cfg.TopK]
	}
	return out
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
			for _, rule := range servedRules {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				rule.apply(&cfg)
				if scheme == metablocking.EJS {
					// EJS scales JS by node degrees, which the index does
					// not keep: refused, never weighed as JS.
					requireRefused(t, cfg, "scheme ejs")
					continue
				}
				x := New(clean, cfg)
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

// requireRefused checks that every constructor refuses cfg with an error
// naming want: New by panicking, NewFromCollection and Decode by
// returning it.
func requireRefused(t *testing.T, cfg Config, want string) {
	t.Helper()
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate = %v, want an error naming %q", err, want)
	}
	if _, err := NewFromCollection(profile.NewDirty(nil), cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("NewFromCollection error = %v, want one naming %q", err, want)
	}
	image := encodeToBytes(t, New(false, DefaultConfig()))
	if _, err := Decode(bytes.NewReader(image), cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Decode error = %v, want one naming %q", err, want)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("New panicked with %v, want a refusal naming %q", r, want)
		}
	}()
	New(false, cfg)
}

// TestResolveFastPathMatchesJaccardMeasure is the cross-layer scoring
// pin: for the same pair, the index's token-list scorer, the matching
// measure's one-off path (Measure.Score over the two profiles) and the
// batch matcher's prepared scorer over the same profiles agree bit for
// bit — for Jaccard and for Dice, the two measures the index serves.
func TestResolveFastPathMatchesJaccardMeasure(t *testing.T) {
	profiles := synthQueryProfiles(80, 1, 13)
	for kind, measure := range map[core.MeasureKind]func(tokenize.Options) matching.Measure{
		core.MeasureJaccard: matching.JaccardMeasure,
		core.MeasureDice:    matching.DiceMeasure,
	} {
		cfg := DefaultConfig()
		cfg.Measure = kind
		cfg.MatchThreshold = -1 // keep every scored candidate
		ref := measure(cfg.Tokenizer)
		x := New(false, cfg)
		batchID := map[profile.ID]profile.ID{} // index ID -> ID in the batch collection
		for i, p := range profiles {
			id, _, err := x.Upsert(p)
			if err != nil {
				t.Fatal(err)
			}
			batchID[id] = profile.ID(i)
		}
		batch := ref.Prepare(profile.NewDirty(profiles))
		scored := 0
		for i, p := range profiles {
			p := p
			r := x.Resolve(&p)
			if len(r.Matches) != r.Comparisons {
				t.Fatalf("%s query %s: %d matches of %d comparisons at threshold -1",
					kind, p.OriginalID, len(r.Matches), r.Comparisons)
			}
			for k, m := range r.Matches {
				stored := profiles[batchID[m.B]]
				if want := ref.Score(&p, &stored); math.Float64bits(m.Score) != math.Float64bits(want) {
					t.Fatalf("%s query %s match %d: index %v, %s measure %v", kind, p.OriginalID, k, m.Score, kind, want)
				}
				if want := batch(profile.ID(i), batchID[m.B]); math.Float64bits(m.Score) != math.Float64bits(want) {
					t.Fatalf("%s query %s match %d: index %v, batch scorer %v", kind, p.OriginalID, k, m.Score, want)
				}
				scored++
			}
		}
		if scored == 0 {
			t.Fatalf("%s: no pair was scored", kind)
		}
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
