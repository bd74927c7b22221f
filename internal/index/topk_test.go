package index

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"sparker/internal/metablocking"
	"sparker/internal/obs"
	"sparker/internal/profile"
)

// weigh's bounded selection (CNP) against its keep-everything mode
// (meta-blocking off): the k candidates the selection keeps must be
// the first k of the full ranking, bit for bit, and Pruned must count the
// rest. The oracle below ranks with its own comparison-sort, so a wrong
// compareRank cannot vouch for itself.

// oracleRank returns cands in ranked order (weight descending, ties by
// ascending ID) without touching compareRank.
func oracleRank(cands []Candidate) []Candidate {
	out := append([]Candidate(nil), cands...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// sameCandidates compares two ranked lists field by field, weights by
// their bits.
func sameCandidates(got, want []Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.SharedKeys != w.SharedKeys ||
			math.Float64bits(g.Weight) != math.Float64bits(w.Weight) {
			return fmt.Errorf("candidate %d: %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// TestTopKSelectionMatchesFullSort runs real queries: one index per
// scheme × task type × purge bound, each query answered once
// unpruned (the full ranking) and once per k. The synthetic profiles draw
// from a few dozen tokens, so a neighbourhood is hundreds of candidates
// on a handful of distinct weights and the ID tie-break decides the cut.
func TestTopKSelectionMatchesFullSort(t *testing.T) {
	const n = 500
	biggest := 0
	for _, clean := range []bool{false, true} {
		sources := 1
		if clean {
			sources = 2
		}
		profiles := synthQueryProfiles(n, sources, 17)
		for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS} {
			for _, maxBlock := range []float64{0.5, 0.15} {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.MetaBlocking = false
				cfg.PurgeFactor = maxBlock // 0.15 purges the commonest tokens' postings
				x := New(clean, cfg)
				for _, p := range profiles {
					if _, _, err := x.Upsert(p); err != nil {
						t.Fatal(err)
					}
				}
				label := fmt.Sprintf("clean=%v %v max-block=%v", clean, scheme, maxBlock)
				for qi := 0; qi < n; qi += 23 {
					q := profiles[qi]
					x.cfg.MetaBlocking = false
					full := x.Query(&q)
					want := oracleRank(full.Candidates)
					if err := sameCandidates(full.Candidates, want); err != nil {
						t.Fatalf("%s query %s unpruned: %v", label, q.OriginalID, err)
					}
					biggest = max(biggest, len(want))
					for _, k := range []int{1, 3, 10, len(want) + 5} {
						x.cfg.MetaBlocking = true
						x.cfg.TopK = k
						got := x.Query(&q)
						kept := min(k, len(want))
						if err := sameCandidates(got.Candidates, want[:kept]); err != nil {
							t.Fatalf("%s query %s k=%d: %v", label, q.OriginalID, k, err)
						}
						if got.Pruned != len(want)-kept {
							t.Fatalf("%s query %s k=%d: pruned %d, want %d", label, q.OriginalID, k, got.Pruned, len(want)-kept)
						}
						if got.PostingsScanned != full.PostingsScanned {
							t.Fatalf("%s query %s k=%d: postings %d, unpruned %d", label, q.OriginalID, k,
								got.PostingsScanned, full.PostingsScanned)
						}
					}
				}
			}
		}
	}
	if biggest < 200 {
		t.Fatalf("largest neighbourhood %d candidates: the fixture should reach hundreds", biggest)
	}
}

// weighFixture is a hand-filled neighbourhood: touched[i] carries accs[i],
// in that first-touch order, and (when keys is set) is indexed under
// keys[i] blocking keys, which the ratio schemes read.
type weighFixture struct {
	touched []profile.ID
	accs    []metablocking.PairStats
	keys    []int
}

// index builds an empty index configured by the mode bits (scheme in
// bits 0–1, task type in bit 3; bit 2 selects nothing) that knows the
// fixture's candidates by block count only — all weigh reads of a stored
// profile.
func (f weighFixture) index(mode uint8) *Index {
	cfg := DefaultConfig()
	cfg.DisableMetrics = true
	cfg.Scheme = []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS}[mode&3]
	x := New(mode&8 != 0, cfg)
	x.numBlocks.Store(1000)
	for i, n := range f.keys {
		x.byID[f.touched[i]] = &storedProfile{tokens: make([]string, n)}
	}
	return x
}

// weigh runs Index.weigh over the first n candidates of the fixture
// under the index's current prune rule.
func (f weighFixture) weigh(x *Index, n int, budget Budget) (*QueryResult, int) {
	sc := x.getScratch()
	defer x.putScratch(sc)
	for i, id := range f.touched[:n] {
		sc.AddBlock([]profile.ID{id}, -1, 0)
		*sc.At(id) = f.accs[i]
	}
	res := &QueryResult{}
	dropped := x.weigh(res, 7, sc, budget)
	return res, dropped
}

// check asserts that selecting k of the fixture's first n candidates
// equals the first k of their full ranking.
func (f weighFixture) check(x *Index, n, k int) error {
	x.cfg.MetaBlocking = false
	full, dropped := f.weigh(x, n, Budget{})
	if dropped != 0 || len(full.Candidates) != n {
		return fmt.Errorf("keep-all weigh kept %d of %d, dropped %d", len(full.Candidates), n, dropped)
	}
	want := oracleRank(full.Candidates)
	if err := sameCandidates(full.Candidates, want); err != nil {
		return fmt.Errorf("full ranking: %v", err)
	}
	x.cfg.MetaBlocking = true
	x.cfg.TopK = k
	got, dropped := f.weigh(x, n, Budget{})
	kept := min(k, n)
	if err := sameCandidates(got.Candidates, want[:kept]); err != nil {
		return fmt.Errorf("k=%d of %d: %v", k, n, err)
	}
	if dropped != n-kept {
		return fmt.Errorf("k=%d of %d: dropped %d, want %d", k, n, dropped, n-kept)
	}
	return nil
}

// TestTopKSelectionMidWeighDeadline lands a deadline inside weigh's loop
// (it is checked every weighCheckInterval candidates) and checks that the
// answer is the top k of exactly the prefix weighed before the trip.
func TestTopKSelectionMidWeighDeadline(t *testing.T) {
	const n = 100_000
	f := weighFixture{touched: make([]profile.ID, n), accs: make([]metablocking.PairStats, n)}
	for i := range f.touched {
		f.touched[i] = profile.ID((i * 7919) % n) // a permutation: 7919 is prime to n
		f.accs[i].CBS = int32(1 + i%4)
		f.accs[i].Sum = float64(f.accs[i].CBS)
	}
	x := f.index(0)
	for d := 5 * time.Microsecond; d < time.Second; d += d / 2 {
		x.cfg.MetaBlocking = true
		x.cfg.TopK = 10
		got, dropped := f.weigh(x, n, Budget{Deadline: obs.Now() + int64(d)})
		weighed := dropped + len(got.Candidates)
		if weighed == 0 {
			continue // expired before the first candidate
		}
		if !got.Truncated {
			break // the whole neighbourhood fit in d; longer deadlines will too
		}
		if got.TruncatedStage != StageWeigh.String() || weighed%weighCheckInterval != 0 || weighed >= n {
			t.Fatalf("deadline %v: stage %q after %d of %d candidates", d, got.TruncatedStage, weighed, n)
		}
		x.cfg.MetaBlocking = false
		prefix, _ := f.weigh(x, weighed, Budget{})
		if err := sameCandidates(got.Candidates, oracleRank(prefix.Candidates)[:10]); err != nil {
			t.Fatalf("deadline %v, %d candidates weighed: %v", d, weighed, err)
		}
		return
	}
	t.Skip("no deadline between 5µs and 1s tripped inside weigh on this machine")
}

// selectionFixture decodes fuzz bytes into a neighbourhood of up to 4096
// candidates: two bytes each (shared keys 1–4, block count 3–6, a coarse
// contribution sum), IDs a permutation so
// first-touch order is unrelated to ID order. Few distinct values per
// field means most candidates tie on weight.
func selectionFixture(data []byte) weighFixture {
	n := min(len(data)/2, 4096)
	f := weighFixture{touched: make([]profile.ID, n), accs: make([]metablocking.PairStats, n), keys: make([]int, n)}
	for i := 0; i < n; i++ {
		a, b := data[2*i], data[2*i+1]
		// A touched candidate shares at least one key with the query.
		acc := metablocking.PairStats{CBS: int32(1 + a&3)}
		acc.Sum = float64(acc.CBS) * (float64(b&7)/8 + float64(b>>3&3)/4)
		f.touched[i] = profile.ID((i * 7919) % n) // a permutation: 7919 is a prime above n
		f.accs[i] = acc
		f.keys[i] = 3 + int(a>>4&3)
	}
	return f
}

// FuzzTopKSelection checks a decoded neighbourhood (selectionFixture)
// under the scheme and task type the mode bits pick. The seeds are run
// by plain `go test`: sizes around the heap's edges (k = 1,
// k = n, k just under and over n) for every scheme, and a 300-candidate
// neighbourhood on five distinct byte values.
func FuzzTopKSelection(f *testing.F) {
	data := make([]byte, 2*700)
	state := uint32(2463534242)
	for i := range data {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		data[i] = byte(state)
	}
	for mode := uint8(0); mode < 8; mode++ {
		for _, n := range []int{1, 2, 9, 10, 11, 64, 700} {
			for _, k := range []int{1, 2, 3, 10, n - 1, n, n + 1} {
				if k >= 1 {
					f.Add(data[:2*n], uint16(k), mode)
				}
			}
		}
	}
	ties := make([]byte, 600)
	for i := range ties {
		ties[i] = byte(i % 5)
	}
	f.Add(ties, uint16(10), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, k uint16, mode uint8) {
		fx := selectionFixture(data)
		if len(fx.touched) == 0 || k == 0 {
			return
		}
		x := fx.index(mode)
		if err := fx.check(x, len(fx.touched), int(k)); err != nil {
			t.Fatalf("%v mode=%d: %v", x.cfg.Scheme, mode, err)
		}
	})
}
