package index

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sparker/internal/blocking"
	"sparker/internal/datagen"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

// The cross-layer contract: with purging and filtering off (purge factor
// 1, filter ratio 1), an indexed profile p's online candidates are the
// batch blocking graph's node rule applied to p's neighbourhood N(p):
//
//	{q ∈ N(p) : w(p, q) ≥ t_p}
//
// where t_p is 0 with meta-blocking off, the mean weight over N(p)
// (summed in ascending ID order) under WNP, and the k-th largest weight
// under CNP. The statistics of every pair (shared blocks, their
// contributions) are the batch graph's, bit for bit.
//
// Two differences are stated here, not hidden:
//
//   - CNP online keeps exactly k candidates, ranked by weight and then
//     ID; the batch rule keeps every neighbour tied at the k-th weight.
//   - The block counts JS and ECBS read are not the batch graph's. Batch
//     token blocking drops a block with no comparison in it (one
//     profile, or one side of a clean-clean task); the index keeps such
//     a posting, so |B_p| counts every token of p and |B| every posting.
//     Under JS and ECBS the online weight is the batch formula
//     (metablocking.Weight) over the batch pair statistics with those
//     counts, and the node rule is applied to those weights. CBS and
//     ARCS read no count, and their weights are the batch graph's.

// contractSets are small cuts of the three generated sets.
func contractSets() map[string]*profile.Collection {
	abt := datagen.AbtBuy()
	abt.CoreEntities, abt.AOnly, abt.BDup = 80, 10, 8
	bib := datagen.BibDefault()
	bib.CorePapers, bib.AOnly, bib.BOnly = 80, 10, 10
	return map[string]*profile.Collection{
		"abt-buy":       datagen.Generate(abt).Collection,
		"bibliographic": datagen.GenerateBibliographic(bib).Collection,
		"dirty":         datagen.GenerateDirty(80, 11).Collection,
	}
}

// neighbour is one edge of the batch graph seen from one endpoint.
type neighbour struct {
	id  profile.ID
	cbs int
	w   float64 // the weight the index must compute
}

func TestOnlinePruningIsTheBatchNodeRule(t *testing.T) {
	const k = 3
	ties, countsDiffer := 0, 0
	for name, c := range contractSets() {
		blocks := blocking.Filter(blocking.PurgeBySize(blocking.TokenBlocking(c, blocking.Options{}), 1), 1)
		idx := blocking.BuildIndex(blocks)
		// Every pair's shared blocks and, for ARCS, their contributions
		// in ascending block order — the batch accumulation order.
		type pairStats struct {
			cbs  int
			arcs float64
		}
		stats := map[[2]profile.ID]*pairStats{}
		for bi := range blocks.Blocks {
			b := &blocks.Blocks[bi]
			card := float64(b.Comparisons())
			add := func(p, q profile.ID) {
				if q < p {
					p, q = q, p
				}
				st := stats[[2]profile.ID{p, q}]
				if st == nil {
					st = &pairStats{}
					stats[[2]profile.ID{p, q}] = st
				}
				st.cbs++
				st.arcs += 1 / card
			}
			for i, p := range b.A {
				if b.CleanClean {
					for _, q := range b.B {
						add(p, q)
					}
					continue
				}
				for _, q := range b.A[i+1:] {
					add(p, q)
				}
			}
		}
		for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS} {
			// The whole batch graph, weighed: CNP with k = |P| keeps
			// every edge.
			edges := metablocking.Run(idx, metablocking.Options{Scheme: scheme, Pruning: metablocking.CNP, TopK: c.Size()})
			if len(edges) != len(stats) {
				t.Fatalf("%s %v: %d batch edges, %d co-occurring pairs", name, scheme, len(edges), len(stats))
			}
			for _, rule := range servedRules {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				rule.apply(&cfg)
				cfg.PurgeFactor, cfg.FilterRatio, cfg.TopK = 1, 1, k
				x, err := NewFromCollection(c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s %v/%v", name, scheme, rule)
				nbs := make([][]neighbour, c.Size())
				for _, e := range edges {
					st := stats[[2]profile.ID{e.A, e.B}]
					ps := metablocking.PairStats{CBS: int32(st.cbs), Sum: float64(st.cbs)}
					if scheme == metablocking.ARCS {
						ps.Sum = st.arcs
					}
					// The batch weight is the formula over the batch
					// counts, from the lower endpoint…
					nbBatch := float64(len(blocks.Blocks))
					if w := metablocking.Weight(scheme, &ps, false, len(idx.BlocksOf(e.A)), len(idx.BlocksOf(e.B)), nbBatch, 1); math.Float64bits(w) != math.Float64bits(e.Weight) {
						t.Fatalf("%s: edge %d-%d weighs %v in the batch graph, %v by its statistics", label, e.A, e.B, e.Weight, w)
					}
					// …and the online one the formula over the online
					// counts, from the query's side.
					online := func(p, q profile.ID) float64 {
						if !scheme.ReadsEndpoints() {
							return e.Weight
						}
						return metablocking.Weight(scheme, &ps, false, len(x.byID[p].tokens), len(x.byID[q].tokens), float64(x.numBlocks.Load()), 1)
					}
					nbs[e.A] = append(nbs[e.A], neighbour{id: e.B, cbs: st.cbs, w: online(e.A, e.B)})
					nbs[e.B] = append(nbs[e.B], neighbour{id: e.A, cbs: st.cbs, w: online(e.B, e.A)})
					if online(e.A, e.B) != e.Weight {
						countsDiffer++ // the stated difference: JS and ECBS only
					}
				}
				for i := range c.Profiles {
					p := &c.Profiles[i]
					n := nbs[p.ID]
					slices.SortFunc(n, func(a, b neighbour) int { return int(a.id) - int(b.id) })
					want, tp := nodeRule(n, rule, k)
					got := x.Query(p).Candidates
					if rule.on && rule.rule == metablocking.CNP && len(want) > k {
						ties++ // the stated difference: batch keeps the ties
						want = want[:k]
					}
					if len(got) != len(want) {
						t.Fatalf("%s profile %d: %d online candidates, the batch rule keeps %d (t_p %v)", label, p.ID, len(got), len(want), tp)
					}
					for j := range want {
						if got[j].ID != want[j].id || got[j].SharedKeys != want[j].cbs ||
							math.Float64bits(got[j].Weight) != math.Float64bits(want[j].w) {
							t.Fatalf("%s profile %d candidate %d: %+v, batch %+v", label, p.ID, j, got[j], want[j])
						}
					}
					// The threshold is the batch plan's own where the
					// weights are: ask Explain for one edge of every
					// tenth node.
					if rule.on && !scheme.ReadsEndpoints() && len(n) > 0 && i%10 == 0 {
						ex := metablocking.Explain(idx, metablocking.Options{Scheme: scheme, Pruning: rule.rule, TopK: k}, p.ID, n[0].id)
						th := ex.ThresholdA
						if p.ID > n[0].id {
							th = ex.ThresholdB
						}
						if math.Float64bits(th) != math.Float64bits(tp) {
							t.Fatalf("%s profile %d: t_p %v, the batch plan's %v", label, p.ID, tp, th)
						}
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no CNP neighbourhood tied at its k-th weight: the stated difference went unexercised")
	}
	if countsDiffer == 0 {
		t.Fatal("no JS or ECBS weight differs from the batch graph's: the stated block-count difference is gone, restate the contract")
	}
}

// nodeRule applies the batch node rule to p's neighbourhood n (ascending
// by ID) and returns the kept neighbours, ranked by weight and then ID,
// with p's threshold.
func nodeRule(n []neighbour, rule servedRule, k int) ([]neighbour, float64) {
	var tp float64
	if rule.on && len(n) > 0 {
		switch rule.rule {
		case metablocking.WNP:
			sum := 0.0
			for _, nb := range n {
				sum += nb.w
			}
			tp = sum / float64(len(n))
		case metablocking.CNP:
			ws := make([]float64, len(n))
			for i, nb := range n {
				ws[i] = nb.w
			}
			slices.Sort(ws)
			tp = ws[len(ws)-min(k, len(ws))]
		}
	}
	var kept []neighbour
	for _, nb := range n {
		if nb.w >= tp {
			kept = append(kept, nb)
		}
	}
	slices.SortStableFunc(kept, func(a, b neighbour) int {
		if a.w != b.w {
			if a.w > b.w {
				return -1
			}
			return 1
		}
		return int(a.id) - int(b.id)
	})
	return kept, tp
}
