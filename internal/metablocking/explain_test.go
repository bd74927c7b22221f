package metablocking

import (
	"math"
	"testing"

	"sparker/internal/blocking"
	"sparker/internal/profile"
)

// TestExplainFigure2 reconstructs the Figure 2(c) decisions pair by pair.
func TestExplainFigure2(t *testing.T) {
	c := figureProfiles()
	blocks := blocking.TokenBlocking(c, blocking.Options{Clustering: figure2Partitioning{}})
	idx := blocking.BuildIndex(blocks)
	opts := Options{Scheme: CBS, Pruning: WEP, Entropy: figure2Partitioning{}}

	// p1-p3 share blast_1, blocking_1, simonini_2 → weight 1.6.
	ex := Explain(idx, opts, 0, 2)
	if len(ex.CommonBlocks) != 3 {
		t.Fatalf("common blocks: %+v", ex.CommonBlocks)
	}
	if math.Abs(ex.Weight-1.6) > 1e-9 {
		t.Fatalf("weight %f", ex.Weight)
	}
	keys := map[string]float64{}
	for _, cb := range ex.CommonBlocks {
		keys[cb.Key] = cb.Entropy
	}
	if keys["blast_1"] != 0.4 || keys["simonini_2"] != 0.8 || keys["blocking_1"] != 0.4 {
		t.Fatalf("entropies: %v", keys)
	}

	// p1-p4 share only blast_1 → weight 0.4.
	ex14 := Explain(idx, opts, 0, 3)
	if len(ex14.CommonBlocks) != 1 || math.Abs(ex14.Weight-0.4) > 1e-9 {
		t.Fatalf("p1-p4: %+v", ex14)
	}
}

// TestExplainBlastDecision checks the node thresholds and retention flag
// against the actual Run output.
func TestExplainBlastDecision(t *testing.T) {
	idx := testIndex(40, 31)
	opts := Options{Scheme: JS, Pruning: BlastPruning}
	retained := map[[2]profile.ID]bool{}
	for _, e := range Run(idx, opts) {
		retained[[2]profile.ID{e.A, e.B}] = true
	}
	g := newGraphContext(idx, opts)
	checked := 0
	for _, e := range allEdges(g, idx.ProfileIDs()) {
		if checked >= 50 {
			break
		}
		checked++
		a, b := e.A, e.B
		ex := Explain(idx, opts, a, b)
		if ex.Retained != retained[[2]profile.ID{a, b}] {
			t.Fatalf("pair (%d,%d): explanation says %v, Run says %v",
				a, b, ex.Retained, retained[[2]profile.ID{a, b}])
		}
		if ex.Retained && ex.Weight < ex.ThresholdA && ex.Weight < ex.ThresholdB {
			t.Fatalf("pair (%d,%d) retained below both thresholds: %+v", a, b, ex)
		}
	}
	if checked == 0 {
		t.Fatal("no edges checked")
	}
}

// TestExplainAgreesWithRun holds Explain to Run under every scheme and
// rule: for each edge of the unpruned graph, Retained is membership in
// Run's edges, and the reported thresholds are the ones that decide it.
func TestExplainAgreesWithRun(t *testing.T) {
	idx := testIndex(24, 34)
	type pair = [2]profile.ID
	var graph []pair
	for _, e := range allEdges(newGraphContext(idx, Options{}), idx.ProfileIDs()) {
		graph = append(graph, pair{e.A, e.B})
	}
	if len(graph) < 50 {
		t.Fatalf("fixture has only %d edges", len(graph))
	}
	for _, s := range allSchemes() {
		for _, p := range allPrunings() {
			opts := Options{Scheme: s, Pruning: p}
			retained := map[pair]float64{}
			for _, e := range Run(idx, opts) {
				retained[pair{e.A, e.B}] = e.Weight
			}
			if len(retained) == 0 || len(retained) == len(graph) && p != CEP {
				// CEP's default K (BC/2) exceeds this graph's edge count.
				t.Fatalf("%v/%v: Run kept %d of %d edges; the fixture decides nothing", s, p, len(retained), len(graph))
			}
			for _, e := range graph {
				ex := Explain(idx, opts, e[0], e[1])
				w, kept := retained[e]
				if ex.Retained != kept {
					t.Fatalf("%v/%v pair %v: Explain says retained=%v (weight %g, thresholds %g/%g), Run says %v",
						s, p, e, ex.Retained, ex.Weight, ex.ThresholdA, ex.ThresholdB, kept)
				}
				if kept && math.Float64bits(w) != math.Float64bits(ex.Weight) {
					t.Fatalf("%v/%v pair %v: Explain weight %g, Run weight %g", s, p, e, ex.Weight, w)
				}
				okA, okB := ex.Weight >= ex.ThresholdA, ex.Weight >= ex.ThresholdB
				want := okA || okB
				if p == ReciprocalWNP || p == ReciprocalCNP {
					want = okA && okB
				}
				if ex.Retained != want {
					t.Fatalf("%v/%v pair %v: retained=%v does not follow from weight %g and thresholds %g/%g",
						s, p, e, ex.Retained, ex.Weight, ex.ThresholdA, ex.ThresholdB)
				}
				if (p == WEP || p == CEP) && ex.ThresholdA != ex.ThresholdB {
					t.Fatalf("%v/%v pair %v: global rule reported thresholds %g and %g", s, p, e, ex.ThresholdA, ex.ThresholdB)
				}
			}
		}
	}
}

func TestExplainUnrelatedPair(t *testing.T) {
	idx := testIndex(20, 32)
	// Find two profiles with no shared block.
	ids := idx.ProfileIDs()
	g := newGraphContext(idx, Options{Scheme: CBS})
	s := g.scratch.get()
	defer g.scratch.put(s)
	for _, a := range ids {
		g.accumulate(a, s)
		for _, b := range ids {
			if b <= a {
				continue
			}
			if s.Lookup(b) == nil {
				ex := Explain(idx, Options{Scheme: CBS, Pruning: WNP}, a, b)
				if len(ex.CommonBlocks) != 0 || ex.Weight != 0 || ex.Retained {
					t.Fatalf("unrelated pair explained as related: %+v", ex)
				}
				return
			}
		}
	}
	t.Skip("graph is complete; no unrelated pair to test")
}

func TestExplainCanonicalisesOrder(t *testing.T) {
	idx := testIndex(20, 33)
	opts := Options{Scheme: CBS, Pruning: WNP}
	ids := idx.ProfileIDs()
	ex1 := Explain(idx, opts, ids[0], ids[1])
	ex2 := Explain(idx, opts, ids[1], ids[0])
	if ex1.A != ex2.A || ex1.B != ex2.B || ex1.Weight != ex2.Weight {
		t.Fatalf("order changed the explanation: %+v vs %+v", ex1, ex2)
	}
}
