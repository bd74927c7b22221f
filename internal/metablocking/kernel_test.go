package metablocking

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sparker/internal/blocking"
	"sparker/internal/datagen"
	"sparker/internal/looseschema"
	"sparker/internal/profile"
)

// TestDrainingNeighbourhoodLeavesNoStaleSlot pins the contract every
// batch pass reads a neighbourhood under. One scratch serves consecutive
// owners through pass 2, pass 1 of every rule and the EJS degree pass;
// each takes every neighbour's slot as it reads it, the backward ones
// included, so after each pass no slot holds a statistic and the touched
// list is empty. Every third owner also gets an Explain-style round that
// looks single slots up and drains nothing: the next pass's Begin must
// zero it. Under holeEntropy some pairs have a zero Sum, so only their
// shared-block count marks them touched.
func TestDrainingNeighbourhoodLeavesNoStaleSlot(t *testing.T) {
	for _, clean := range []bool{false, true} {
		idx := clusteredTestIndex(48, 11, clean)
		ids := idx.ProfileIDs()
		for _, s := range allSchemes() {
			opts := Options{Scheme: s, Entropy: holeEntropy{}}
			rg := newRefGraph(idx, opts)
			if needsDegrees(s) {
				rg.computeDegrees(ids)
			}
			var plans []*plan
			for _, p := range allPrunings() {
				opts.Pruning = p
				plans = append(plans, newPlan(idx, opts))
			}
			g := plans[0].g
			sc := newNeighbourScratch(g.scratch.n)
			requireDrained := func(label string) {
				t.Helper()
				if len(sc.Touched()) != 0 {
					t.Fatalf("%s: %d neighbours left on the touched list", label, len(sc.Touched()))
				}
				for id, st := range sc.stats {
					if st != (PairStats{}) {
						t.Fatalf("%s: slot %d left stale: %+v", label, id, st)
					}
				}
			}
			acc := map[profile.ID]*edgeAccumulator{}
			for i, id := range ids {
				label := fmt.Sprintf("clean=%v/%v/node %d", clean, s, id)
				want := rg.weightedNeighbours(id, acc) // ascending neighbour ID
				var forward []Edge
				for _, nw := range want {
					if nw.id > id {
						forward = append(forward, Edge{A: id, B: nw.id, Weight: nw.w})
					}
				}
				got := slices.Concat(plans[0].edges(&keep{}, []profile.ID{id}, sc)...) // keeps every w >= 0
				requireBitwiseEqual(t, label+"/edges", forward, got)
				requireDrained(label + "/edges")
				for _, p := range plans {
					p.stats([]profile.ID{id}, sc)
					requireDrained(label + "/stats/" + p.rule.String())
				}
				if g.degrees != nil {
					if sum := g.degreePass([]profile.ID{id}, sc); sum != int64(len(want)) {
						t.Fatalf("%s: degree %d, reference %d", label, sum, len(want))
					}
					requireDrained(label + "/degrees")
				}
				if i%3 != 0 {
					continue
				}
				// Explain's round: single lookups, nothing drained.
				g.accumulate(id, sc)
				neighbour := map[profile.ID]bool{}
				for _, nw := range want {
					neighbour[nw.id] = true
					st := sc.Lookup(nw.id)
					if st == nil || math.Float64bits(g.weight(id, nw.id, st)) != math.Float64bits(nw.w) {
						t.Fatalf("%s: lookup of neighbour %d gives %+v, reference weight %g", label, nw.id, st, nw.w)
					}
				}
				for _, other := range ids {
					if !neighbour[other] && sc.Lookup(other) != nil {
						t.Fatalf("%s: non-neighbour %d has a stale slot %+v", label, other, *sc.Lookup(other))
					}
				}
			}
		}
	}
}

// TestKernelWeightsAreFiniteAndNonNegative pins the premise of Blast's
// plain-compare fold: over the generated Abt-Buy, dirty and
// bibliographic sets, blocked as the default pass blocks them
// (loose-schema keys, purging, filtering), every weight the kernel emits
// under every scheme, with entropy and without, is finite, at least 0
// and never −0.
func TestKernelWeightsAreFiniteAndNonNegative(t *testing.T) {
	abt := datagen.AbtBuy()
	abt.CoreEntities, abt.AOnly, abt.BDup = 150, 12, 14
	bib := datagen.BibDefault()
	bib.CorePapers, bib.AOnly, bib.BOnly = 120, 18, 22
	sets := []struct {
		name string
		c    *profile.Collection
	}{
		{"abtbuy", datagen.Generate(abt).Collection},
		{"dirty", datagen.GenerateDirty(120, 3).Collection},
		{"bibliographic", datagen.GenerateBibliographic(bib).Collection},
	}
	for _, set := range sets {
		part := looseschema.Partition(set.c, looseschema.Options{})
		raw := blocking.TokenBlocking(set.c, blocking.Options{Clustering: part})
		idx := blocking.BuildIndex(blocking.Filter(blocking.PurgeBySize(raw, 0.5), blocking.DefaultFilterRatio))
		for _, ent := range []EntropyProvider{nil, part} {
			for _, s := range allSchemes() {
				label := fmt.Sprintf("%s/entropy=%v/%v", set.name, ent != nil, s)
				g := newGraphContext(idx, Options{Scheme: s, Entropy: ent})
				sc := g.scratch.get()
				weights := 0
				for _, id := range idx.ProfileIDs() {
					for _, nw := range g.weightedNeighbours(id, sc) {
						weights++
						if math.IsNaN(nw.w) || math.IsInf(nw.w, 0) || nw.w < 0 || math.Signbit(nw.w) {
							t.Fatalf("%s: edge (%d, %d) weighs %g (bits %x)", label, id, nw.id, nw.w, math.Float64bits(nw.w))
						}
					}
				}
				if weights < 1000 {
					t.Fatalf("%s: only %d weights; the set exercises little", label, weights)
				}
				g.scratch.put(sc)
			}
		}
	}
}
