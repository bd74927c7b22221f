package metablocking

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"sparker/internal/blocking"
	"sparker/internal/dataflow"
	"sparker/internal/profile"
)

// This file retains the pre-flat-kernel map-based meta-blocker as a
// reference implementation and proves, property-style, that the flat
// neighbourhood kernel is an exact drop-in: pruned edge sets AND weights
// must be bitwise-identical across every scheme × pruning rule ×
// clean-clean/dirty × entropy-on/off combination. The reference
// deliberately keeps the old shapes — map accumulators, a containsID
// linear scan instead of the BlockRef side bit, map degrees and map
// thresholds — so the two code paths share as little as possible.

// edgeAccumulator is the historical per-pair accumulator, the reference's
// own since the kernel fills the shared PairStats through AddBlock.
type edgeAccumulator struct {
	cbs        int32   // number of shared blocks
	arcs       float64 // Σ 1/||b|| over shared blocks
	entropySum float64 // Σ entropy(cluster(b)) over shared blocks
	entArcs    float64 // Σ entropy/||b||
}

// refGraph mirrors the historical graphContext.
type refGraph struct {
	idx        *blocking.Index
	numBlocks  float64
	comparison []float64
	entropy    []float64
	useEntropy bool
	scheme     Scheme
	degrees    map[profile.ID]int
	totalEdges float64
}

func newRefGraph(idx *blocking.Index, opts Options) *refGraph {
	blocks := idx.Blocks.Blocks
	g := &refGraph{
		idx:        idx,
		numBlocks:  float64(len(blocks)),
		comparison: make([]float64, len(blocks)),
		entropy:    make([]float64, len(blocks)),
		useEntropy: opts.Entropy != nil,
		scheme:     opts.Scheme,
	}
	for i := range blocks {
		c := blocks[i].Comparisons()
		if c < 1 {
			c = 1
		}
		g.comparison[i] = float64(c)
		if g.useEntropy {
			g.entropy[i] = opts.Entropy.EntropyOf(blocks[i].ClusterID)
		} else {
			g.entropy[i] = 1
		}
	}
	return g
}

func refContainsID(ids []profile.ID, id profile.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func (g *refGraph) neighbourhood(id profile.ID, acc map[profile.ID]*edgeAccumulator) {
	for k := range acc {
		delete(acc, k)
	}
	col := g.idx.Blocks
	for _, ref := range g.idx.BlocksOf(id) {
		bi := ref.Ordinal()
		b := &col.Blocks[bi]
		visit := func(other profile.ID) {
			if other == id {
				return
			}
			a := acc[other]
			if a == nil {
				a = &edgeAccumulator{}
				acc[other] = a
			}
			a.cbs++
			a.arcs += 1 / g.comparison[bi]
			a.entropySum += g.entropy[bi]
			a.entArcs += g.entropy[bi] / g.comparison[bi]
		}
		if col.CleanClean {
			if refContainsID(b.A, id) {
				for _, o := range b.B {
					visit(o)
				}
			} else {
				for _, o := range b.A {
					visit(o)
				}
			}
		} else {
			for _, o := range b.A {
				visit(o)
			}
		}
	}
}

func (g *refGraph) weight(a, b profile.ID, acc *edgeAccumulator) float64 {
	cbs := float64(acc.cbs)
	if cbs == 0 {
		return 0
	}
	meanEntropy := acc.entropySum / cbs
	switch g.scheme {
	case CBS:
		if g.useEntropy {
			return acc.entropySum
		}
		return cbs
	case ECBS:
		w := cbs * LogRatio(g.numBlocks, float64(g.idx.NumBlocksOf(a))) *
			LogRatio(g.numBlocks, float64(g.idx.NumBlocksOf(b)))
		if g.useEntropy {
			w *= meanEntropy
		}
		return w
	case JS:
		union := float64(g.idx.NumBlocksOf(a)) + float64(g.idx.NumBlocksOf(b)) - cbs
		if union <= 0 {
			return 0
		}
		w := cbs / union
		if g.useEntropy {
			w *= meanEntropy
		}
		return w
	case EJS:
		union := float64(g.idx.NumBlocksOf(a)) + float64(g.idx.NumBlocksOf(b)) - cbs
		if union <= 0 {
			return 0
		}
		w := cbs / union
		da, db := float64(g.degrees[a]), float64(g.degrees[b])
		w *= LogRatio(g.totalEdges, da) * LogRatio(g.totalEdges, db)
		if g.useEntropy {
			w *= meanEntropy
		}
		return w
	case ARCS:
		if g.useEntropy {
			return acc.entArcs
		}
		return acc.arcs
	}
	return 0
}

func (g *refGraph) weightedNeighbours(id profile.ID, acc map[profile.ID]*edgeAccumulator) []neighbourWeight {
	g.neighbourhood(id, acc)
	out := make([]neighbourWeight, 0, len(acc))
	for other, ea := range acc {
		out = append(out, neighbourWeight{id: other, w: g.weight(id, other, ea)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// nodePartialSum sums the weights of a node's forward edges (neighbour ID
// greater than the node's) over its ordered neighbourhood: the
// reference's per-node WEP partial, summed in ascending node order.
func nodePartialSum(nws []neighbourWeight, id profile.ID) (float64, int64) {
	var sum float64
	var count int64
	for _, nw := range nws {
		if nw.id > id {
			sum += nw.w
			count++
		}
	}
	return sum, count
}

func (g *refGraph) computeDegrees(ids []profile.ID) {
	g.degrees = make(map[profile.ID]int, len(ids))
	acc := map[profile.ID]*edgeAccumulator{}
	var total float64
	for _, id := range ids {
		g.neighbourhood(id, acc)
		g.degrees[id] = len(acc)
		total += float64(len(acc))
	}
	g.totalEdges = total / 2
	if g.totalEdges < 1 {
		g.totalEdges = 1
	}
}

func (g *refGraph) forEachEdge(ids []profile.ID, fn func(a, b profile.ID, w float64)) {
	acc := map[profile.ID]*edgeAccumulator{}
	for _, id := range ids {
		for _, nw := range g.weightedNeighbours(id, acc) {
			if nw.id < id {
				continue
			}
			fn(id, nw.id, nw.w)
		}
	}
}

// refNodeThreshold is a node's WNP or Blast threshold from its whole
// sorted neighbourhood: the mean edge weight, or half the maximum.
func refNodeThreshold(nws []neighbourWeight, blast bool) float64 {
	if blast {
		maxW := 0.0
		for _, nw := range nws {
			if nw.w > maxW {
				maxW = nw.w
			}
		}
		return maxW / 2
	}
	sum := 0.0
	for _, nw := range nws {
		sum += nw.w
	}
	return sum / float64(len(nws))
}

func refKthLargestWeight(nws []neighbourWeight, k int) float64 {
	weights := make([]float64, len(nws))
	for i, nw := range nws {
		weights[i] = nw.w
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(weights)))
	if k > len(weights) {
		k = len(weights)
	}
	return weights[k-1]
}

// refRun is the pre-refactor sequential Run, on the map path end to end.
func refRun(idx *blocking.Index, opts Options) []Edge {
	ids := idx.ProfileIDs()
	g := newRefGraph(idx, opts)
	if needsDegrees(opts.Scheme) {
		g.computeDegrees(ids)
	}
	acc := map[profile.ID]*edgeAccumulator{}

	emit := func(keep func(a, b profile.ID, w float64) bool) []Edge {
		var out []Edge
		g.forEachEdge(ids, func(a, b profile.ID, w float64) {
			if keep(a, b, w) {
				out = append(out, Edge{A: a, B: b, Weight: w})
			}
		})
		sortEdges(out)
		return out
	}

	switch opts.Pruning {
	case WEP:
		var sum float64
		var count int64
		for _, id := range ids {
			s, n := nodePartialSum(g.weightedNeighbours(id, acc), id)
			sum += s
			count += n
		}
		if count == 0 {
			return nil
		}
		threshold := sum / float64(count)
		return emit(func(_, _ profile.ID, w float64) bool { return w >= threshold })
	case CEP:
		k := opts.TopK
		if k <= 0 {
			k = defaultTopK(idx, CEP)
		}
		var weights []float64
		g.forEachEdge(ids, func(_, _ profile.ID, w float64) { weights = append(weights, w) })
		if len(weights) == 0 {
			return nil
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(weights)))
		if k > len(weights) {
			k = len(weights)
		}
		threshold := weights[k-1]
		return emit(func(_, _ profile.ID, w float64) bool { return w >= threshold })
	case WNP, ReciprocalWNP, BlastPruning:
		blast := opts.Pruning == BlastPruning
		thresholds := map[profile.ID]float64{}
		for _, id := range ids {
			nws := g.weightedNeighbours(id, acc)
			if len(nws) == 0 {
				continue
			}
			thresholds[id] = refNodeThreshold(nws, blast)
		}
		reciprocal := opts.Pruning == ReciprocalWNP
		return emit(func(a, b profile.ID, w float64) bool {
			okA := w >= thresholds[a]
			okB := w >= thresholds[b]
			if reciprocal {
				return okA && okB
			}
			return okA || okB
		})
	case CNP, ReciprocalCNP:
		k := opts.TopK
		if k <= 0 {
			k = defaultTopK(idx, CNP)
		}
		kth := map[profile.ID]float64{}
		for _, id := range ids {
			nws := g.weightedNeighbours(id, acc)
			if len(nws) == 0 {
				continue
			}
			kth[id] = refKthLargestWeight(nws, k)
		}
		reciprocal := opts.Pruning == ReciprocalCNP
		return emit(func(a, b profile.ID, w float64) bool {
			okA := w >= kth[a]
			okB := w >= kth[b]
			if reciprocal {
				return okA && okB
			}
			return okA || okB
		})
	}
	return nil
}

// --- test fixtures ---

// clusteredTestIndex builds a deterministic dirty or clean-clean block
// index whose blocks carry varied cluster IDs, so the entropy-weighted
// path sees non-uniform entropies.
func clusteredTestIndex(n int, seed int64, clean bool) *blocking.Index {
	next := uint64(seed)*2654435761 + 1
	rnd := func(mod int) int {
		next = next*6364136223846793005 + 1442695040888963407
		return int((next >> 33) % uint64(mod))
	}
	numTokens := n/2 + 3
	type sides struct{ a, b []profile.ID }
	members := make([]sides, numTokens)
	half := n / 2
	for id := 0; id < n; id++ {
		k := 2 + rnd(4)
		seen := map[int]bool{}
		for j := 0; j < k; j++ {
			tok := rnd(numTokens)
			if seen[tok] {
				continue
			}
			seen[tok] = true
			if clean && id >= half {
				members[tok].b = append(members[tok].b, profile.ID(id))
			} else {
				members[tok].a = append(members[tok].a, profile.ID(id))
			}
		}
	}
	col := &blocking.Collection{NumProfiles: n, CleanClean: clean}
	for tok := 0; tok < numTokens; tok++ {
		m := members[tok]
		if len(m.a)+len(m.b) < 2 {
			continue
		}
		if clean && (len(m.a) == 0 || len(m.b) == 0) {
			continue
		}
		col.Blocks = append(col.Blocks, blocking.Block{
			Key:        "t" + string(rune('a'+tok%26)) + string(rune('0'+tok/26%10)),
			ClusterID:  tok % 5,
			CleanClean: clean,
			A:          m.a,
			B:          m.b,
		})
	}
	return blocking.BuildIndex(col)
}

// rampEntropy gives every attribute cluster a distinct entropy.
type rampEntropy struct{}

func (rampEntropy) EntropyOf(cluster int) float64 { return 0.25 + 0.4*float64(cluster+1) }

// holeEntropy zeroes the entropy of the even attribute clusters, so some
// pairs share only zero-entropy blocks: their Sum stays 0, and only their
// shared-block count marks them touched in the flat kernel.
type holeEntropy struct{}

func (holeEntropy) EntropyOf(cluster int) float64 {
	if cluster%2 == 0 {
		return 0
	}
	return rampEntropy{}.EntropyOf(cluster)
}

// entropySettings are the entropy rows of the equivalence tests: off, a
// distinct entropy per cluster, and zero entropy for some clusters.
var entropySettings = []struct {
	name string
	e    EntropyProvider
}{{"flat", nil}, {"entropy", rampEntropy{}}, {"zero-entropy", holeEntropy{}}}

func requireBitwiseEqual(t *testing.T, label string, want, got []Edge) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: edge count %d != reference %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].A != got[i].A || want[i].B != got[i].B {
			t.Fatalf("%s: edge %d is (%d,%d), reference (%d,%d)",
				label, i, got[i].A, got[i].B, want[i].A, want[i].B)
		}
		if math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
			t.Fatalf("%s: edge %d (%d,%d) weight %x differs from reference %x (%g vs %g)",
				label, i, want[i].A, want[i].B,
				math.Float64bits(got[i].Weight), math.Float64bits(want[i].Weight),
				got[i].Weight, want[i].Weight)
		}
	}
}

// TestFlatKernelMatchesMapReference is the equivalence property of the
// flat-array kernel: for every scheme × pruning rule × task type ×
// entropy setting (zero-entropy clusters included), Run and
// RunDistributed return bitwise-identical edges
// to the retained map-based reference. Run maps its passes over one range
// per GOMAXPROCS worker, so it is held to the reference at several worker
// counts; at 64 there are more ranges than the 48 nodes, and some are
// empty.
func TestFlatKernelMatchesMapReference(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.WithParallelism(3))
	defer ctx.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, clean := range []bool{false, true} {
		for _, ent := range entropySettings {
			idx := clusteredTestIndex(48, 11, clean)
			for _, s := range allSchemes() {
				for _, p := range allPrunings() {
					opts := Options{Scheme: s, Pruning: p, Entropy: ent.e}
					label := map[bool]string{false: "dirty", true: "clean"}[clean] +
						"/" + ent.name + "/" + s.String() + "/" + p.String()
					want := refRun(idx, opts)
					for _, procs := range []int{1, 2, 5, 64} {
						runtime.GOMAXPROCS(procs)
						requireBitwiseEqual(t, fmt.Sprintf("%s/sequential/procs=%d", label, procs), want, Run(idx, opts))
					}
					dist, err := RunDistributed(ctx, idx, opts, 4)
					if err != nil {
						t.Fatalf("%s: distributed: %v", label, err)
					}
					requireBitwiseEqual(t, label+"/distributed", want, dist)
				}
			}
		}
	}
}

// TestEdgeChunksMatchReference holds pass 2's chunked output to the
// reference where chunk boundaries are crossed: two owners whose runs are
// each longer than a chunk, and a graph whose ranges keep several chunks
// of edges, at one and two workers.
func TestEdgeChunksMatchReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	wide := &blocking.Collection{NumProfiles: edgeChunk + 1002, CleanClean: true}
	star := blocking.Block{Key: "star", CleanClean: true, A: []profile.ID{0, 1}}
	for id := 2; id < wide.NumProfiles; id++ {
		star.B = append(star.B, profile.ID(id))
	}
	wide.Blocks = []blocking.Block{star}
	indexes := map[string]*blocking.Index{
		"two long runs": blocking.BuildIndex(wide),
		"many chunks":   clusteredTestIndex(3000, 5, false),
	}
	for name, idx := range indexes {
		opts := Options{Scheme: JS, Pruning: WEP}
		want := refRun(idx, opts)
		if len(want) <= 2*edgeChunk {
			t.Fatalf("%s: %d edges do not fill two chunks", name, len(want))
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			requireBitwiseEqual(t, fmt.Sprintf("%s/procs=%d", name, procs), want, Run(idx, opts))
		}
	}
}

// TestBlastFoldEqualsNodeMaximum pins the fold Blast's pass 1 makes over
// the forward owners: every node's maximum, folded in from the edges of
// both of its endpoints and taken again over the ranges' records, equals
// the maximum over its whole weighted neighbourhood, bit for bit, under
// every scheme and at several range counts. holeEntropy's zero weights
// exercise the fold's plain > at +0.
func TestBlastFoldEqualsNodeMaximum(t *testing.T) {
	for _, clean := range []bool{false, true} {
		idx := clusteredTestIndex(48, 11, clean)
		for _, ent := range entropySettings[1:] {
			for _, s := range allSchemes() {
				p := newPlan(idx, Options{Scheme: s, Pruning: BlastPruning, Entropy: ent.e})
				sc := p.g.scratch.get()
				want := make([]float64, p.g.scratch.n)
				for _, id := range idx.ProfileIDs() {
					for _, nw := range p.g.weightedNeighbours(id, sc) {
						want[id] = max(want[id], nw.w)
					}
				}
				for _, ranges := range []int{1, 3, len(p.owners) + 5} {
					var stats []nodeStat
					for i := range ranges {
						part := p.owners[i*len(p.owners)/ranges : (i+1)*len(p.owners)/ranges]
						stats = append(stats, p.stats(part, sc)...)
					}
					got := p.decide(stats).node
					for id := range want {
						if math.Float64bits(got[id]) != math.Float64bits(want[id]/2) {
							t.Fatalf("clean=%v %s %v ranges=%d node %d: folded threshold %g, half the neighbourhood maximum %g",
								clean, ent.name, s, ranges, id, got[id], want[id]/2)
						}
					}
				}
				p.g.scratch.put(sc)
			}
		}
	}
}

// TestFlatKernelNeighbourhoodsMatchReference pins the kernel itself: per
// node, the flat scratch must reproduce the map accumulator's sorted
// weighted neighbourhood bitwise, including the EJS degree pass. Under
// holeEntropy some neighbours are reached only through zero-entropy
// blocks (weight 0 under CBS); they must still appear.
func TestFlatKernelNeighbourhoodsMatchReference(t *testing.T) {
	for _, clean := range []bool{false, true} {
		idx := clusteredTestIndex(40, 23, clean)
		ids := idx.ProfileIDs()
		for _, ent := range entropySettings[1:] {
			for _, s := range allSchemes() {
				opts := Options{Scheme: s, Entropy: ent.e}
				g := newGraphContext(idx, opts) // runs its own degree pass
				rg := newRefGraph(idx, opts)
				if needsDegrees(s) {
					rg.computeDegrees(ids)
				}
				sc := g.scratch.get()
				acc := map[profile.ID]*edgeAccumulator{}
				zeroes := 0
				for _, id := range ids {
					want := rg.weightedNeighbours(id, acc)
					got := g.orderedNeighbours(id, sc)
					if len(want) != len(got) {
						t.Fatalf("%s/%v node %d: %d neighbours, reference %d", ent.name, s, id, len(got), len(want))
					}
					for i := range want {
						if want[i].id != got[i].id || math.Float64bits(want[i].w) != math.Float64bits(got[i].w) {
							t.Fatalf("%s/%v node %d neighbour %d: (%d, %g) vs reference (%d, %g)",
								ent.name, s, id, i, got[i].id, got[i].w, want[i].id, want[i].w)
						}
						if want[i].w == 0 {
							zeroes++
						}
					}
				}
				if ent.e == (holeEntropy{}) && s == CBS && zeroes == 0 {
					t.Fatalf("clean=%v: no neighbour is reached through zero-entropy blocks only", clean)
				}
				g.scratch.put(sc)
			}
		}
	}
}

// TestFlatKernelScratchReuse runs two different graphs through one pooled
// scratch path back to back, guarding against cross-run contamination of
// the pooled slots.
func TestFlatKernelScratchReuse(t *testing.T) {
	a := clusteredTestIndex(30, 3, false)
	b := clusteredTestIndex(30, 7, false)
	for i := 0; i < 3; i++ {
		requireBitwiseEqual(t, "reuse-a", refRun(a, Options{Scheme: JS, Pruning: WNP}),
			Run(a, Options{Scheme: JS, Pruning: WNP}))
		requireBitwiseEqual(t, "reuse-b", refRun(b, Options{Scheme: ECBS, Pruning: ReciprocalCNP}),
			Run(b, Options{Scheme: ECBS, Pruning: ReciprocalCNP}))
	}
}
