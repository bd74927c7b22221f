// Package metablocking restructures a block collection by pruning the
// least promising comparisons, the core of SparkER's blocker. Profiles are
// nodes of an implicit blocking graph; two nodes are connected when they
// co-occur in at least one block; edges are weighted by co-occurrence
// statistics (optionally scaled by attribute-cluster entropy, the Blast
// [13] contribution); and a pruning rule drops edges below a global or
// node-local threshold. The surviving edges are the candidate pairs handed
// to the entity matcher.
//
// The algorithm is written once. Weight (weight.go) is the one place a
// scheme becomes arithmetic. Each pruning rule is a plan (plan.go) over
// two node passes: pass 1 computes per-node or global statistics, a
// driver-side step turns them into one keep predicate, pass 2 emits the
// forward edges that pass it. Two drivers run that plan and differ only
// in how a pass is mapped over contiguous ID ranges: Run maps it over one
// range per GOMAXPROCS worker, each with a scratch of its own;
// RunDistributed is the paper's parallel algorithm on the dataflow
// engine — partition the nodes, broadcast the block index and the pass-1
// statistics, materialise one node neighbourhood at a time, shuffle
// nothing. RunNaiveDistributed is a separate baseline that materialises
// every edge through the shuffle, kept to quantify what the
// broadcast-join design saves; reference_test.go retains the map-based
// reference all of them are pinned against bitwise.
package metablocking

import (
	"fmt"
	"slices"
	"strings"

	"sparker/internal/blocking"
	"sparker/internal/profile"
)

// Scheme selects the edge-weighting function [10].
type Scheme int

const (
	// CBS (Common Blocks Scheme) counts the blocks two profiles share.
	CBS Scheme = iota
	// ECBS scales CBS by the rarity of each profile's block set.
	ECBS
	// JS is the Jaccard similarity of the two profiles' block sets.
	JS
	// EJS scales JS by the rarity of each profile's neighbourhood degree.
	EJS
	// ARCS sums the reciprocal comparison cardinality of shared blocks, so
	// small (distinctive) blocks contribute more.
	ARCS
)

// schemeNames is the one table of scheme spellings: what stored
// configurations and the command-line flags say, and (upper-cased) what
// reports print.
var schemeNames = [...]string{CBS: "cbs", ECBS: "ecbs", JS: "js", EJS: "ejs", ARCS: "arcs"}

// Name is the scheme's configuration spelling; ParseScheme inverts it.
func (s Scheme) Name() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return "unknown"
	}
	return schemeNames[s]
}

// String names the scheme for reports.
func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return "unknown"
	}
	return strings.ToUpper(schemeNames[s])
}

// ParseScheme resolves a scheme name, ignoring case.
func ParseScheme(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if strings.EqualFold(n, name) {
			return Scheme(s), nil
		}
	}
	return 0, fmt.Errorf("metablocking: unknown scheme %q (want %s)", name, strings.Join(schemeNames[:], ", "))
}

// Pruning selects the edge-pruning rule.
type Pruning int

const (
	// WEP (Weighted Edge Pruning) keeps edges at or above the global mean
	// weight; this is the rule Figure 1(c) illustrates.
	WEP Pruning = iota
	// CEP (Cardinality Edge Pruning) keeps the globally top-K edges.
	CEP
	// WNP (Weighted Node Pruning) keeps an edge if it reaches the local
	// mean weight of either endpoint.
	WNP
	// ReciprocalWNP requires the edge to reach both endpoints' means.
	ReciprocalWNP
	// CNP (Cardinality Node Pruning) keeps an edge in the top-k of either
	// endpoint.
	CNP
	// ReciprocalCNP requires the edge in the top-k of both endpoints.
	ReciprocalCNP
	// BlastPruning uses Blast's node threshold: half the maximum edge
	// weight of the endpoint, kept if reached at either endpoint.
	BlastPruning
)

// String names the pruning rule for reports.
func (p Pruning) String() string {
	switch p {
	case WEP:
		return "WEP"
	case CEP:
		return "CEP"
	case WNP:
		return "WNP"
	case ReciprocalWNP:
		return "WNP-reciprocal"
	case CNP:
		return "CNP"
	case ReciprocalCNP:
		return "CNP-reciprocal"
	case BlastPruning:
		return "Blast"
	}
	return "unknown"
}

// pruningNames is the one table of pruning-rule configuration spellings
// (String keeps the longer report names).
var pruningNames = [...]string{
	WEP: "wep", CEP: "cep", WNP: "wnp", ReciprocalWNP: "rwnp",
	CNP: "cnp", ReciprocalCNP: "rcnp", BlastPruning: "blast",
}

// Name is the rule's configuration spelling; ParsePruning inverts it.
func (p Pruning) Name() string {
	if p < 0 || int(p) >= len(pruningNames) {
		return "unknown"
	}
	return pruningNames[p]
}

// ParsePruning resolves a pruning-rule name, ignoring case.
func ParsePruning(name string) (Pruning, error) {
	for p, n := range pruningNames {
		if strings.EqualFold(n, name) {
			return Pruning(p), nil
		}
	}
	return 0, fmt.Errorf("metablocking: unknown pruning %q (want %s)", name, strings.Join(pruningNames[:], ", "))
}

// EntropyProvider supplies the entropy of the attribute cluster a block's
// key belongs to. looseschema.Partitioning implements it.
type EntropyProvider interface {
	EntropyOf(cluster int) float64
}

// Options configures a meta-blocking run.
type Options struct {
	Scheme  Scheme
	Pruning Pruning
	// Entropy enables Blast's entropy re-weighting: every shared block
	// contributes proportionally to its attribute-cluster entropy instead
	// of uniformly. Nil disables it.
	Entropy EntropyProvider
	// TopK is the K of CEP or the per-node k of CNP; 0 derives the
	// literature defaults (BC/2 for CEP, BC/|P| for CNP).
	TopK int
}

// Edge is a retained comparison with its final weight.
type Edge struct {
	A, B   profile.ID // A < B
	Weight float64
}

// graphContext caches everything the weighting functions need.
type graphContext struct {
	idx        *blocking.Index
	numBlocks  float64
	blockSum   []float64 // per block: what it adds to a pair's Sum (BlockContribution)
	entropy    []float64 // per block: cluster entropy (1 when disabled)
	useEntropy bool
	scheme     Scheme
	// sumOnly is set when the scheme's weight is the pair's Sum (CBS,
	// ARCS), so weight reads no endpoint.
	sumOnly bool
	// scratch leases flat neighbourhood kernels sized maxID+1; the pool is
	// shared by every dataflow task when the context is broadcast.
	scratch scratchPool
	// EJS support, nil for every other scheme: degrees is dense, indexed by
	// profile ID.
	degrees    []int32
	totalEdges float64
}

// newGraphContext derives the per-block caches and, for EJS, runs the
// degree pass: the one preamble of Run, RunDistributed, Explain and
// Schedule.
func newGraphContext(idx *blocking.Index, opts Options) *graphContext {
	blocks := idx.Blocks.Blocks
	g := &graphContext{
		idx:        idx,
		numBlocks:  float64(len(blocks)),
		blockSum:   make([]float64, len(blocks)),
		entropy:    make([]float64, len(blocks)),
		useEntropy: opts.Entropy != nil,
		scheme:     opts.Scheme,
		sumOnly:    !opts.Scheme.ReadsEndpoints(),
	}
	g.scratch.n = int(idx.MaxProfileID()) + 1
	for i := range blocks {
		c := blocks[i].Comparisons()
		if c < 1 {
			c = 1
		}
		if g.useEntropy {
			g.entropy[i] = opts.Entropy.EntropyOf(blocks[i].ClusterID)
		} else {
			g.entropy[i] = 1
		}
		g.blockSum[i] = BlockContribution(g.scheme, g.useEntropy, g.entropy[i], float64(c))
	}
	if needsDegrees(opts.Scheme) {
		g.computeDegrees(idx.ProfileIDs())
	}
	return g
}

// accumulate materialises the weighted neighbourhood of node id into the
// flat scratch (cleared first by Begin), leaving the round open: Explain
// looks single slots up in it, and the next Begin zeroes them. Pairs
// within the same source of a clean-clean task are skipped: each
// BlockRef carries the profile's side, so the kernel reads the opposite
// side of every block directly instead of scanning for the profile's
// membership.
func (g *graphContext) accumulate(id profile.ID, s *neighbourScratch) {
	s.Begin()
	col := g.idx.Blocks
	for _, ref := range g.idx.BlocksOf(id) {
		bi := ref.Ordinal()
		b := &col.Blocks[bi]
		others := b.A
		if col.CleanClean && !ref.SideB() {
			others = b.B
		}
		s.AddBlock(others, id, g.blockSum[bi])
	}
}

// neighbourhood is the draining round every batch pass reads a
// neighbourhood through: it accumulates id's neighbourhood and hands
// over its neighbours in first-touch order. The caller must take every
// one of them (s.take), the backward ones (ID at most id) included,
// before the next round on s: each slot is cleared as it is read, so
// the round leaves nothing for the next Begin to zero.
func (g *graphContext) neighbourhood(id profile.ID, s *neighbourScratch) []profile.ID {
	g.accumulate(id, s)
	return s.drain()
}

// neighbourWeight is one weighted edge endpoint.
type neighbourWeight struct {
	id profile.ID
	w  float64
}

// weightedNeighbours materialises the neighbourhood of id and returns its
// weighted edges in first-touch order. That is all a maximum, a k-th
// largest weight (CNP) or a best-first schedule needs; a float sum over
// the neighbourhood takes orderedNeighbours instead. The returned slice
// aliases the scratch's reusable buffer: consume it before the next call
// on the same scratch.
func (g *graphContext) weightedNeighbours(id profile.ID, s *neighbourScratch) []neighbourWeight {
	return g.weigh(id, g.neighbourhood(id, s), s)
}

// orderedNeighbours is weightedNeighbours ascending by neighbour ID, the
// fixed order of every float sum over a neighbourhood (WNP's mean, WEP's
// partial sums): float addition is not associative, and runs must agree
// bitwise whatever ranges their passes are split into. Only those sums pay for the sort.
func (g *graphContext) orderedNeighbours(id profile.ID, s *neighbourScratch) []neighbourWeight {
	touched := g.neighbourhood(id, s)
	slices.Sort(touched)
	return g.weigh(id, touched, s)
}

// weigh drains the neighbours of id into weighted edges, in the order
// given.
func (g *graphContext) weigh(id profile.ID, touched []profile.ID, s *neighbourScratch) []neighbourWeight {
	out := s.nws[:0]
	for _, other := range touched {
		st := s.take(other)
		out = append(out, neighbourWeight{id: other, w: g.weight(id, other, &st)})
	}
	s.nws = out
	return out
}

// forwardOwners returns the prefix of ids (ascending) whose nodes can own
// a forward edge. Every neighbour of a clean-clean side-B node is on
// side A, so the side-B tail past the last side-A node — under the
// collection's ID layout (first source below the separator) all of
// side B, half the graph — owns none, and the edge passes skip
// materialising neighbourhoods they would discard whole.
func (g *graphContext) forwardOwners(ids []profile.ID) []profile.ID {
	if !g.idx.Blocks.CleanClean {
		return ids
	}
	n := len(ids)
	for n > 0 && g.idx.BlocksOf(ids[n-1])[0].SideB() {
		n--
	}
	return ids[:n]
}

// weight is Weight for the edge (a, b) of this graph: the pair's Sum
// under CBS and ARCS, decided once per graph, not per edge.
func (g *graphContext) weight(a, b profile.ID, st *PairStats) float64 {
	if g.sumOnly {
		return st.Sum
	}
	return g.endpointWeight(a, b, st)
}

// endpointWeight is weight for the schemes that read the endpoints'
// block counts and, under EJS, their degree factor.
func (g *graphContext) endpointWeight(a, b profile.ID, st *PairStats) float64 {
	degreeFactor := 1.0
	if g.degrees != nil {
		degreeFactor = LogRatio(g.totalEdges, float64(g.degrees[a])) * LogRatio(g.totalEdges, float64(g.degrees[b]))
	}
	return Weight(g.scheme, st, g.useEntropy, g.idx.NumBlocksOf(a), g.idx.NumBlocksOf(b), g.numBlocks, degreeFactor)
}

// needsDegrees reports whether the scheme requires the EJS degree pass.
func needsDegrees(s Scheme) bool { return s == EJS }

// computeDegrees fills g.degrees and g.totalEdges with the node degrees of
// the full (unpruned) blocking graph, one contiguous range of ids per
// worker (degreePass). The ranges write the dense degree array
// disjointly.
func (g *graphContext) computeDegrees(ids []profile.ID) {
	g.degrees = make([]int32, g.scratch.n)
	var total int64
	for _, sum := range inRanges(g, ids, g.degreePass) {
		total += sum
	}
	g.totalEdges = float64(total) / 2
	if g.totalEdges < 1 {
		g.totalEdges = 1
	}
}

// degreePass is the EJS degree pass over one range of nodes: with the
// flat kernel a degree is the length of the drained neighbour list, so
// it allocates nothing. It returns the range's degree sum.
func (g *graphContext) degreePass(part []profile.ID, s *neighbourScratch) int64 {
	var sum int64
	for _, id := range part {
		touched := g.neighbourhood(id, s)
		for _, other := range touched {
			s.take(other)
		}
		g.degrees[id] = int32(len(touched))
		sum += int64(len(touched))
	}
	return sum
}

// defaultTopK derives the literature defaults for the cardinality rules.
func defaultTopK(idx *blocking.Index, p Pruning) int {
	assignments := idx.Blocks.TotalAssignments()
	switch p {
	case CEP:
		k := int(assignments / 2)
		if k < 1 {
			k = 1
		}
		return k
	case CNP, ReciprocalCNP:
		n := idx.NumProfiles()
		if n == 0 {
			return 1
		}
		k := int(assignments) / n
		if k < 1 {
			k = 1
		}
		return k
	}
	return 1
}
