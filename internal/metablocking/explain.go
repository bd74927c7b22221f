package metablocking

import (
	"sort"

	"sparker/internal/blocking"
	"sparker/internal/profile"
)

// PairExplanation is the meta-blocking debug view for one comparison: the
// blocks the two profiles share, the resulting edge weight, and the
// per-endpoint thresholds that decide its fate — what the GUI shows when
// the user asks why a pair was kept or pruned (Figure 6(e) debugging).
type PairExplanation struct {
	A, B profile.ID
	// CommonBlocks lists the shared blocks' keys with the entropy each
	// contributed to the weight.
	CommonBlocks []CommonBlock
	// Weight under the explanation's options.
	Weight float64
	// ThresholdA and ThresholdB are the thresholds the weight was held
	// against: the endpoints' own under the node-centric rules (the mean,
	// Blast's half maximum, CNP's k-th largest weight), the graph-wide
	// one in both fields under WEP and CEP.
	ThresholdA, ThresholdB float64
	// Retained reports the pruning decision under the options' rule.
	Retained bool
}

// CommonBlock is one block shared by the explained pair.
type CommonBlock struct {
	Key       string
	ClusterID int
	Entropy   float64 // 1 when entropy weighting is off
	Size      int
}

// Explain reconstructs the meta-blocking decision for one pair, under
// any scheme and rule: it asks the plan Run executes, so Retained is
// membership in Run's edges.
func Explain(idx *blocking.Index, opts Options, a, b profile.ID) PairExplanation {
	p := newPlan(idx, opts)
	g := p.g
	if b < a {
		a, b = b, a
	}
	out := PairExplanation{A: a, B: b}

	// Shared blocks.
	inA := map[int32]bool{}
	for _, ref := range idx.BlocksOf(a) {
		inA[ref.Ordinal()] = true
	}
	for _, ref := range idx.BlocksOf(b) {
		bi := ref.Ordinal()
		if !inA[bi] {
			continue
		}
		blk := &idx.Blocks.Blocks[bi]
		out.CommonBlocks = append(out.CommonBlocks, CommonBlock{
			Key:       blk.Key,
			ClusterID: blk.ClusterID,
			Entropy:   g.entropy[bi],
			Size:      blk.Size(),
		})
	}
	sort.Slice(out.CommonBlocks, func(i, j int) bool {
		return out.CommonBlocks[i].Key < out.CommonBlocks[j].Key
	})
	if len(out.CommonBlocks) == 0 {
		return out
	}

	// Weight via the edge accumulator of a's neighbourhood: a round that
	// reads one slot and does not drain, so the next Begin zeroes it.
	s := g.scratch.get()
	defer g.scratch.put(s)
	g.accumulate(a, s)
	ea := s.Lookup(b)
	if ea == nil {
		return out
	}
	out.Weight = g.weight(a, b, ea)

	// WNP and CNP read the two endpoints' neighbourhoods only; a
	// graph-wide threshold or Blast's folded maxima need pass 1 over the
	// whole graph.
	nodes := []profile.ID{a, b}
	if p.walksOwners() {
		nodes = p.statNodes()
	}
	k := p.decide(p.stats(nodes, s))
	out.ThresholdA, out.ThresholdB = k.thresholds(a, b)
	out.Retained = k.edge(a, b, out.Weight)
	return out
}
