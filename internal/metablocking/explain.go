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
	// ThresholdA and ThresholdB are the endpoints' pruning thresholds
	// (meaningful for node-centric rules; zero for cardinality rules).
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

// Explain reconstructs the meta-blocking decision for one pair. It
// supports the node-threshold rules (WNP, reciprocal WNP, Blast) — the
// rules the pipeline defaults to; for other rules the thresholds are
// reported as zero and Retained reflects weight > 0 only.
func Explain(idx *blocking.Index, opts Options, a, b profile.ID) PairExplanation {
	ids := idx.ProfileIDs()
	g := newGraphContext(idx, opts)
	if needsDegrees(opts.Scheme) {
		g.computeDegrees(ids)
	}
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

	// Weight via the edge accumulator of a's neighbourhood.
	s := g.scratch.get()
	defer g.scratch.put(s)
	g.neighbourhood(a, s)
	ea := s.Lookup(b)
	if ea == nil {
		return out
	}
	out.Weight = g.weight(a, b, ea)

	switch opts.Pruning {
	case WNP, ReciprocalWNP, BlastPruning:
		blast := opts.Pruning == BlastPruning
		out.ThresholdA = nodeThreshold(g.thresholdNeighbours(a, s, blast), blast)
		out.ThresholdB = nodeThreshold(g.thresholdNeighbours(b, s, blast), blast)
		okA := out.Weight >= out.ThresholdA
		okB := out.Weight >= out.ThresholdB
		if opts.Pruning == ReciprocalWNP {
			out.Retained = okA && okB
		} else {
			out.Retained = okA || okB
		}
	default:
		out.Retained = out.Weight > 0
	}
	return out
}
