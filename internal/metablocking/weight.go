package metablocking

import "math"

// PairStats gathers the per-pair co-occurrence statistics a weight scheme
// needs: the number of shared blocks, and the sum of the one per-block
// contribution the scheme reads (BlockContribution). The batch
// neighbourhood kernel and the online index's candidate scan fill one per
// touched profile, through Accumulator; Weight reads it.
type PairStats struct {
	CBS int32   // number of shared blocks; 0 marks an untouched slot
	Sum float64 // Σ BlockContribution over shared blocks
}

// BlockContribution is what one shared block adds to a pair's Sum under
// the scheme, derived once per block rather than once per member: ARCS
// sums entropy/‖b‖, every other scheme sums the block's cluster entropy.
// With entropy weighting off the entropy is 1, so CBS sums ones (exact in
// float64) and ARCS sums 1/‖b‖.
func BlockContribution(scheme Scheme, useEntropy bool, entropy, comparisons float64) float64 {
	if !useEntropy {
		entropy = 1
	}
	if scheme == ARCS {
		return entropy / comparisons
	}
	return entropy
}

// Weight computes the scheme weight of one edge from its statistics: the
// only place a scheme is turned into arithmetic, shared by the batch
// graph (graphContext.weight, so Run, RunDistributed, Explain and
// Schedule) and the online index's query path. blocksA and blocksB are
// the endpoints' block counts |B_a| and |B_b|, numBlocks the block total;
// degreeFactor is the EJS node-degree factor
// LogRatio(|E|, deg a) · LogRatio(|E|, deg b), ignored by every other
// scheme. CBS and ARCS are their Sum. With entropy enabled, the ratio
// schemes are scaled by the mean entropy of the shared blocks, Sum/CBS —
// this is the re-weighting Figure 2(c) shows.
func Weight(scheme Scheme, st *PairStats, useEntropy bool, blocksA, blocksB int, numBlocks, degreeFactor float64) float64 {
	cbs := float64(st.CBS)
	if cbs == 0 {
		return 0
	}
	var w float64
	switch scheme {
	case CBS, ARCS:
		return st.Sum
	case ECBS:
		w = cbs * LogRatio(numBlocks, float64(blocksA)) * LogRatio(numBlocks, float64(blocksB))
	case JS, EJS:
		union := float64(blocksA) + float64(blocksB) - cbs
		if union <= 0 {
			return 0
		}
		w = cbs / union
		if scheme == EJS {
			w *= degreeFactor
		}
	default:
		return 0
	}
	if useEntropy {
		w *= st.Sum / cbs
	}
	return w
}

// ReadsEndpoints reports whether Weight reads the endpoints' block counts
// (and, for EJS, degree factor) under the scheme, or only the pair's own
// statistics: callers skip the per-endpoint lookups for CBS and ARCS,
// whose weight is the pair's Sum.
func (s Scheme) ReadsEndpoints() bool { return s == ECBS || s == JS || s == EJS }

// LogRatio is the clamped log10(total/part) factor of the ECBS and EJS
// schemes.
func LogRatio(total, part float64) float64 {
	if part <= 0 || total <= 0 {
		return 0
	}
	v := math.Log10(total / part)
	if v < 0 {
		return 0
	}
	return v
}
