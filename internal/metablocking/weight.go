package metablocking

import "math"

// PairStats gathers the per-pair co-occurrence statistics a weight scheme
// needs. The batch neighbourhood kernel and the online index's candidate
// scan fill one per touched profile, through Add; Weight reads it.
type PairStats struct {
	CBS         int32   // number of shared blocks
	ARCS        float64 // Σ 1/||b|| over shared blocks
	EntropySum  float64 // Σ entropy(cluster(b)) over shared blocks
	EntropyARCS float64 // Σ entropy/||b||
}

// Contribution is what one shared block adds to a pair's statistics.
type Contribution struct {
	entropy, arcs, entropyARCS float64
}

// BlockContribution derives a block's contribution from its cluster
// entropy (1 when entropy weighting is off) and its comparison
// cardinality, once per block rather than once per member.
func BlockContribution(entropy, comparisons float64) Contribution {
	return Contribution{entropy: entropy, arcs: 1 / comparisons, entropyARCS: entropy / comparisons}
}

// Add records one more shared block.
func (st *PairStats) Add(c Contribution) {
	st.CBS++
	st.ARCS += c.arcs
	st.EntropySum += c.entropy
	st.EntropyARCS += c.entropyARCS
}

// Weight computes the scheme weight of one edge from its statistics: the
// only place a scheme is turned into arithmetic, shared by the batch
// graph (graphContext.weight, so Run, RunDistributed, Explain and
// Schedule) and the online index's query path. blocksA and blocksB are
// the endpoints' block counts |B_a| and |B_b|, numBlocks the block total;
// degreeFactor is the EJS node-degree factor
// LogRatio(|E|, deg a) · LogRatio(|E|, deg b), ignored by every other
// scheme. With entropy enabled, counting schemes replace each shared
// block's unit contribution with the block's cluster entropy, and ratio
// schemes are scaled by the mean entropy of the shared blocks — this is
// the re-weighting Figure 2(c) shows.
func Weight(scheme Scheme, st *PairStats, useEntropy bool, blocksA, blocksB int, numBlocks, degreeFactor float64) float64 {
	cbs := float64(st.CBS)
	if cbs == 0 {
		return 0
	}
	var w float64
	switch scheme {
	case CBS:
		if useEntropy {
			return st.EntropySum
		}
		return cbs
	case ARCS:
		if useEntropy {
			return st.EntropyARCS
		}
		return st.ARCS
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
		w *= st.EntropySum / cbs
	}
	return w
}

// ReadsEndpoints reports whether Weight reads the endpoints' block counts
// (and, for EJS, degree factor) under the scheme, or only the pair's own
// statistics: callers skip the per-endpoint lookups for CBS and ARCS.
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
