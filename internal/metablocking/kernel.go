package metablocking

import (
	"slices"
	"sync"

	"sparker/internal/kernel"
)

// neighbourScratch is the flat-array neighbourhood kernel: the
// allocation-free replacement of the historical
// map of per-pair accumulators, instantiated from the shared
// kernel.Scratch primitive (dense ID-indexed slots, epoch-stamped
// O(touched) clears). One scratch serves one worker at a time: Run
// leases one per worker range, RunDistributed one per dataflow task,
// both from the graphContext's sync.Pool.
type neighbourScratch struct {
	kernel.Scratch[PairStats]
	// nws is the reusable buffer weightedNeighbours and orderedNeighbours
	// return; callers must consume it before the next call on this scratch.
	nws []neighbourWeight
	// wbuf is the reusable weight buffer of kthLargestWeight.
	wbuf []float64
	// maxima is Blast's dense per-node maximum, by profile ID, of the
	// range foldMaxima is folding.
	maxima []float64
}

// newNeighbourScratch sizes a scratch for profile IDs in [0, n).
func newNeighbourScratch(n int) *neighbourScratch {
	return &neighbourScratch{Scratch: *kernel.NewScratch[PairStats](n)}
}

// kthLargestWeight returns the k-th largest weight of a neighbourhood
// (clamped to its size), the top-k membership threshold of CNP, using the
// scratch's reusable weight buffer.
func (s *neighbourScratch) kthLargestWeight(nws []neighbourWeight, k int) float64 {
	weights := s.wbuf[:0]
	for _, nw := range nws {
		weights = append(weights, nw.w)
	}
	slices.Sort(weights)
	s.wbuf = weights
	if k > len(weights) {
		k = len(weights)
	}
	return weights[len(weights)-k]
}

// scratchPool hands out neighbourScratches sized for one graphContext.
type scratchPool struct {
	n    int
	pool sync.Pool
}

func (p *scratchPool) get() *neighbourScratch {
	if s, ok := p.pool.Get().(*neighbourScratch); ok {
		return s
	}
	return newNeighbourScratch(p.n)
}

func (p *scratchPool) put(s *neighbourScratch) { p.pool.Put(s) }
