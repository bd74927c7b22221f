package metablocking

import (
	"slices"
	"sync"

	"sparker/internal/profile"
)

// Accumulator is the flat pair-statistics kernel of both meta-blocking
// hot paths, the batch neighbourhood pass and the online index's
// candidate scan: a dense PairStats slot per profile ID (the paper's IDs
// are dense int32s) and a touched list that replaces map iteration. A
// slot with CBS == 0 is untouched, so no stamp is kept. A round ends in
// one of two ways. Either the next Begin zeroes the slots the round
// touched, which costs O(touched), not O(maxID): the online index's
// rounds and Explain's Lookup end so. Or a draining read takes every
// touched slot, clearing it as it reads it, and hands the list back
// empty, so the next Begin has nothing to zero: every batch pass ends
// its rounds so (graphContext.neighbourhood). The zero value is usable
// and grows on demand.
type Accumulator struct {
	stats   []PairStats
	touched []profile.ID
}

// Begin opens a new accumulation round.
func (a *Accumulator) Begin() {
	for _, id := range a.touched {
		a.stats[id] = PairStats{}
	}
	a.touched = a.touched[:0]
}

// Ensure grows the accumulator to cover profile IDs in [0, n). Slots of
// the current round survive growth.
func (a *Accumulator) Ensure(n int) {
	if n <= len(a.stats) {
		return
	}
	a.stats = append(a.stats, make([]PairStats, max(n, 2*len(a.stats))-len(a.stats))...)
}

// AddBlock records one shared block, whose contribution is sum, for every
// member but self. IDs beyond the accumulator's size grow it — the online
// index can see fresh profiles appear mid-scan. A first touch costs no
// branch: the touched list is grown once per block, every member is
// stored into its next slot, and the length advances only past a slot
// that was untouched.
func (a *Accumulator) AddBlock(members []profile.ID, self profile.ID, sum float64) {
	stats, n := a.stats, len(a.touched)
	touched := slices.Grow(a.touched, len(members))
	touched = touched[:n+len(members)]
	for _, id := range members {
		if id == self {
			continue
		}
		if int(id) >= len(stats) {
			a.Ensure(int(id) + 1)
			stats = a.stats
		}
		st := &stats[id]
		touched[n] = id
		n += b2i(st.CBS == 0)
		st.CBS++
		st.Sum += sum
	}
	a.touched = touched[:n]
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// At returns the statistics of an ID touched this round; use it when
// iterating Touched.
func (a *Accumulator) At(id profile.ID) *PairStats { return &a.stats[id] }

// Lookup returns the statistics of id if it was touched this round, or
// nil.
func (a *Accumulator) Lookup(id profile.ID) *PairStats {
	if int(id) >= len(a.stats) || a.stats[id].CBS == 0 {
		return nil
	}
	return &a.stats[id]
}

// Touched lists the IDs accumulated this round, in first-touch order.
func (a *Accumulator) Touched() []profile.ID { return a.touched }

// drain ends the round on the reader's side: it hands over the touched
// list and empties the accumulator's, so the reader must take every slot
// in it before the next round (the list aliases the accumulator's
// buffer, which the next AddBlock overwrites).
func (a *Accumulator) drain() []profile.ID {
	touched := a.touched
	a.touched = touched[:0]
	return touched
}

// take is the draining read of one touched slot: its statistics, with
// the slot cleared.
func (a *Accumulator) take(id profile.ID) PairStats {
	st := a.stats[id]
	a.stats[id] = PairStats{}
	return st
}

// neighbourScratch is one worker's neighbourhood kernel: the pair
// accumulator plus the reusable buffers of the passes that read it. One
// scratch serves one worker at a time: Run leases one per worker range,
// RunDistributed one per dataflow task, both from the graphContext's
// sync.Pool.
type neighbourScratch struct {
	Accumulator
	// nws is the reusable buffer weightedNeighbours and orderedNeighbours
	// return; callers must consume it before the next call on this scratch.
	nws []neighbourWeight
	// wbuf is the reusable weight buffer of kthLargestWeight.
	wbuf []float64
	// maxima is Blast's dense per-node maximum, by profile ID, of the
	// range foldMaxima is folding.
	maxima []float64
}

// newNeighbourScratch sizes a scratch for profile IDs in [0, n), its
// touched list included, so a round that touches every slot appends
// without growing.
func newNeighbourScratch(n int) *neighbourScratch {
	return &neighbourScratch{Accumulator: Accumulator{stats: make([]PairStats, n), touched: make([]profile.ID, 0, n)}}
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
