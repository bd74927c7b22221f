package blocking

import (
	"sync"

	"sparker/internal/kernel"
	"sparker/internal/profile"
)

// This file holds the shared scaffolding of the parallel batch passes:
// the pooled epoch-stamped mark sets the dedup passes lease. The passes
// fan out through kernel.ForRanges, whose contiguous ascending ranges
// let per-worker outputs concatenate back in sequential order — the
// property every bitwise-equivalence guarantee in this package leans on.

// markSet is a dense, epoch-stamped profile-ID membership set — the
// flat-kernel replacement of the historical map[profile.ID]bool keep sets
// and map[Pair]bool dedup maps. Clearing is Begin (O(touched)), insertion
// is Mark, lookup is Has.
type markSet = kernel.Scratch[struct{}]

// markSetPool recycles mark sets across Filter and DistinctPairs calls;
// sync.Pool is per-P sharded, so parallel workers never contend.
var markSetPool = sync.Pool{New: func() any { return new(markSet) }}

func getMarkSet(n int) *markSet {
	m := markSetPool.Get().(*markSet)
	m.Ensure(n)
	return m
}

func putMarkSet(m *markSet) { markSetPool.Put(m) }

// maxProfileID scans a block list for the largest profile ID (-1 when
// there are no assignments) — the bound the dense ID-indexed passes size
// their flat arrays to.
func maxProfileID(blocks []Block) profile.ID {
	max := profile.ID(-1)
	for i := range blocks {
		for _, id := range blocks[i].A {
			if id > max {
				max = id
			}
		}
		for _, id := range blocks[i].B {
			if id > max {
				max = id
			}
		}
	}
	return max
}
