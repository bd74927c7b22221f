package blocking

import (
	"sync"

	"sparker/internal/kernel"
	"sparker/internal/profile"
)

// This file holds the shared scaffolding of the parallel batch passes:
// the pooled mark sets the dedup passes lease — kernel.MarkSet, the
// flat-kernel replacement of the historical map[profile.ID]bool keep sets
// and map[Pair]bool dedup maps. The passes fan out through
// kernel.ForRanges, whose contiguous ascending ranges let per-worker
// outputs concatenate back in sequential order — the property every
// bitwise-equivalence guarantee in this package leans on.

// markSetPool recycles mark sets across Filter and DistinctPairs calls;
// sync.Pool is per-P sharded, so parallel workers never contend.
var markSetPool = sync.Pool{New: func() any { return new(kernel.MarkSet) }}

func getMarkSet(n int) *kernel.MarkSet {
	m := markSetPool.Get().(*kernel.MarkSet)
	m.Ensure(n)
	return m
}

func putMarkSet(m *kernel.MarkSet) { markSetPool.Put(m) }

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
