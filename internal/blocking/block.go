// Package blocking implements the block-construction half of the SparkER
// blocker (Figure 4 of the paper): schema-agnostic token blocking,
// loose-schema token blocking (tokens qualified by attribute-cluster IDs),
// block purging, and block filtering — each in a sequential form and a
// distributed form on the dataflow engine.
package blocking

import (
	"fmt"
	"sort"

	"sparker/internal/kernel"
	"sparker/internal/profile"
)

// NoCluster marks blocks produced without loose-schema information.
const NoCluster = -1

// Block is one blocking-key bucket. For clean-clean tasks A holds profiles
// of the first source and B of the second; for dirty tasks all profiles
// are in A and CleanClean is false.
type Block struct {
	Key        string
	ClusterID  int // attribute-cluster that generated the key, or NoCluster
	CleanClean bool
	A          []profile.ID
	B          []profile.ID
}

// Comparisons returns the number of profile comparisons the block entails.
func (b *Block) Comparisons() int64 {
	if b.CleanClean {
		return int64(len(b.A)) * int64(len(b.B))
	}
	n := int64(len(b.A))
	return n * (n - 1) / 2
}

// Size returns the number of profiles in the block.
func (b *Block) Size() int { return len(b.A) + len(b.B) }

// Collection is an ordered set of blocks plus task metadata.
type Collection struct {
	Blocks     []Block
	CleanClean bool
	// NumProfiles is the profile-universe size the blocks were built from,
	// needed by purging and by weight schemes.
	NumProfiles int
}

// NumBlocks returns the number of blocks.
func (c *Collection) NumBlocks() int { return len(c.Blocks) }

// TotalComparisons sums the comparison cardinality of every block
// (duplicate pairs across blocks counted repeatedly, as in the
// meta-blocking literature's "aggregate cardinality").
func (c *Collection) TotalComparisons() int64 {
	var total int64
	for i := range c.Blocks {
		total += c.Blocks[i].Comparisons()
	}
	return total
}

// TotalAssignments sums block sizes (the number of profile-to-block
// placements), the "BC" quantity of the meta-blocking literature.
func (c *Collection) TotalAssignments() int64 {
	var total int64
	for i := range c.Blocks {
		total += int64(c.Blocks[i].Size())
	}
	return total
}

// Pair is an unordered candidate comparison (A < B by convention for dirty
// tasks; A from source 0 and B from source 1 for clean-clean tasks).
type Pair struct {
	A, B profile.ID
}

// Canonical orders a dirty-task pair so that A < B.
func (p Pair) Canonical() Pair {
	if p.B < p.A {
		return Pair{A: p.B, B: p.A}
	}
	return p
}

// DistinctPairs enumerates the de-duplicated candidate pairs implied by
// the blocks, in ascending (A, B) order. This is the candidate set whose
// recall/precision the demo GUI reports after the blocking step.
//
// Deduplication runs through the flat epoch-stamped kernel scratch
// instead of a map[Pair]bool: a throwaway CSR index carves each profile's
// block list, then parallel workers enumerate each profile's distinct
// neighbourhood in one stamped round per profile (dirty pairs from their
// smaller endpoint, clean pairs from their A-side endpoint) and emit it
// sorted. Worker ranges are contiguous, so concatenating worker outputs
// yields the globally sorted pair list deterministically.
func (c *Collection) DistinctPairs() []Pair {
	idx := BuildIndex(c)
	ids := idx.ProfileIDs()
	if len(ids) == 0 {
		return nil
	}
	bound := int(idx.MaxProfileID()) + 1
	workers := kernel.Ranges(len(ids))
	parts := make([][]Pair, workers)
	kernel.ForRanges(len(ids), workers, func(w, lo, hi int) {
		marks := getMarkSet(bound)
		defer putMarkSet(marks)
		var out []Pair
		for _, id := range ids[lo:hi] {
			marks.Begin()
			for _, ref := range idx.BlocksOf(id) {
				b := &c.Blocks[ref.Ordinal()]
				if c.CleanClean {
					if ref.SideB() {
						continue
					}
					for _, o := range b.B {
						marks.Mark(o)
					}
				} else {
					for _, o := range b.A {
						if o > id {
							marks.Mark(o)
						}
					}
				}
			}
			marks.SortTouched()
			for _, o := range marks.Touched() {
				out = append(out, Pair{A: id, B: o})
			}
		}
		parts[w] = out
	})
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]Pair, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Stats summarises a block collection for debug displays.
type Stats struct {
	NumBlocks        int
	TotalComparisons int64
	TotalAssignments int64
	MaxBlockSize     int
	AvgBlockSize     float64
}

// ComputeStats derives summary statistics.
func (c *Collection) ComputeStats() Stats {
	s := Stats{NumBlocks: len(c.Blocks)}
	for i := range c.Blocks {
		b := &c.Blocks[i]
		s.TotalComparisons += b.Comparisons()
		s.TotalAssignments += int64(b.Size())
		if b.Size() > s.MaxBlockSize {
			s.MaxBlockSize = b.Size()
		}
	}
	if len(c.Blocks) > 0 {
		s.AvgBlockSize = float64(s.TotalAssignments) / float64(len(c.Blocks))
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("blocks=%d comparisons=%d assignments=%d maxSize=%d avgSize=%.1f",
		s.NumBlocks, s.TotalComparisons, s.TotalAssignments, s.MaxBlockSize, s.AvgBlockSize)
}

// sortBlocks orders blocks by key for deterministic output.
func sortBlocks(blocks []Block) {
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].ClusterID != blocks[j].ClusterID {
			return blocks[i].ClusterID < blocks[j].ClusterID
		}
		return blocks[i].Key < blocks[j].Key
	})
}
