package blocking

import (
	"cmp"
	"math"
	"slices"

	"sparker/internal/kernel"
	"sparker/internal/profile"
)

// DefaultFilterRatio keeps each profile in the smallest 80% of its blocks,
// i.e. removes it from the largest 20%, the setting the paper quotes.
const DefaultFilterRatio = 0.8

// Filter applies Block Filtering [10]: each profile is retained only in
// the ceil(ratio * k) smallest of the k blocks it appears in (ties broken
// by key for determinism). Blocks that lose too many profiles to keep
// producing comparisons are dropped. This raises precision with a
// negligible effect on recall because a profile's largest blocks are its
// least distinctive ones.
//
// The pass runs on dense profile IDs end to end: a counting pass lays the
// per-profile block assignments out in a CSR layout (per-profile offsets
// into one flat BlockRef array), the per-profile smallest-k selection
// runs in parallel over profiles, and the surviving memberships are
// replayed through pooled epoch-stamped keep bitsets — no
// map[profile.ID][]assignment, no []map[profile.ID]bool. Output is
// bitwise-identical to the retained map reference in reference_test.go.
func Filter(c *Collection, ratio float64) *Collection {
	if ratio <= 0 || ratio > 1 {
		ratio = DefaultFilterRatio
	}
	out := &Collection{CleanClean: c.CleanClean, NumProfiles: c.NumProfiles}
	nb := len(c.Blocks)
	if nb == 0 {
		return out
	}

	// Per-block cardinality (the ranking key), computed once.
	card := make([]int64, nb)
	total := 0
	for i := range c.Blocks {
		card[i] = c.Blocks[i].Comparisons()
		total += c.Blocks[i].Size()
	}
	maxID := maxProfileID(c.Blocks)
	if maxID < 0 {
		return out
	}
	numIDs := int(maxID) + 1
	offsets, entries := buildAssignmentCSR(c.Blocks, numIDs, total)

	// Keep pass, parallel over profiles: rank each profile's assignments
	// by (cardinality, key) through a per-worker permutation buffer and
	// mark the smallest ceil(ratio*k) as kept. kept is indexed by CSR
	// position, so workers write disjoint ranges.
	kept := make([]bool, total)
	workers := kernel.Ranges(numIDs)
	blocks := c.Blocks
	kernel.ForRanges(numIDs, workers, func(_, lo, hi int) {
		var perm []int32
		for id := lo; id < hi; id++ {
			start, end := offsets[id], offsets[id+1]
			k := int(end - start)
			if k == 0 {
				continue
			}
			perm = perm[:0]
			for j := 0; j < k; j++ {
				perm = append(perm, start+int32(j))
			}
			// slices.SortFunc, not sort.Slice: the reflection-based
			// comparator would allocate once per profile.
			slices.SortFunc(perm, func(x, y int32) int {
				ox := entries[x].Ordinal()
				oy := entries[y].Ordinal()
				if card[ox] != card[oy] {
					return cmp.Compare(card[ox], card[oy])
				}
				if blocks[ox].Key != blocks[oy].Key {
					return cmp.Compare(blocks[ox].Key, blocks[oy].Key)
				}
				return cmp.Compare(ox, oy)
			})
			limit := int(math.Ceil(ratio * float64(k)))
			if limit < 1 {
				limit = 1
			}
			for j := 0; j < limit; j++ {
				kept[perm[j]] = true
			}
		}
	})

	// Regroup the kept memberships by block (a second small CSR), so the
	// emit pass can stamp each block's keep bitset in O(kept).
	blkOff := make([]int32, nb+1)
	for j := range entries {
		if kept[j] {
			blkOff[entries[j].Ordinal()+1]++
		}
	}
	for i := 1; i <= nb; i++ {
		blkOff[i] += blkOff[i-1]
	}
	keptIDs := make([]profile.ID, blkOff[nb])
	blkCur := make([]int32, nb)
	copy(blkCur, blkOff[:nb])
	for id := 0; id < numIDs; id++ {
		for j := offsets[id]; j < offsets[id+1]; j++ {
			if kept[j] {
				ord := entries[j].Ordinal()
				keptIDs[blkCur[ord]] = profile.ID(id)
				blkCur[ord]++
			}
		}
	}

	// Emit pass, parallel over blocks: stamp the block's kept IDs into a
	// pooled epoch-stamped bitset, then walk the original member lists so
	// survivor order matches the input exactly. Each worker stages its
	// survivors into one growing buffer and carves the final [A | B]
	// member slices out of a single exact-size backing array — one
	// allocation per worker instead of one per surviving block.
	outBlocks := make([]Block, nb)
	alive := make([]bool, nb)
	kernel.ForRanges(nb, workers, func(_, lo, hi int) {
		marks := getMarkSet(numIDs)
		defer putMarkSet(marks)
		type outSeg struct {
			block, start, na, nb int32
		}
		var segs []outSeg
		var membuf []profile.ID
		for i := lo; i < hi; i++ {
			seg := keptIDs[blkOff[i]:blkOff[i+1]]
			if len(seg) < 2 {
				continue
			}
			marks.Begin()
			for _, id := range seg {
				marks.Mark(id)
			}
			b := &blocks[i]
			start := len(membuf)
			na, nb2 := 0, 0
			for _, id := range b.A {
				if marks.Has(id) {
					membuf = append(membuf, id)
					na++
				}
			}
			for _, id := range b.B {
				if marks.Has(id) {
					membuf = append(membuf, id)
					nb2++
				}
			}
			if na+nb2 < 2 || (c.CleanClean && (na == 0 || nb2 == 0)) {
				membuf = membuf[:start]
				continue
			}
			segs = append(segs, outSeg{block: int32(i), start: int32(start), na: int32(na), nb: int32(nb2)})
		}
		backing := make([]profile.ID, len(membuf))
		copy(backing, membuf)
		for _, sg := range segs {
			b := &blocks[sg.block]
			var a2, b2 []profile.ID
			if sg.na > 0 {
				a2 = backing[sg.start : sg.start+sg.na : sg.start+sg.na]
			}
			if sg.nb > 0 {
				b2 = backing[sg.start+sg.na : sg.start+sg.na+sg.nb : sg.start+sg.na+sg.nb]
			}
			outBlocks[sg.block] = Block{
				Key: b.Key, ClusterID: b.ClusterID, CleanClean: b.CleanClean, A: a2, B: b2,
			}
			alive[sg.block] = true
		}
	})

	survivors := 0
	for i := range alive {
		if alive[i] {
			survivors++
		}
	}
	out.Blocks = make([]Block, 0, survivors)
	for i := range alive {
		if alive[i] {
			out.Blocks = append(out.Blocks, outBlocks[i])
		}
	}
	return out
}

// BlockRef is one entry of Index.BlocksOf: a block ordinal packed with the
// side of the block the profile sits on (ordinal<<1 | side, side 1 meaning
// the B slice of a clean-clean block). Carrying the side bit lets the
// meta-blocking kernel pick the opposite side of every block directly
// instead of linearly scanning the block's A slice per visit.
type BlockRef int32

// MakeBlockRef packs a block ordinal and a side into a BlockRef.
func MakeBlockRef(ordinal int32, sideB bool) BlockRef {
	r := BlockRef(ordinal << 1)
	if sideB {
		r |= 1
	}
	return r
}

// Ordinal returns the block ordinal into the collection's Blocks slice.
func (r BlockRef) Ordinal() int32 { return int32(r) >> 1 }

// SideB reports whether the profile sits in the block's B slice.
func (r BlockRef) SideB() bool { return r&1 == 1 }

// Index maps every profile to the blocks it appears in after
// purging/filtering; it is the data structure the meta-blocking graph is
// materialised from (and what the parallel algorithm broadcasts). The
// layout is a CSR over dense profile IDs: one flat BlockRef backing array
// with per-profile offsets, built by a counting pass — no per-profile map
// entries or slice growth.
type Index struct {
	// Blocks is the underlying collection the ordinals refer to.
	Blocks *Collection
	// start[id] .. start[id+1] bound profile id's run in refs; IDs at or
	// beyond len(start)-1 have no blocks.
	start []int32
	// refs is the flat backing array, each profile's run ascending by
	// block ordinal.
	refs []BlockRef
	// ids lists the profiles with at least one block, ascending.
	ids []profile.ID
}

// buildAssignmentCSR lays the profile-to-block assignments of a block
// list out in CSR form: offsets[id] .. offsets[id+1] bound profile id's
// run in the flat entries array. A counting pass sizes every run, a
// prefix sum carves the backing array, and a fill pass in block order
// leaves every run ascending by block ordinal. numIDs must be
// maxProfileID+1 and total the summed block sizes (callers have both in
// hand already).
func buildAssignmentCSR(blocks []Block, numIDs, total int) (offsets []int32, entries []BlockRef) {
	if total > math.MaxInt32 {
		// The int32 offsets (like BlockRef's int32 ordinals) cap a single
		// collection at 2^31-1 assignments; wrapping would silently
		// scatter entries. Past that scale the collection must be split
		// across the dataflow engine anyway.
		panic("blocking: collection exceeds 2^31-1 block assignments")
	}
	offsets = make([]int32, numIDs+1)
	for i := range blocks {
		for _, id := range blocks[i].A {
			offsets[id+1]++
		}
		for _, id := range blocks[i].B {
			offsets[id+1]++
		}
	}
	for i := 1; i <= numIDs; i++ {
		offsets[i] += offsets[i-1]
	}
	entries = make([]BlockRef, total)
	cur := make([]int32, numIDs)
	copy(cur, offsets[:numIDs])
	for i := range blocks {
		for _, id := range blocks[i].A {
			entries[cur[id]] = MakeBlockRef(int32(i), false)
			cur[id]++
		}
		for _, id := range blocks[i].B {
			entries[cur[id]] = MakeBlockRef(int32(i), true)
			cur[id]++
		}
	}
	return offsets, entries
}

// BuildIndex constructs the profile-to-blocks index from the shared CSR
// builder.
func BuildIndex(c *Collection) *Index {
	idx := &Index{Blocks: c}
	maxID := maxProfileID(c.Blocks)
	numIDs := int(maxID) + 1
	if numIDs == 0 {
		idx.start = make([]int32, 1)
		return idx
	}
	total := 0
	for i := range c.Blocks {
		total += c.Blocks[i].Size()
	}
	idx.start, idx.refs = buildAssignmentCSR(c.Blocks, numIDs, total)
	present := 0
	for id := 0; id < numIDs; id++ {
		if idx.start[id+1] > idx.start[id] {
			present++
		}
	}
	idx.ids = make([]profile.ID, 0, present)
	for id := 0; id < numIDs; id++ {
		if idx.start[id+1] > idx.start[id] {
			idx.ids = append(idx.ids, profile.ID(id))
		}
	}
	return idx
}

// BlocksOf lists the profile's blocks as BlockRefs, ascending by block
// ordinal. The returned slice aliases the index's flat backing array and
// must be treated as read-only.
func (idx *Index) BlocksOf(id profile.ID) []BlockRef {
	if id < 0 || int(id) >= len(idx.start)-1 {
		return nil
	}
	return idx.refs[idx.start[id]:idx.start[id+1]]
}

// NumBlocksOf returns |B_p|, the number of blocks containing the profile.
func (idx *Index) NumBlocksOf(id profile.ID) int {
	if id < 0 || int(id) >= len(idx.start)-1 {
		return 0
	}
	return int(idx.start[id+1] - idx.start[id])
}

// NumProfiles returns the number of profiles that survived into the
// index (those appearing in at least one block).
func (idx *Index) NumProfiles() int { return len(idx.ids) }

// MaxProfileID returns the largest profile ID in the index, or -1 when the
// index is empty — the bound flat, ID-indexed kernels size their scratch
// arrays to.
func (idx *Index) MaxProfileID() profile.ID {
	if len(idx.ids) == 0 {
		return -1
	}
	return idx.ids[len(idx.ids)-1]
}

// ProfileIDs lists every profile that survived into the index, ascending.
// The slice is shared across calls and must be treated as read-only.
func (idx *Index) ProfileIDs() []profile.ID { return idx.ids }
