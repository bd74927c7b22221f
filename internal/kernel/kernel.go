// Package kernel provides the two flat-array primitives the batch passes
// share. MarkSet is a dense profile-ID membership set (the paper's IDs
// are dense int32s) with an epoch stamp per ID, so clearing costs O(1)
// instead of O(maxID), and a touched list that replaces map
// iteration: block filtering and distinct-pair enumeration dedup through
// it. ForRanges is the one range splitter, so every pass fans out over
// the same contiguous per-worker ranges. The pair accumulator of
// meta-blocking and the online index is metablocking.Accumulator.
package kernel

import (
	"slices"

	"sparker/internal/profile"
)

// MarkSet is one worker's dense profile-ID set. The zero value is usable
// and grows on demand.
type MarkSet struct {
	stamp   []uint32
	epoch   uint32
	touched []profile.ID
}

// Begin empties the set: bumping the epoch invalidates every stamp
// without writing to it.
func (s *MarkSet) Begin() {
	s.touched = s.touched[:0]
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: hard-clear once every 2^32 rounds
		clear(s.stamp)
		s.epoch = 1
	}
}

// Ensure grows the set to cover profile IDs in [0, n). Marks of the
// current round survive growth.
func (s *MarkSet) Ensure(n int) {
	if n <= len(s.stamp) {
		return
	}
	s.stamp = append(s.stamp, make([]uint32, max(n, 2*len(s.stamp))-len(s.stamp))...)
}

// Mark adds id to the set, reporting whether it was absent: Mark instead
// of a map insert, Has instead of a map lookup, Begin instead of a map
// clear.
func (s *MarkSet) Mark(id profile.ID) bool {
	if int(id) >= len(s.stamp) {
		s.Ensure(int(id) + 1)
	}
	if s.stamp[id] == s.epoch {
		return false
	}
	s.stamp[id] = s.epoch
	s.touched = append(s.touched, id)
	return true
}

// Has reports whether id was marked this round.
func (s *MarkSet) Has(id profile.ID) bool {
	return int(id) < len(s.stamp) && s.stamp[id] == s.epoch
}

// Touched lists the IDs marked this round, in first-mark order (or
// ascending after SortTouched).
func (s *MarkSet) Touched() []profile.ID { return s.touched }

// SortTouched orders the touched list by profile ID. slices.Sort, not
// sort.Slice: the reflection-based comparator would allocate once per
// round.
func (s *MarkSet) SortTouched() { slices.Sort(s.touched) }
