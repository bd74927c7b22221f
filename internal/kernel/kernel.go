// Package kernel provides the flat-array scratch primitive behind the
// allocation-free hot paths: dense accumulator slots indexed by profile
// ID (the paper's IDs are dense int32s), an epoch stamp per slot so
// clearing costs O(touched) instead of O(maxID), and a touched-list that
// replaces map iteration. Meta-blocking instantiates it with its edge
// accumulator and the online index with its candidate accumulator, so
// the slot protocol (and the epoch-wrap hard-clear) lives in one place.
// Beside it sits the one range splitter of the batch passes (ForRanges),
// so every pass fans out over the same contiguous per-worker ranges.
package kernel

import (
	"slices"

	"sparker/internal/profile"
)

// Scratch is one worker's flat accumulator array. The zero value is
// usable and grows on demand; NewScratch pre-sizes it.
type Scratch[A any] struct {
	acc     []A
	stamp   []uint32
	epoch   uint32
	touched []profile.ID
}

// NewScratch sizes a scratch for profile IDs in [0, n), its touched list
// included, so a round that touches every slot appends without growing.
func NewScratch[A any](n int) *Scratch[A] {
	return &Scratch[A]{acc: make([]A, n), stamp: make([]uint32, n), touched: make([]profile.ID, 0, n)}
}

// Begin opens a new accumulation round: bumping the epoch invalidates
// every slot without writing to it.
func (s *Scratch[A]) Begin() {
	s.touched = s.touched[:0]
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: hard-clear once every 2^32 rounds
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
}

// Ensure grows the scratch to cover profile IDs in [0, n). Slots live in
// the current round survive growth: accumulators and stamps are copied.
func (s *Scratch[A]) Ensure(n int) {
	if n <= len(s.acc) {
		return
	}
	if c := 2 * len(s.acc); n < c {
		n = c
	}
	acc := make([]A, n)
	copy(acc, s.acc)
	stamp := make([]uint32, n)
	copy(stamp, s.stamp)
	s.acc, s.stamp = acc, stamp
}

// Slot returns the accumulator of id, zeroing it on first touch of the
// current round. IDs beyond the scratch's size grow it — the online
// index can see fresh profiles appear mid-scan.
func (s *Scratch[A]) Slot(id profile.ID) *A {
	if int(id) >= len(s.acc) {
		s.Ensure(int(id) + 1)
	}
	a := &s.acc[id]
	if s.stamp[id] != s.epoch {
		s.stamp[id] = s.epoch
		var zero A
		*a = zero
		s.touched = append(s.touched, id)
	}
	return a
}

// At returns the accumulator of an ID already touched this round, without
// stamp bookkeeping; use it when iterating Touched.
func (s *Scratch[A]) At(id profile.ID) *A { return &s.acc[id] }

// Mark stamps id in the current round without touching its accumulator
// value beyond zeroing it, reporting whether this was the id's first
// touch. It is the set-membership primitive of the dedup passes (block
// filtering's keep bitset, distinct-pair enumeration): Mark instead of a
// map insert, Has instead of a map lookup, Begin instead of a map clear.
func (s *Scratch[A]) Mark(id profile.ID) bool {
	if int(id) >= len(s.acc) {
		s.Ensure(int(id) + 1)
	}
	if s.stamp[id] == s.epoch {
		return false
	}
	s.stamp[id] = s.epoch
	var zero A
	s.acc[id] = zero
	s.touched = append(s.touched, id)
	return true
}

// Has reports whether id was touched (via Slot or Mark) this round.
func (s *Scratch[A]) Has(id profile.ID) bool {
	return int(id) < len(s.acc) && s.stamp[id] == s.epoch
}

// Lookup returns the accumulator of id if it was touched this round, or
// nil.
func (s *Scratch[A]) Lookup(id profile.ID) *A {
	if int(id) >= len(s.acc) || s.stamp[id] != s.epoch {
		return nil
	}
	return &s.acc[id]
}

// Touched lists the IDs accumulated this round, in first-touch order
// (or ascending after SortTouched).
func (s *Scratch[A]) Touched() []profile.ID { return s.touched }

// SortTouched orders the touched list by profile ID, for consumers that
// need a deterministic summation order (float addition is not
// associative, and sequential and distributed runs must agree bitwise).
// slices.Sort, not sort.Slice: the reflection-based comparator would
// allocate once per round, and SortTouched runs once per profile on the
// batch and query hot paths.
func (s *Scratch[A]) SortTouched() {
	slices.Sort(s.touched)
}
