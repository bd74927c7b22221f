package index

// The binary shard partial: what a shard answers a coordinator's
// /v1/query in place of JSON. The coordinator and its shards are one
// build, so the frame carries exactly what the coordinator reads — the
// mergeable Partial, the shard's degradation level and its per-stage
// timings — and nothing it would have to parse by name.
//
// Layout (uvarints unless noted, every one minimally encoded):
//
//	version byte (partialVersion)
//	keys, blocks_probed, blocks_purged, blocks_filtered,
//	  postings_scanned, pruned, comparisons
//	degradation level
//	truncated byte (0 or 1), truncation stage byte (0 unless truncated)
//	NumStages stage nanos
//	candidate count, then per candidate:
//	  original ID (length-prefixed), source,
//	  weight (float64 bits, 8 bytes little-endian), shared keys
//	match count, then per match:
//	  original ID (length-prefixed), source,
//	  score (float64 bits, 8 bytes little-endian)
//
// A frame has one encoding: DecodePartial accepts only what
// AppendPartial writes, so every accepted frame re-encodes to its own
// bytes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// partialVersion is the frame's first byte.
const partialVersion = 1

// Minimum encoded sizes of one candidate and one match (one-byte ID
// length, source and shared keys, eight-byte float): a count the rest of
// the frame cannot hold fails before anything is sized from it.
const (
	minCandidateBytes = 1 + 1 + 8 + 1
	minMatchBytes     = 1 + 1 + 8
)

var (
	errPartialVersion      = errors.New("partial: not a version-1 frame")
	errPartialShort        = errors.New("partial: frame ends early")
	errPartialStage        = errors.New("partial: truncation stage out of range")
	errPartialTrailing     = errors.New("partial: trailing bytes after the frame")
	errPartialNonCanonical = errors.New("partial: value not in canonical form")
	errPartialRange        = errors.New("partial: value out of range")
)

// ShardAnswer is one decoded shard frame: the mergeable Partial plus
// what only the coordinator reads — the level of the shard's
// degradation ladder the query was served at and its per-stage wall
// times.
type ShardAnswer struct {
	Partial
	Level      int
	StageNanos [NumStages]int64
}

// AppendPartial appends r's frame, answered at degradation level
// level, to dst and returns the extended slice.
func AppendPartial(dst []byte, r *Resolution, level int) []byte {
	q := r.Query
	dst = append(dst, partialVersion)
	for _, v := range [...]int{q.Keys, q.BlocksProbed, q.BlocksPurged, q.BlocksFiltered,
		q.PostingsScanned, q.Pruned, r.Comparisons, level} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	var truncated, stage byte
	if q.Truncated {
		s, _ := StageByName(q.TruncatedStage)
		truncated, stage = 1, byte(s)
	}
	dst = append(dst, truncated, stage)
	for _, n := range q.StageNanos {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	dst = binary.AppendUvarint(dst, uint64(len(q.Candidates)))
	for i, c := range q.Candidates {
		dst = appendIdentity(dst, r.CandidateIdentities[i])
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Weight))
		dst = binary.AppendUvarint(dst, uint64(c.SharedKeys))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Matches)))
	for i, m := range r.Matches {
		dst = appendIdentity(dst, r.MatchIdentities[i])
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Score))
	}
	return dst
}

func appendIdentity(dst []byte, who Identity) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(who.OriginalID)))
	dst = append(dst, who.OriginalID...)
	return binary.AppendUvarint(dst, uint64(who.SourceID))
}

// DecodePartial decodes one shard frame. Every length and count is
// checked against the bytes left before it is used; a frame with the
// wrong version byte, one that ends early, an out-of-range stage, a
// value in a non-canonical encoding or bytes after its last match is
// refused. Every original ID is a substring of one copy of the frame,
// so the answer holds no reference to frame.
func DecodePartial(frame []byte) (*ShardAnswer, error) {
	if len(frame) == 0 || frame[0] != partialVersion {
		return nil, errPartialVersion
	}
	d := partialDecoder{cursor: cursor{b: frame, s: string(frame), off: 1}}
	a := &ShardAnswer{}
	p := &a.Partial
	for _, v := range [...]*int{&p.Keys, &p.BlocksProbed, &p.BlocksPurged, &p.BlocksFiltered,
		&p.PostingsScanned, &p.Pruned, &p.Comparisons, &a.Level} {
		*v = d.int()
	}
	truncated, stage := d.byte(), d.byte()
	switch {
	case d.err != nil:
	case truncated > 1:
		d.err = errPartialNonCanonical
	case int(stage) >= NumStages:
		d.err = errPartialStage
	case truncated == 0 && stage != 0:
		d.err = errPartialNonCanonical
	case truncated == 1:
		p.Truncated, p.TruncatedStage = true, Stage(stage).String()
	}
	for s := range a.StageNanos {
		a.StageNanos[s] = int64(d.uint(math.MaxInt64))
	}
	if n := d.count(minCandidateBytes); n > 0 {
		p.Candidates = make([]PartialCandidate, n)
		for i := range p.Candidates {
			c := &p.Candidates[i]
			c.OriginalID, c.Source = d.identity()
			c.Weight = d.float()
			c.SharedKeys = d.int()
		}
	}
	if n := d.count(minMatchBytes); n > 0 {
		p.Matches = make([]PartialMatch, n)
		for i := range p.Matches {
			m := &p.Matches[i]
			m.OriginalID, m.Source = d.identity()
			m.Score = d.float()
		}
	}
	if d.err == nil && d.rest() != 0 {
		d.err = errPartialTrailing
	}
	if d.err != nil {
		return nil, d.err
	}
	return a, nil
}

// partialDecoder walks a frame and keeps the first error: once it is
// set every read returns zero, so DecodePartial reads field after field
// and checks once.
type partialDecoder struct {
	cursor
	err error
}

func (d *partialDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.rest() == 0 {
		d.err = errPartialShort
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// uint reads a minimally encoded uvarint no larger than limit.
func (d *partialDecoder) uint(limit uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n == 0:
		d.err = errPartialShort
	case n < 0, v > limit:
		d.err = errPartialRange
	case n > 1 && d.b[d.off+n-1] == 0:
		d.err = errPartialNonCanonical
	default:
		d.off += n
		return v
	}
	return 0
}

func (d *partialDecoder) int() int { return int(d.uint(math.MaxInt)) }

// count reads an item count that the rest of the frame can hold at
// itemBytes per item.
func (d *partialDecoder) count(itemBytes int) int {
	n := d.int()
	if d.err == nil && n > d.rest()/itemBytes {
		d.err = fmt.Errorf("%w: %d items in %d bytes", errPartialShort, n, d.rest())
		return 0
	}
	return n
}

func (d *partialDecoder) identity() (string, int) {
	n := d.int()
	if d.err == nil && n > d.rest() {
		d.err = errPartialShort
	}
	if d.err != nil {
		return "", 0
	}
	id := d.s[d.off : d.off+n]
	d.off += n
	return id, d.int()
}

func (d *partialDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.rest() < 8 {
		d.err = errPartialShort
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}
