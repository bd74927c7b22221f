package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"sparker/internal/matching"
	"sparker/internal/profile"
)

// partialTestIndex is a clean-clean index whose IDs include non-ASCII
// text, queried from either source so candidates of both sources occur.
func partialTestIndex(t testing.TB) *Index {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MetaBlocking = false
	cfg.FilterRatio = 1
	cfg.PurgeFactor = 1
	cfg.MatchThreshold = 0.1
	x := New(true, cfg)
	for _, p := range []profile.Profile{
		{OriginalID: "a-ünï", SourceID: 0, Attributes: []profile.KeyValue{{Key: "name", Value: "alpha beta gamma delta"}}},
		{OriginalID: "a2", SourceID: 0, Attributes: []profile.KeyValue{{Key: "name", Value: "alpha beta zulu"}}},
		{OriginalID: "b-日本", SourceID: 1, Attributes: []profile.KeyValue{{Key: "name", Value: "alpha beta gamma"}}},
		{OriginalID: "b2", SourceID: 1, Attributes: []profile.KeyValue{{Key: "name", Value: "alpha yankee"}}},
		{OriginalID: "b3", SourceID: 1, Attributes: []profile.KeyValue{{Key: "name", Value: "beta gamma delta xray"}}},
	} {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

func partialQuery(source int, text string) *profile.Profile {
	return &profile.Profile{OriginalID: "q", SourceID: source, Attributes: []profile.KeyValue{{Key: "name", Value: text}}}
}

// wantPartial is the Partial a shard's JSON answer carried for r: the
// reference the frame must reproduce field for field.
func wantPartial(r *Resolution) Partial {
	q := r.Query
	p := Partial{
		Keys: q.Keys, BlocksProbed: q.BlocksProbed, BlocksPurged: q.BlocksPurged,
		BlocksFiltered: q.BlocksFiltered, PostingsScanned: q.PostingsScanned,
		Pruned: q.Pruned, Comparisons: r.Comparisons,
		Truncated: q.Truncated, TruncatedStage: q.TruncatedStage,
	}
	for i, c := range q.Candidates {
		who := r.CandidateIdentities[i]
		p.Candidates = append(p.Candidates, PartialCandidate{OriginalID: who.OriginalID, Source: who.SourceID, Weight: c.Weight, SharedKeys: c.SharedKeys})
	}
	for i, m := range r.Matches {
		who := r.MatchIdentities[i]
		p.Matches = append(p.Matches, PartialMatch{OriginalID: who.OriginalID, Source: who.SourceID, Score: m.Score})
	}
	return p
}

// resolutionOf rebuilds a Resolution that encodes to a's frame: the
// fuzzer's way back from a decoded frame to the encoder's input.
func resolutionOf(a *ShardAnswer) *Resolution {
	q := &QueryResult{
		Keys: a.Keys, BlocksProbed: a.BlocksProbed, BlocksPurged: a.BlocksPurged,
		BlocksFiltered: a.BlocksFiltered, PostingsScanned: a.PostingsScanned,
		Pruned: a.Pruned, StageNanos: a.StageNanos,
		Truncated: a.Truncated, TruncatedStage: a.TruncatedStage,
	}
	r := &Resolution{Query: q, Comparisons: a.Comparisons}
	for _, c := range a.Candidates {
		q.Candidates = append(q.Candidates, Candidate{Weight: c.Weight, SharedKeys: c.SharedKeys})
		r.CandidateIdentities = append(r.CandidateIdentities, Identity{OriginalID: c.OriginalID, SourceID: c.Source})
	}
	for _, m := range a.Matches {
		r.Matches = append(r.Matches, matching.Match{Score: m.Score})
		r.MatchIdentities = append(r.MatchIdentities, Identity{OriginalID: m.OriginalID, SourceID: m.Source})
	}
	return r
}

// samePartial compares two Partials with weights and scores by their
// bits, so a rounding anywhere on the way fails.
func samePartial(t *testing.T, what string, got, want Partial) {
	t.Helper()
	gc, wc := got.Candidates, want.Candidates
	gm, wm := got.Matches, want.Matches
	got.Candidates, want.Candidates, got.Matches, want.Matches = nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: counters\n got %+v\nwant %+v", what, got, want)
	}
	if len(gc) != len(wc) || len(gm) != len(wm) {
		t.Fatalf("%s: %d candidates / %d matches, want %d / %d", what, len(gc), len(gm), len(wc), len(wm))
	}
	for i := range gc {
		g, w := gc[i], wc[i]
		if g.OriginalID != w.OriginalID || g.Source != w.Source || g.SharedKeys != w.SharedKeys ||
			math.Float64bits(g.Weight) != math.Float64bits(w.Weight) {
			t.Errorf("%s: candidate %d = %+v, want %+v", what, i, g, w)
		}
	}
	for i := range gm {
		g, w := gm[i], wm[i]
		if g.OriginalID != w.OriginalID || g.Source != w.Source || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Errorf("%s: match %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestPartialRoundTrip decodes frames of real resolutions back to the
// Partial, level and stage timings they were encoded from, bit for bit,
// and re-encodes each to the same bytes.
func TestPartialRoundTrip(t *testing.T) {
	x := partialTestIndex(t)
	cases := []struct {
		name  string
		q     *profile.Profile
		opts  ResolveOptions
		level int
		check func(*Resolution) bool
	}{
		{"source 0 finds source 1", partialQuery(0, "alpha beta gamma delta"), ResolveOptions{}, 0,
			func(r *Resolution) bool { return len(r.Matches) > 1 && r.CandidateIdentities[0].SourceID == 1 }},
		{"source 1 finds source 0", partialQuery(1, "alpha beta gamma delta"), ResolveOptions{}, 2,
			func(r *Resolution) bool { return len(r.Matches) > 0 && r.CandidateIdentities[0].SourceID == 0 }},
		{"budget-truncated", partialQuery(0, "alpha beta gamma delta"), ResolveOptions{Budget: Budget{MaxComparisons: 1}}, 3,
			func(r *Resolution) bool { return r.Query.Truncated && r.Query.TruncatedStage == "score" }},
		{"no candidates", partialQuery(0, "nothing shared here"), ResolveOptions{}, 1,
			func(r *Resolution) bool { return len(r.Query.Candidates) == 0 && r.Query.Keys > 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := x.ResolveWithOptions(tc.q, tc.opts)
			if !tc.check(res) {
				t.Fatalf("resolution does not exercise the case: %+v", wantPartial(res))
			}
			frame := AppendPartial([]byte("prefix"), res, tc.level)[len("prefix"):]
			a, err := DecodePartial(frame)
			if err != nil {
				t.Fatal(err)
			}
			samePartial(t, tc.name, a.Partial, wantPartial(res))
			if a.Level != tc.level || a.StageNanos != res.Query.StageNanos {
				t.Errorf("level %d stages %v, want %d %v", a.Level, a.StageNanos, tc.level, res.Query.StageNanos)
			}
			if again := AppendPartial(nil, resolutionOf(a), a.Level); !bytes.Equal(again, frame) {
				t.Errorf("re-encoded frame differs:\n got %x\nwant %x", again, frame)
			}
		})
	}
}

// TestDecodePartialRefusesMalformed pins each refusal to its named
// error.
func TestDecodePartialRefusesMalformed(t *testing.T) {
	x := partialTestIndex(t)
	valid := AppendPartial(nil, x.Resolve(partialQuery(0, "alpha beta gamma delta")), 0)
	// An empty frame is the version byte and one zero byte per field:
	// offset 9 holds the truncated flag, 10 the stage.
	empty := AppendPartial(nil, &Resolution{Query: &QueryResult{}}, 0)
	header := emptyHeader()
	withCount := func(n uint64) []byte {
		return binary.AppendUvarint(append([]byte(nil), header...), n)
	}
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, errPartialVersion},
		{"JSON", []byte(`{}`), errPartialVersion},
		{"next version", append([]byte{partialVersion + 1}, valid[1:]...), errPartialVersion},
		{"cut short", valid[:len(valid)-3], errPartialShort},
		{"header only", header, errPartialShort},
		{"trailing byte", append(append([]byte(nil), valid...), 0), errPartialTrailing},
		{"count beyond frame", withCount(1 << 40), errPartialShort},
		{"count beyond int", withCount(math.MaxUint64), errPartialRange},
		{"stage out of range", patch(empty, 9, 1, byte(NumStages)), errPartialStage},
		{"truncated flag 2", patch(empty, 9, 2), errPartialNonCanonical},
		{"stage without truncation", patch(empty, 10, 2), errPartialNonCanonical},
		{"padded uvarint", append([]byte{partialVersion, 0x80, 0x00}, empty[2:]...), errPartialNonCanonical},
	}
	for _, tc := range cases {
		a, err := DecodePartial(tc.frame)
		if !errors.Is(err, tc.want) || a != nil {
			t.Errorf("%s: DecodePartial = %v, %v; want %v", tc.name, a, err, tc.want)
		}
	}
	if _, err := DecodePartial(valid); err != nil {
		t.Fatalf("valid frame refused: %v", err)
	}
}

// emptyHeader is an empty frame up to its candidate count.
func emptyHeader() []byte {
	empty := AppendPartial(nil, &Resolution{Query: &QueryResult{}}, 0)
	return empty[:len(empty)-2]
}

// patch returns a copy of frame with the bytes from off on replaced.
func patch(frame []byte, off int, b ...byte) []byte {
	out := append([]byte(nil), frame...)
	copy(out[off:], b)
	return out
}

// TestDecodePartialAllocations pins the decoder's cost: one string for
// every ID in the frame, the answer and its two slices — and nothing
// sized from a count the frame cannot hold.
func TestDecodePartialAllocations(t *testing.T) {
	x := partialTestIndex(t)
	valid := AppendPartial(nil, x.Resolve(partialQuery(0, "alpha beta gamma delta")), 0)
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodePartial(valid) }); n > 4 {
		t.Errorf("valid frame: %.0f allocations, want at most 4", n)
	}
	huge := binary.AppendUvarint(emptyHeader(), 1<<40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, err := DecodePartial(huge); err == nil {
			t.Fatal("count beyond the frame accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / 100; perCall > 1024 {
		t.Errorf("refusing an oversized count allocates %d B per call", perCall)
	}
}

// FuzzDecodePartial: the decoder never panics, and every frame it
// accepts re-encodes to exactly its bytes.
func FuzzDecodePartial(f *testing.F) {
	x := partialTestIndex(f)
	f.Add(AppendPartial(nil, &Resolution{Query: &QueryResult{}}, 0))
	f.Add(AppendPartial(nil, x.Resolve(partialQuery(0, "alpha beta gamma delta")), 1))
	f.Add(AppendPartial(nil, x.Resolve(partialQuery(1, "alpha beta gamma delta")), 0))
	f.Add(AppendPartial(nil, x.ResolveWithOptions(partialQuery(0, "alpha beta gamma delta"),
		ResolveOptions{Budget: Budget{MaxComparisons: 1}}), 3))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, frame []byte) {
		a, err := DecodePartial(frame)
		if err != nil {
			return
		}
		if again := AppendPartial(nil, resolutionOf(a), a.Level); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", again, frame)
		}
	})
}
