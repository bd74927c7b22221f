package index

// Older builds could maintain MinHash signatures for an online LSH probe
// (sparker-serve -lsh) and wrote them into the snapshot's LSH section.
// testdata/lsh-dirty.snap and testdata/lsh-clean.snap are two such
// images, written by the last build with the probe: signature length 16,
// policy fallback, the profiles and queries legacyFresh replays, at the
// pinned timestamp encodePinned uses. This build must keep reading them —
// validating the section, discarding it — and must answer from them
// exactly as from the same collection built fresh.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

// encodePinned encodes the index at a fixed save timestamp, so two
// indexes in the same state encode to the same bytes.
func encodePinned(t testing.TB, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	x.writeMu.Lock()
	_, err := x.encodeLocked(&buf, time.Unix(0, 42))
	x.writeMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyPath names the legacy LSH image of the task type.
func legacyPath(clean bool) string {
	if clean {
		return filepath.Join("testdata", "lsh-clean.snap")
	}
	return filepath.Join("testdata", "lsh-dirty.snap")
}

// legacyImage reads the legacy LSH image of the task type.
func legacyImage(t testing.TB, clean bool) []byte {
	t.Helper()
	b, err := os.ReadFile(legacyPath(clean))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// legacyProfiles are the profiles the legacy images were built from.
func legacyProfiles(clean bool) []profile.Profile {
	sources := 1
	if clean {
		sources = 2
	}
	return synthQueryProfiles(8, sources, 19)
}

// legacyFresh replays, under cfg, the writes and queries the legacy image
// of the task type was saved after: eight inserts, an overwrite of one
// profile with a token-less one (stored without a signature), and one
// query per profile (they moved the image's counters).
func legacyFresh(t testing.TB, clean bool, cfg Config) *Index {
	t.Helper()
	x := New(clean, cfg)
	batch := legacyProfiles(clean)
	upsertAll(t, x, batch)
	empty := batch[3]
	empty.Attributes = nil
	empty.Add("name", "..?!")
	upsertAll(t, x, []profile.Profile{empty})
	for i := range batch {
		x.Query(&batch[i])
	}
	return x
}

// legacyDecode decodes the legacy image of the task type under cfg.
func legacyDecode(t testing.TB, clean bool, cfg Config) *Index {
	t.Helper()
	x, err := Decode(bytes.NewReader(legacyImage(t, clean)), cfg)
	if err != nil {
		t.Fatalf("legacy LSH image (clean=%v) rejected: %v", clean, err)
	}
	return x
}

// lshByteOffset locates the LSH presence byte: it follows the magic and
// the ten header varints (version and nine header fields).
func lshByteOffset(t testing.TB, image []byte) int {
	t.Helper()
	off := len(snapshotMagic)
	for i := 0; i < 10; i++ {
		_, n := binary.Uvarint(image[off:])
		if n <= 0 {
			t.Fatalf("header varint %d unreadable", i)
		}
		off += n
	}
	return off
}

// reseal rewrites an image's CRC trailer over its (mutated) body, so only
// the decoder's own validation can refuse the mutation.
func reseal(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// legacySigSnapshot is a one-profile dirty image with an LSH section of
// signature length 1, whose only profile carries a signature flag byte and
// (flag 1) the single value v.
func legacySigSnapshot(flag byte, v uint64) []byte {
	var out bytes.Buffer
	cw := &crcWriter{w: &out}
	craftedHeader(cw, 1, 0)
	cw.byte(1)                        // LSH section present
	cw.uvarint(1)                     // signature length
	cw.varint(1)                      // MinHash seed
	cw.uvarint(math.Float64bits(0.5)) // banding threshold
	cw.uvarint(0)                     // probe counter
	cw.uvarint(0)                     // probe-only candidate counter
	cw.uvarint(0)                     // profile ID
	cw.byte(0)                        // source
	cw.string("p")
	cw.uvarint(0) // attributes
	cw.uvarint(0) // keys
	cw.byte(0)    // no bag
	cw.byte(flag)
	if flag == 1 {
		cw.uvarint(v)
	}
	cw.uvarint(0) // shard 0: no postings
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.sum)
	out.Write(trailer[:])
	return out.Bytes()
}

// sameAnswers pins two indexes to bitwise-identical resolutions of q:
// candidates (ID, shared keys, weight bits) and matches (ID, score bits).
func sameAnswers(t *testing.T, what string, want, got *Index, q *profile.Profile) {
	t.Helper()
	w, g := want.Resolve(q), got.Resolve(q)
	if err := sameCandidates(g.Query.Candidates, w.Query.Candidates); err != nil {
		t.Fatalf("%s: query %s: %v", what, q.OriginalID, err)
	}
	if len(g.Matches) != len(w.Matches) || g.Comparisons != w.Comparisons {
		t.Fatalf("%s: query %s: %d matches / %d comparisons, want %d / %d",
			what, q.OriginalID, len(g.Matches), g.Comparisons, len(w.Matches), w.Comparisons)
	}
	for i := range w.Matches {
		if g.Matches[i].B != w.Matches[i].B || math.Float64bits(g.Matches[i].Score) != math.Float64bits(w.Matches[i].Score) {
			t.Fatalf("%s: query %s match %d: %+v, want %+v", what, q.OriginalID, i, g.Matches[i], w.Matches[i])
		}
	}
}

// legacyQueries are the profiles the legacy images were built from plus
// ad-hoc queries that are not indexed.
func legacyQueries(clean bool) []profile.Profile {
	qs := legacyProfiles(clean)
	for _, p := range synthQueryProfiles(8, 2, 57) {
		p.OriginalID = "adhoc" + p.OriginalID
		if !clean {
			p.SourceID = 0
		}
		qs = append(qs, p)
	}
	return qs
}

// TestSnapshotRoundTripLSH: a legacy LSH image loads with every profile
// and posting of the collection it was saved from — its image, re-encoded,
// is byte for byte the one the same collection builds fresh — and answers
// every query exactly as that fresh index does.
func TestSnapshotRoundTripLSH(t *testing.T) {
	for _, clean := range []bool{false, true} {
		y := legacyDecode(t, clean, DefaultConfig())
		x := legacyFresh(t, clean, DefaultConfig())
		if y.Size() != 8 || y.Size() != x.Size() {
			t.Fatalf("clean=%v: %d profiles restored, fresh %d", clean, y.Size(), x.Size())
		}
		encodesEqual(t, "legacy image vs fresh build", x, y)
		for _, q := range legacyQueries(clean) {
			q := q
			sameAnswers(t, "legacy image vs fresh build", x, y, &q)
		}
	}
}

// TestSnapshotBytesDeterministicLSH: saving an index restored from a
// legacy LSH image writes the LSH presence byte as 0 and no signatures,
// through Save as through the in-memory encode, and the re-saved image is
// a fixed point: it decodes and re-encodes to the same bytes.
func TestSnapshotBytesDeterministicLSH(t *testing.T) {
	for _, clean := range []bool{false, true} {
		legacy := legacyImage(t, clean)
		off := lshByteOffset(t, legacy)
		if legacy[off] != 1 {
			t.Fatalf("clean=%v: fixture has LSH presence byte %#x, want 1", clean, legacy[off])
		}
		y := legacyDecode(t, clean, DefaultConfig())
		path := filepath.Join(t.TempDir(), "resaved.snap")
		if _, err := y.Save(path); err != nil {
			t.Fatal(err)
		}
		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if saved[lshByteOffset(t, saved)] != 0 {
			t.Fatalf("clean=%v: Save wrote LSH presence byte %#x, want 0", clean, saved[lshByteOffset(t, saved)])
		}
		if len(saved) >= len(legacy) {
			t.Fatalf("clean=%v: re-saved image %d bytes, legacy %d: the signatures were kept", clean, len(saved), len(legacy))
		}
		again := encodePinned(t, y)
		if again[lshByteOffset(t, again)] != 0 {
			t.Fatalf("clean=%v: encode wrote an LSH section", clean)
		}
		z, err := Decode(bytes.NewReader(again), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodePinned(t, z), again) {
			t.Fatalf("clean=%v: re-saved image is not a fixed point", clean)
		}
	}
}

// TestLoadLSHSnapshotWithLSHOff: Load reads a legacy LSH image from disk
// under the only configuration there is, keeps no signature anywhere,
// serves queries bitwise equal to the map reference, and its re-save
// loads again.
func TestLoadLSHSnapshotWithLSHOff(t *testing.T) {
	for _, clean := range []bool{false, true} {
		y, err := Load(legacyPath(clean), DefaultConfig())
		if err != nil {
			t.Fatalf("clean=%v: %v", clean, err)
		}
		st, _ := y.PersistState()
		if !st.Restored || st.Bytes != int64(len(legacyImage(t, clean))) || st.Seq != 9 {
			t.Fatalf("clean=%v: persist state %+v", clean, st)
		}
		for _, q := range legacyQueries(clean) {
			q := q
			if err := sameCandidates(y.Query(&q).Candidates, refCandidates(y, &q)); err != nil {
				t.Fatalf("clean=%v query %s: %v", clean, q.OriginalID, err)
			}
		}
		path := filepath.Join(t.TempDir(), "again.snap")
		if _, err := y.Save(path); err != nil {
			t.Fatal(err)
		}
		if z, err := Load(path, DefaultConfig()); err != nil || z.Size() != y.Size() {
			t.Fatalf("clean=%v: re-saved legacy image: %v (size %d)", clean, err, z.Size())
		}
	}
}

// TestProbeOffBitwiseIdentical: with the probe gone, every query is what
// probe=off was — for every scheme, on an index restored from a legacy
// LSH image as on a fresh one, bitwise equal to the map reference.
func TestProbeOffBitwiseIdentical(t *testing.T) {
	for _, clean := range []bool{false, true} {
		for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS} {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			y := legacyDecode(t, clean, cfg)
			x := legacyFresh(t, clean, cfg)
			for _, q := range legacyQueries(clean) {
				q := q
				ref := refCandidates(x, &q)
				if err := sameCandidates(y.Query(&q).Candidates, ref); err != nil {
					t.Fatalf("clean=%v %v query %s, legacy image: %v", clean, scheme, q.OriginalID, err)
				}
				if err := sameCandidates(x.Query(&q).Candidates, ref); err != nil {
					t.Fatalf("clean=%v %v query %s, fresh build: %v", clean, scheme, q.OriginalID, err)
				}
			}
		}
	}
}

// TestLSHMaintenanceUnderChurn: an index restored from a legacy LSH image
// takes overwrites — every profile replaced twice, some by token-less
// profiles — exactly as the fresh build does: the two stay byte-identical
// and keep answering alike. Nothing of the discarded section lingers to
// be maintained.
func TestLSHMaintenanceUnderChurn(t *testing.T) {
	for _, clean := range []bool{false, true} {
		y := legacyDecode(t, clean, DefaultConfig())
		x := legacyFresh(t, clean, DefaultConfig())
		batch := legacyProfiles(clean)
		for round := 0; round < 2; round++ {
			for i, p := range batch {
				q := profile.Profile{OriginalID: p.OriginalID, SourceID: p.SourceID}
				if i%7 == round {
					q.Add("name", "...")
				} else {
					q.Add("name", strings.Repeat("regen ", 1+i%3)+p.OriginalID+" shared"+string(rune('a'+i%5)))
				}
				for _, ix := range []*Index{x, y} {
					if _, created, err := ix.Upsert(q); err != nil || created {
						t.Fatalf("clean=%v: replacing %s: created=%v err=%v", clean, p.OriginalID, created, err)
					}
				}
			}
			encodesEqual(t, "churned legacy image vs churned fresh build", x, y)
		}
		for _, q := range legacyQueries(clean) {
			q := q
			sameAnswers(t, "after churn", x, y, &q)
		}
	}
}

// TestLSHStatsCounters: the counters a legacy LSH image carries in its
// header (queries, upserts, sequence number) are restored; its probe
// counters are read and dropped, and the index reports no LSH section.
func TestLSHStatsCounters(t *testing.T) {
	for _, clean := range []bool{false, true} {
		s := legacyDecode(t, clean, DefaultConfig()).Snapshot()
		if s.Profiles != 8 || s.Queries != 8 || s.Upserts != 9 || s.Seq != 9 {
			t.Fatalf("clean=%v: profiles/queries/upserts/seq %d/%d/%d/%d, want 8/8/9/9",
				clean, s.Profiles, s.Queries, s.Upserts, s.Seq)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(b, &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields["lsh"]; ok {
			t.Fatalf("clean=%v: snapshot reports an lsh section: %s", clean, fields["lsh"])
		}
	}
}

// TestDecodeRejectsCraftedLSHSections walks targeted corruptions of a
// legacy LSH section, each under a valid CRC so that only the section's
// own validation can refuse it: every one must produce an error, never a
// panic.
func TestDecodeRejectsCraftedLSHSections(t *testing.T) {
	valid := legacyImage(t, false)
	off := lshByteOffset(t, valid)
	if _, err := Decode(bytes.NewReader(valid), DefaultConfig()); err != nil {
		t.Fatalf("valid legacy image rejected: %v", err)
	}
	nan := binary.AppendUvarint(nil, math.Float64bits(math.NaN()))
	half := binary.AppendUvarint(nil, math.Float64bits(0.5))
	if len(nan) != len(half) {
		t.Fatalf("threshold encodings differ in length: %d vs %d", len(nan), len(half))
	}
	// Header layout after the presence byte: signature length (one byte
	// for 16), seed 1 (one byte), threshold bits.
	thresholdAt := off + 3
	if !bytes.Equal(valid[thresholdAt:thresholdAt+len(half)], half) {
		t.Fatalf("threshold 0.5 not found at offset %d", thresholdAt)
	}
	for name, mutate := range map[string]func(b []byte) []byte{
		"presence byte 2":       func(b []byte) []byte { b[off] = 2; return reseal(b) },
		"presence byte cleared": func(b []byte) []byte { b[off] = 0; return reseal(b) },
		"zero signature length": func(b []byte) []byte { b[off+1] = 0; return reseal(b) },
		"NaN threshold":         func(b []byte) []byte { copy(b[thresholdAt:], nan); return reseal(b) },
		"truncated in header":   func(b []byte) []byte { return b[:off+2] },
		"signature bit flipped": func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
	} {
		if _, err := Decode(bytes.NewReader(mutate(append([]byte(nil), valid...))), DefaultConfig()); err == nil {
			t.Errorf("%s: crafted image accepted", name)
		}
	}

	// A signature value at or past the Mersenne prime cannot be a MinHash
	// minimum; one below it is fine, and so is a profile without one.
	if _, err := Decode(bytes.NewReader(legacySigSnapshot(1, maxSignatureValue-1)), DefaultConfig()); err != nil {
		t.Fatalf("in-range signature refused: %v", err)
	}
	if _, err := Decode(bytes.NewReader(legacySigSnapshot(0, 0)), DefaultConfig()); err != nil {
		t.Fatalf("profile without a signature refused: %v", err)
	}
	if _, err := Decode(bytes.NewReader(legacySigSnapshot(1, maxSignatureValue)), DefaultConfig()); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range signature value: err = %v", err)
	}
	if _, err := Decode(bytes.NewReader(legacySigSnapshot(2, 0)), DefaultConfig()); err == nil {
		t.Fatal("signature flag 2 accepted")
	}
}
