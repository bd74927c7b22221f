package index

import (
	"bytes"
	"math"
	"testing"
	"time"
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

// lshSnapshotIndex builds an LSH-enabled index with churn (replacements
// and an empty-bag profile) so the snapshot exercises every sig shape.
func lshSnapshotIndex(t testing.TB, clean bool) *Index {
	t.Helper()
	sources := 1
	if clean {
		sources = 2
	}
	x := New(clean, lshTestConfig(ProbeFallback))
	batch := synthQueryProfiles(40, sources, 17)
	for _, p := range batch {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	// Replace one profile with an empty token bag: stored without a
	// signature, so the optional-signature path is in the file.
	empty := batch[3]
	empty.Attributes = empty.Attributes[:0]
	empty.Add("name", "..?!")
	if _, _, err := x.Upsert(empty); err != nil {
		t.Fatal(err)
	}
	return x
}

// TestSnapshotRoundTripLSH pins that a save/load cycle of an LSH-enabled
// index preserves query results bitwise under every probe policy, and
// that re-encoding the restored index reproduces the original bytes
// (apart from the timestamp, which encodePinned pins).
func TestSnapshotRoundTripLSH(t *testing.T) {
	for _, clean := range []bool{false, true} {
		sources := 1
		if clean {
			sources = 2
		}
		x := lshSnapshotIndex(t, clean)
		// Exercise the probe counters so they round-trip as non-zero.
		probes := synthQueryProfiles(40, sources, 17)
		x.Query(&probes[0])

		data := encodePinned(t, x)
		y, err := Decode(bytes.NewReader(data), lshTestConfig(ProbeFallback))
		if err != nil {
			t.Fatalf("clean=%v: decode: %v", clean, err)
		}
		if !y.LSHEnabled() {
			t.Fatal("restored index lost LSH")
		}
		lshInvariants(t, y)

		for _, p := range probes {
			p := p
			for _, pol := range []ProbePolicy{ProbeOff, ProbeFallback, ProbeUnion} {
				want := x.QueryWith(&p, ProbeOptions{Policy: pol})
				got := y.QueryWith(&p, ProbeOptions{Policy: pol})
				if len(want.Candidates) != len(got.Candidates) {
					t.Fatalf("clean=%v %v query %s: %d candidates, original %d",
						clean, pol, p.OriginalID, len(got.Candidates), len(want.Candidates))
				}
				for i := range want.Candidates {
					w, g := want.Candidates[i], got.Candidates[i]
					if w.ID != g.ID || w.SharedKeys != g.SharedKeys || w.SharedBuckets != g.SharedBuckets ||
						math.Float64bits(w.Weight) != math.Float64bits(g.Weight) {
						t.Fatalf("clean=%v %v query %s candidate %d: %+v vs original %+v",
							clean, pol, p.OriginalID, i, g, w)
					}
				}
			}
		}

		redata := encodePinned(t, y)
		// The probe counters moved while comparing queries above; rebuild
		// the expectation from a second decode instead of a byte compare
		// of live indexes.
		z, err := Decode(bytes.NewReader(redata), lshTestConfig(ProbeFallback))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if z.Size() != x.Size() || int(z.numBuckets.Load()) != int(x.numBuckets.Load()) {
			t.Fatalf("second generation drifted: %d/%d profiles, %d/%d buckets",
				z.Size(), x.Size(), z.numBuckets.Load(), x.numBuckets.Load())
		}
	}
}

// TestSnapshotBytesDeterministicLSH pins byte-level determinism of the
// encoding: decode then re-encode with a pinned timestamp reproduces
// the input exactly.
func TestSnapshotBytesDeterministicLSH(t *testing.T) {
	x := lshSnapshotIndex(t, false)
	data := encodePinned(t, x)
	y, err := Decode(bytes.NewReader(data), lshTestConfig(ProbeFallback))
	if err != nil {
		t.Fatal(err)
	}
	redata := encodePinned(t, y)
	if !bytes.Equal(data, redata) {
		t.Fatalf("decode/re-encode changed the bytes: %d vs %d", len(data), len(redata))
	}
}

// TestLoadLSHSnapshotWithLSHOff pins the downgrade path: a file with
// signatures loads under a plain config, drops the signatures, serves
// queries identically to a never-LSH index, and re-saves as hasLSH=0.
func TestLoadLSHSnapshotWithLSHOff(t *testing.T) {
	x := lshSnapshotIndex(t, false)
	data := encodePinned(t, x)
	y, err := Decode(bytes.NewReader(data), DefaultConfig())
	if err != nil {
		t.Fatalf("LSH snapshot rejected under plain config: %v", err)
	}
	if y.LSHEnabled() {
		t.Fatal("plain config restored with LSH on")
	}
	for _, sp := range y.byID {
		if sp.sig != nil {
			t.Fatalf("profile %d kept a signature under a plain config", sp.p.ID)
		}
	}
	for _, p := range synthQueryProfiles(40, 1, 17) {
		p := p
		want := refCandidates(y, &p)
		got := y.Query(&p).Candidates
		if len(want) != len(got) {
			t.Fatalf("query %s: %d candidates, reference %d", p.OriginalID, len(got), len(want))
		}
		for i := range want {
			if want[i].ID != got[i].ID || math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
				t.Fatalf("query %s candidate %d: %+v vs %+v", p.OriginalID, i, got[i], want[i])
			}
		}
	}
	// Re-save drops the section cleanly and the result loads everywhere.
	again := encodePinned(t, y)
	if _, err := Decode(bytes.NewReader(again), lshTestConfig(ProbeUnion)); err != nil {
		t.Fatalf("re-saved plain snapshot rejected under LSH config: %v", err)
	}
}

// TestDecodeRejectsCraftedLSHSections walks targeted corruptions of the
// LSH section: every one must produce an error, never a panic.
func TestDecodeRejectsCraftedLSHSections(t *testing.T) {
	x := lshSnapshotIndex(t, false)
	valid := encodePinned(t, x)
	if _, err := Decode(bytes.NewReader(valid), lshTestConfig(ProbeFallback)); err != nil {
		t.Fatalf("valid LSH snapshot rejected: %v", err)
	}

	// The LSH presence byte sits right after the ten header varints.
	// Locate it by decoding the prefix the same way the decoder does.
	offset := len(snapshotMagic)
	br := bytes.NewReader(valid[offset:])
	for i := 0; i < 10; i++ { // version + 9 header fields
		for {
			b, err := br.ReadByte()
			if err != nil {
				t.Fatal(err)
			}
			offset++
			if b < 0x80 {
				break
			}
		}
	}
	if valid[offset] != 1 {
		t.Fatalf("expected LSH presence byte at offset %d, found %#x", offset, valid[offset])
	}

	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), valid...))
		if _, err := Decode(bytes.NewReader(b), lshTestConfig(ProbeFallback)); err == nil {
			t.Errorf("%s: crafted snapshot accepted", name)
		}
	}
	mutate("presence byte 2", func(b []byte) []byte { b[offset] = 2; return b })
	mutate("zero signature length", func(b []byte) []byte { b[offset+1] = 0; return b })
	mutate("truncated inside LSH header", func(b []byte) []byte { return b[:offset+2] })
	mutate("signature bytes flipped", func(b []byte) []byte {
		// Flipping a bit mid-file corrupts either a signature value or a
		// string, and in every case the CRC no longer matches.
		b[len(b)/2] ^= 0x40
		return b
	})
	mutate("presence byte cleared", func(b []byte) []byte {
		// hasLSH=0 shrinks the expected layout: the following LSH header
		// bytes are then parsed as profile records, which cannot satisfy
		// both the record validation and the trailing CRC.
		b[offset] = 0
		return b
	})
}
