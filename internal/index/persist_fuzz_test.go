package index

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzLoadIndex feeds arbitrary bytes to the snapshot decoder. The
// contract under fuzzing: any input either decodes into an internally
// consistent, queryable index that accounts for every input byte, or
// returns an error — never a panic, and never an allocation proportional
// to a lying length header rather than to the input actually supplied.
// Seeds cover valid snapshots of both task types, a must-fail one whose
// key sits under an attribute cluster (a loose-schema image), two
// must-fail ones whose bag is not the profile's keys (a changed token, a
// short count), the two
// legacy LSH images (testdata/, see persist_legacy_test.go) and a
// must-fail one whose signature value is out of range, three must-fail
// seeds with bytes after the CRC (a stray byte, noise, and the delta tail
// of valid op frames older builds appended there), plus the mutation
// classes the decoder must reject: truncation, bit flips, version bumps,
// and 64-byte inputs whose counts claim 2³⁰ items (refused before any
// slab or map is sized from them).
func FuzzLoadIndex(f *testing.F) {
	dirty := encodeToBytes(f, smallTestIndex(f, false))
	clean := encodeToBytes(f, smallTestIndex(f, true))

	looseKey, _ := looseSchemaImages(f, false)
	if _, err := Decode(bytes.NewReader(looseKey), DefaultConfig()); !errors.Is(err, errLooseSchema) {
		f.Fatalf("loose-schema seed: err = %v, want it refused", err)
	}

	badBagToken, badBagCount := bagNotKeysImages(f, false)
	for _, seed := range [][]byte{badBagToken, badBagCount} {
		if _, err := Decode(bytes.NewReader(seed), DefaultConfig()); !errors.Is(err, errBagNotKeys) {
			f.Fatalf("bag-not-keys seed: err = %v, want it refused", err)
		}
	}

	empty := encodeToBytes(f, New(true, DefaultConfig()))

	// Legacy LSH images (an older build's -lsh section) and a crafted one
	// whose signature value is out of range, which must stay refused.
	withLSH := legacyImage(f, false)
	cleanLSH := legacyImage(f, true)
	badSig := legacySigSnapshot(1, maxSignatureValue)
	stray := append(append([]byte(nil), dirty...), 0xaa)
	noise := append(append([]byte(nil), clean...), bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 16)...)

	// Delta seed: a base image followed by the valid op frames that
	// continue it. The decoder must refuse it whole — replaying the tail
	// or dropping it would both be wrong.
	deltaIdx := New(true, opLogConfig())
	for _, p := range synthQueryProfiles(8, 2, 29) {
		if _, _, err := deltaIdx.Upsert(p); err != nil {
			f.Fatal(err)
		}
	}
	deltaBase := encodeToBytes(f, deltaIdx)
	for _, p := range synthQueryProfiles(12, 2, 31)[8:] {
		if _, _, err := deltaIdx.Upsert(p); err != nil {
			f.Fatal(err)
		}
	}
	tail, _, err := deltaIdx.OpsSince(8, 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	delta := append(append([]byte(nil), deltaBase...), tail...)

	for _, seed := range [][]byte{dirty, clean, looseKey, badBagToken, badBagCount, empty, withLSH, cleanLSH, badSig, stray, noise, delta} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])                      // truncated
		f.Add(seed[:len(seed)-3])                      // lost trailer
		f.Add(append([]byte{}, seed[len(seed)/3:]...)) // lost header

		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)/2] ^= 0x20 // payload bit flip
		f.Add(flipped)

		bumped := append([]byte(nil), seed...)
		bumped[len(snapshotMagic)] = snapshotVersion + 1 // future version
		f.Add(bumped)
	}
	for _, lying := range lyingCountSnapshots() {
		f.Add(lying)
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := Decode(bytes.NewReader(data), DefaultConfig())
		if err != nil {
			return
		}
		// Decoded successfully: nothing was left unread (the must-fail
		// seeds stay refused), and the index holds together under use.
		if st, _ := x.PersistState(); st.Bytes != int64(len(data)) {
			t.Fatalf("decode accepted %d bytes of a %d-byte input", st.Bytes, len(data))
		}
		s := x.Snapshot()
		if s.Profiles != x.Size() {
			t.Fatalf("snapshot profiles %d != size %d", s.Profiles, x.Size())
		}
		q := mkProfile("probe", "name", "alpha shared0 tok1")
		x.Query(&q)
		x.Resolve(&q)
		if _, _, err := x.Upsert(mkProfile("fresh", "name", "post fuzz upsert")); err != nil {
			t.Fatalf("upsert on decoded index: %v", err)
		}
	})
}
