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
// Seeds cover valid images of both task types (as built, empty, churned
// by overwrites, and one profile), a must-fail version-3 image, three
// must-fail seeds with bytes after the CRC (a stray byte, noise, and the
// delta tail of valid op frames older builds appended there), plus the
// mutation classes the decoder must reject: truncation, bit flips,
// version bumps, a dropped byte, and 64-byte inputs whose counts claim
// 2³⁰ items (refused before any slab or map is sized from them).
func FuzzLoadIndex(f *testing.F) {
	dirty := encodeToBytes(f, smallTestIndex(f, false))
	clean := encodeToBytes(f, smallTestIndex(f, true))
	empty := encodeToBytes(f, New(true, DefaultConfig()))
	churnedDirty := encodeToBytes(f, churnedTestIndex(f, false))
	churnedClean := encodeToBytes(f, churnedTestIndex(f, true))
	one := New(false, DefaultConfig())
	upsertAll(f, one, synthQueryProfiles(1, 1, 3))
	single := encodeToBytes(f, one)

	// The version-3 format carried more fields; whatever follows its
	// version varint, it is refused as a version.
	v3 := append([]byte(nil), dirty...)
	v3[len(snapshotMagic)] = 3
	if _, err := Decode(bytes.NewReader(v3), DefaultConfig()); !errors.Is(err, ErrSnapshotVersion) {
		f.Fatalf("version-3 seed: err = %v, want ErrSnapshotVersion", err)
	}

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
	for _, seed := range [][]byte{stray, noise, delta} {
		if _, err := Decode(bytes.NewReader(seed), DefaultConfig()); !errors.Is(err, errSnapshotTrailing) {
			f.Fatalf("trailing-bytes seed: err = %v, want it refused", err)
		}
	}

	for _, seed := range [][]byte{dirty, clean, empty, churnedDirty, churnedClean, single, v3, stray, noise, delta} {
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

		crc := append([]byte(nil), seed...)
		crc[len(crc)-1] ^= 0x01 // checksum bit flip
		f.Add(crc)

		mid := len(seed) / 2 // one byte dropped mid-image
		f.Add(append(append([]byte(nil), seed[:mid]...), seed[mid+1:]...))
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
