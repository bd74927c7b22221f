package index

import (
	"bytes"
	"testing"
)

// FuzzLoadIndex feeds arbitrary bytes to the snapshot decoder. The
// contract under fuzzing: any input either decodes into an internally
// consistent, queryable index that accounts for every input byte, or
// returns an error — never a panic, and never an allocation proportional
// to a lying length header rather than to the input actually supplied.
// Seeds cover valid snapshots of both task types (with and without
// entropy keys) and LSH-enabled snapshots, three must-fail seeds with
// bytes after the CRC (a stray byte, noise, and the delta tail of valid
// op frames older builds appended there), plus the mutation classes the
// decoder must reject: truncation, bit flips, version bumps, and 64-byte
// inputs whose counts claim 2³⁰ items (refused before any slab or map is
// sized from them). Every input is decoded under a plain config and an
// LSH-enabled one: the LSH section must hold up whether its signatures
// are kept or discarded.
func FuzzLoadIndex(f *testing.F) {
	dirty := encodeToBytes(f, smallTestIndex(f, false))
	clean := encodeToBytes(f, smallTestIndex(f, true))

	entCfg := DefaultConfig()
	entCfg.Clustering = lenClustering{}
	entCfg.Entropy = rampEntropy{}
	ent := New(false, entCfg)
	for _, p := range synthQueryProfiles(8, 1, 23) {
		if _, _, err := ent.Upsert(p); err != nil {
			f.Fatal(err)
		}
	}
	entropy := encodeToBytes(f, ent)

	empty := encodeToBytes(f, New(true, DefaultConfig()))

	// LSH seeds stay deliberately tiny (few profiles, short signatures):
	// mutation throughput degrades with corpus entry size, and a 16-wide
	// signature walks the same decode paths as a 128-wide one.
	smallLSH := func(clean bool) *Index {
		sources := 1
		if clean {
			sources = 2
		}
		cfg := DefaultConfig()
		cfg.LSH = LSHConfig{Policy: ProbeFallback, SignatureLen: 16}
		x := New(clean, cfg)
		for _, p := range synthQueryProfiles(8, sources, 19) {
			if _, _, err := x.Upsert(p); err != nil {
				f.Fatal(err)
			}
		}
		return x
	}
	withLSH := encodeToBytes(f, smallLSH(false))
	cleanLSH := encodeToBytes(f, smallLSH(true))
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

	for _, seed := range [][]byte{dirty, clean, entropy, empty, withLSH, cleanLSH, stray, noise, delta} {
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

	cfg := DefaultConfig()
	lshCfg := lshTestConfig(ProbeFallback)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []Config{cfg, lshCfg} {
			x, err := Decode(bytes.NewReader(data), c)
			if err != nil {
				continue
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
			if x.LSHEnabled() {
				x.QueryWith(&q, ProbeOptions{Policy: ProbeUnion})
			}
			if _, _, err := x.Upsert(mkProfile("fresh", "name", "post fuzz upsert")); err != nil {
				t.Fatalf("upsert on decoded index: %v", err)
			}
		}
	})
}
