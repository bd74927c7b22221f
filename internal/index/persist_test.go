package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparker/internal/profile"
)

// saveLoad round-trips the index through a temp snapshot file.
func saveLoad(t *testing.T, x *Index, cfg Config) *Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.snap")
	if _, err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	y, err := Load(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := testCollection()
	cfg := DefaultConfig()
	x, err := NewFromCollection(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	y := saveLoad(t, x, cfg)

	if y.Size() != x.Size() || y.Clean() != x.Clean() {
		t.Fatalf("loaded size=%d clean=%v, want %d/%v", y.Size(), y.Clean(), x.Size(), x.Clean())
	}
	sx, sy := x.Snapshot(), y.Snapshot()
	if sx.Blocks != sy.Blocks || sx.Assignments != sy.Assignments ||
		sx.MaxBlockSize != sy.MaxBlockSize || sx.Shards != sy.Shards {
		t.Fatalf("block stats diverged: live %+v, loaded %+v", sx, sy)
	}
	if sy.ReadOnly {
		t.Fatal("loaded index unexpectedly read-only")
	}
	if sy.Persist == nil || !sy.Persist.Restored || sy.Persist.Bytes == 0 || sy.Persist.Path == "" {
		t.Fatalf("loaded persist state = %+v", sy.Persist)
	}
	// Every profile is restored with identity and attributes intact.
	for id := profile.ID(0); int(id) < c.Size(); id++ {
		px, _ := x.Get(id)
		py, ok := y.Get(id)
		if !ok {
			t.Fatalf("profile %d missing after load", id)
		}
		if px.OriginalID != py.OriginalID || px.SourceID != py.SourceID ||
			len(px.Attributes) != len(py.Attributes) {
			t.Fatalf("profile %d diverged: %+v vs %+v", id, px, py)
		}
		for i := range px.Attributes {
			if px.Attributes[i] != py.Attributes[i] {
				t.Fatalf("profile %d attribute %d diverged", id, i)
			}
		}
	}
}

func TestEmptyIndexRoundTrips(t *testing.T) {
	cfg := DefaultConfig()
	x := New(true, cfg)
	y := saveLoad(t, x, cfg)
	if y.Size() != 0 || !y.Clean() {
		t.Fatalf("empty round-trip: size=%d clean=%v", y.Size(), y.Clean())
	}
	// The restored empty index accepts writes and serves them.
	p := mkProfile("a1", "name", "acme blender")
	if _, _, err := y.Upsert(p); err != nil {
		t.Fatal(err)
	}
	b := mkProfile("b1", "title", "acme blender deluxe")
	b.SourceID = 1
	if _, _, err := y.Upsert(b); err != nil {
		t.Fatal(err)
	}
	q := mkProfile("probe", "name", "acme blender")
	if res := y.Query(&q); len(res.Candidates) != 1 {
		t.Fatalf("candidates after post-load upserts = %+v", res.Candidates)
	}
}

// TestSnapshotCountersSurviveSaveLoad pins the latent-bug regression: the
// Queries/Upserts counters are serving state, and dropping them across a
// restart would silently zero the ops metrics replicas report.
func TestSnapshotCountersSurviveSaveLoad(t *testing.T) {
	cfg := DefaultConfig()
	x := New(false, cfg)
	for i, p := range synthQueryProfiles(20, 1, 3) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			x.Query(&p)
		}
	}
	sx := x.Snapshot()
	if sx.Queries != 10 || sx.Upserts != 20 {
		t.Fatalf("live counters = %d/%d, want 10/20", sx.Queries, sx.Upserts)
	}
	y := saveLoad(t, x, cfg)
	sy := y.Snapshot()
	if sy.Queries != sx.Queries || sy.Upserts != sx.Upserts {
		t.Fatalf("counters after load = %d/%d, want %d/%d",
			sy.Queries, sy.Upserts, sx.Queries, sx.Upserts)
	}
	// Counters keep advancing from the restored values.
	p := mkProfile("fresh", "name", "tok1 tok2")
	y.Query(&p)
	if _, _, err := y.Upsert(p); err != nil {
		t.Fatal(err)
	}
	sy = y.Snapshot()
	if sy.Queries != sx.Queries+1 || sy.Upserts != sx.Upserts+1 {
		t.Fatalf("counters after restored ops = %d/%d", sy.Queries, sy.Upserts)
	}
}

// TestRemovalsSurviveSaveLoad pins the other latent-bug regression: a
// replace tombstones the old postings via removeID, and a snapshot must
// capture the posting lists after removal — resurrecting pre-replace
// tokens would return candidates for values that no longer exist.
func TestRemovalsSurviveSaveLoad(t *testing.T) {
	cfg := DefaultConfig()
	x := New(false, cfg)
	if _, _, err := x.Upsert(mkProfile("p1", "name", "oldtoken unique")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := x.Upsert(mkProfile("p2", "name", "bystander item")); err != nil {
		t.Fatal(err)
	}
	// Replace p1: "oldtoken" postings must be tombstoned.
	if _, created, err := x.Upsert(mkProfile("p1", "name", "newtoken unique")); err != nil || created {
		t.Fatalf("replace: created=%v err=%v", created, err)
	}
	y := saveLoad(t, x, cfg)

	old := mkProfile("probe", "name", "oldtoken")
	if res := y.Query(&old); len(res.Candidates) != 0 {
		t.Fatalf("tombstoned token resurrected after load: %+v", res.Candidates)
	}
	fresh := mkProfile("probe", "name", "newtoken")
	res := y.Query(&fresh)
	if len(res.Candidates) != 1 || res.Candidates[0].ID != 0 {
		t.Fatalf("replacement lost after load: %+v", res.Candidates)
	}
	// A further replace on the loaded index unindexes via the restored
	// keys — the stored key list must match the restored postings.
	if _, _, err := y.Upsert(mkProfile("p1", "name", "thirdtoken unique")); err != nil {
		t.Fatal(err)
	}
	if res := y.Query(&fresh); len(res.Candidates) != 0 {
		t.Fatalf("stale postings after post-load replace: %+v", res.Candidates)
	}
}

// TestNextIDSurvivesSaveLoad: forgetting the ID allocator would hand a
// post-restart insert an ID that collides with a live profile.
func TestNextIDSurvivesSaveLoad(t *testing.T) {
	cfg := DefaultConfig()
	x := New(false, cfg)
	for _, p := range synthQueryProfiles(7, 1, 1) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	y := saveLoad(t, x, cfg)
	id, created, err := y.Upsert(mkProfile("fresh", "name", "brand new"))
	if err != nil || !created {
		t.Fatalf("post-load insert: %v", err)
	}
	if id != 7 {
		t.Fatalf("post-load insert got ID %d, want 7", id)
	}
}

func TestReadOnlyReplicaRejectsWrites(t *testing.T) {
	cfg := DefaultConfig()
	x := New(false, cfg)
	for _, p := range synthQueryProfiles(10, 1, 2) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	y := saveLoad(t, x, cfg)
	y.SetReadOnly(true)
	if !y.ReadOnly() || !y.Snapshot().ReadOnly {
		t.Fatal("read-only mode not reported")
	}
	if _, _, err := y.Upsert(mkProfile("z", "name", "thing")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only upsert error = %v, want ErrReadOnly", err)
	}
	// A replica never produces snapshots either — a stale replica saving
	// to the shared path would clobber the primary's newer file.
	if _, err := y.Save(filepath.Join(t.TempDir(), "replica.snap")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only save error = %v, want ErrReadOnly", err)
	}
	// Queries still serve.
	p := synthQueryProfiles(10, 1, 2)[0]
	if res := y.Query(&p); res.Keys == 0 {
		t.Fatal("read-only query produced no keys")
	}
	y.SetReadOnly(false)
	if _, _, err := y.Upsert(mkProfile("z", "name", "thing")); err != nil {
		t.Fatalf("write after clearing read-only: %v", err)
	}
}

// TestSaveLoadSaveByteStable: encoding is canonical (profiles by ID,
// postings by key), so re-saving a loaded index reproduces the original
// bytes except for the save timestamp and the CRC that covers it.
func TestSaveLoadSaveByteStable(t *testing.T) {
	cfg := DefaultConfig()
	x := New(true, cfg)
	for _, p := range synthQueryProfiles(40, 2, 11) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "gen1.snap")
	p2 := filepath.Join(dir, "gen2.snap")
	if _, err := x.Save(p1); err != nil {
		t.Fatal(err)
	}
	y, err := Load(p1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := y.Save(p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	// The save timestamp (and therefore the CRC) differ; compare the
	// sections after it. The header prefix up to the timestamp is
	// magic(8) + version(1) + clean(1) + shards varint; timestamps are
	// varints of equal width in practice, so align from the tail.
	if len(b1) != len(b2) {
		t.Fatalf("generations differ in size: %d vs %d", len(b1), len(b2))
	}
	// Compare everything after the timestamp varint: find the common
	// prefix length of the two headers, then require the remainder up to
	// the 4-byte CRC trailer to be identical except the timestamp span.
	diff := 0
	for i := 0; i < len(b1)-4; i++ {
		if b1[i] != b2[i] {
			diff++
		}
	}
	// UnixNano timestamps ~2026 encode as 10-byte varints; only those
	// bytes may differ before the trailer.
	if diff > 10 {
		t.Fatalf("%d non-timestamp bytes differ between generations", diff)
	}
}

func TestLoadMissingFileIsNotExist(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.snap"), DefaultConfig())
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("error = %v, want fs.ErrNotExist", err)
	}
}

// TestPartialWriteNeverLoaded simulates a crash mid-save: the temp file
// exists (even with valid-looking bytes) but the rename never happened.
// Load must not read it, and a later Save must supersede it.
func TestPartialWriteNeverLoaded(t *testing.T) {
	cfg := DefaultConfig()
	x := New(false, cfg)
	if _, _, err := x.Upsert(mkProfile("p1", "name", "alpha beta")); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.snap")

	// A fully valid encoding left at the temp path must still be invisible.
	image := encodeToBytes(t, x)
	if err := os.WriteFile(path+".tmp", image, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, cfg); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("partial write was loaded: err = %v", err)
	}

	// A truncated temp file must not break the next save either.
	if err := os.WriteFile(path+".tmp", image[:len(image)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	y, err := Load(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if y.Size() != 1 {
		t.Fatalf("recovered size = %d, want 1", y.Size())
	}
}

// encodeToBytes is the in-memory snapshot of a small index, shared by
// the corruption tests and the fuzz seeds.
func encodeToBytes(t testing.TB, x *Index) []byte {
	t.Helper()
	image, _, err := x.Image()
	if err != nil {
		t.Fatal(err)
	}
	return image
}

func smallTestIndex(t testing.TB, clean bool) *Index {
	t.Helper()
	sources := 1
	if clean {
		sources = 2
	}
	x := New(clean, DefaultConfig())
	for _, p := range synthQueryProfiles(12, sources, 7) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	cfg := DefaultConfig()
	valid := encodeToBytes(t, smallTestIndex(t, true))
	if _, err := Decode(bytes.NewReader(valid), cfg); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	mutate := func(name string, f func([]byte) []byte) {
		in := f(append([]byte(nil), valid...))
		if _, err := Decode(bytes.NewReader(in), cfg); err == nil {
			t.Fatalf("%s: corrupt snapshot accepted", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("version bump", func(b []byte) []byte { b[len(snapshotMagic)] = 99; return b })
	mutate("truncated header", func(b []byte) []byte { return b[:10] })
	mutate("truncated body", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("truncated trailer", func(b []byte) []byte { return b[:len(b)-2] })
	mutate("flipped payload bit", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b })
	mutate("flipped crc bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	mutate("empty input", func(b []byte) []byte { return nil })

	// Every format version but the one this build writes surfaces as
	// ErrSnapshotVersion, so boot code can fall back to a fresh build.
	for _, v := range []byte{1, 2, snapshotVersion + 1} {
		other := append([]byte(nil), valid...)
		other[len(snapshotMagic)] = v
		if _, err := Decode(bytes.NewReader(other), cfg); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("version %d error = %v, want ErrSnapshotVersion", v, err)
		}
	}
}

// TestDecodeRejectsTrailingBytes is the one-store contract: a snapshot
// ends at its CRC. Whatever follows — a stray byte, noise, or a perfectly
// valid next op frame, which is what a pre-WAL delta tail looks like — is
// refused with an error naming its length, never dropped and never
// replayed, and not as ErrSnapshotVersion: that invites a fresh-build
// fallback, which under a WAL would lose the acknowledged writes.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	cfg := opLogConfig()
	x := New(true, cfg)
	upsertAll(t, x, synthQueryProfiles(12, 2, 7))
	valid := encodeToBytes(t, x)
	upsertAll(t, x, []profile.Profile{mkProfile("next", "name", "tok1 tail")})
	frame, _, err := x.OpsSince(12, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for name, tail := range map[string][]byte{
		"one stray byte":     {0xaa},
		"one valid op frame": frame,
		"garbage":            bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 64),
	} {
		_, err := Decode(bytes.NewReader(append(append([]byte(nil), valid...), tail...)), cfg)
		if !errors.Is(err, errSnapshotTrailing) || errors.Is(err, ErrSnapshotVersion) ||
			!strings.Contains(err.Error(), fmt.Sprintf("%d bytes", len(tail))) {
			t.Errorf("%s: err = %v, want the trailing-data error naming %d bytes", name, err, len(tail))
		}
	}
}

// TestDecodeRejectsLyingCounts hand-corrupts structural counts (which a
// CRC recompute would otherwise launder) by re-encoding with a tampered
// writer; here we just check the bound guards directly.
func TestDecodeBoundsGuards(t *testing.T) {
	if capped(10) != 10 || capped(1<<40) != 4096 {
		t.Fatalf("capped misbehaves: %d %d", capped(10), capped(1<<40))
	}
	if math.MaxInt32 < maxSnapshotString {
		t.Fatal("string bound exceeds int32 range")
	}
}

// TestDecodeRejectsInflatedIDBound: a tiny snapshot with a valid CRC but
// a huge nextID must not load — the dense query scratch is sized to the
// ID bound, so accepting it would let a ~50-byte file OOM the first
// Query. The crafted file is empty (0 profiles) with nextID=MaxInt32.
func TestDecodeRejectsInflatedIDBound(t *testing.T) {
	var body bytes.Buffer
	cw := &crcWriter{w: &body}
	cw.bytes([]byte(snapshotMagic))
	cw.uvarint(snapshotVersion)
	cw.byte(0)                // dirty
	cw.uvarint(1)             // shards
	cw.varint(0)              // savedAt
	cw.uvarint(math.MaxInt32) // nextID: lying ID bound
	cw.uvarint(0)             // queries
	cw.uvarint(0)             // upserts
	cw.uvarint(0)             // numProfiles
	cw.uvarint(0)             // numBlocks
	cw.uvarint(0)             // shard 0: no postings
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.sum)
	cw.bytes(trailer[:])
	if cw.err != nil {
		t.Fatal(cw.err)
	}
	if _, err := Decode(bytes.NewReader(body.Bytes()), DefaultConfig()); err == nil {
		t.Fatal("snapshot with inflated ID bound accepted")
	}
}
