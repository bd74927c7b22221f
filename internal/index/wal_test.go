package index

// Durable op-log (WAL) coverage: recovery equivalence with and without a
// snapshot (the crash-safe restart contract), torn and bit-flipped tail
// truncation, mid-log damage dropping later segments, rotation and
// retention pruning, fsync policies, sticky write/fsync failures,
// OpsSince across a restart (the no-follower-resync pin), and a
// crash-image battery that recovers the log at arbitrary byte boundaries
// and around every step of a checkpoint.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparker/internal/profile"
)

// walConfig returns a WAL config for tests: no fsync (tmpfs-speed) and a
// rotation threshold small enough that batteries exercise rotation.
func walConfig(dir string) WALConfig {
	return WALConfig{Dir: dir, Sync: WALSyncNever}
}

// walIndex builds an op-log index with an attached WAL and n synthetic
// profiles written through Upsert.
func walIndex(t *testing.T, dir string, n int) *Index {
	t.Helper()
	x := New(true, opLogConfig())
	if _, err := x.OpenWAL(walConfig(dir)); err != nil {
		t.Fatal(err)
	}
	upsertAll(t, x, synthQueryProfiles(n, 2, 7))
	return x
}

// countCleanFrames is countOpFrames for clean-clean task frames (the
// shared helper decodes with dirty semantics and rejects source 1).
func countCleanFrames(frames []byte) (n int, lastSeq int64, err error) {
	br := bufio.NewReader(bytes.NewReader(frames))
	for {
		payload, err := readOpFrame(br)
		if err == io.EOF {
			return n, lastSeq, nil
		}
		if err != nil {
			return n, lastSeq, err
		}
		o, err := decodeOpPayload(payload, true)
		if err != nil {
			return n, lastSeq, err
		}
		n++
		lastSeq = o.seq
	}
}

// segmentPaths lists the on-disk segments, ascending.
func segmentPaths(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := listWALSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(segs))
	for i, s := range segs {
		paths[i] = s.path
	}
	return paths
}

func TestWALOpenRequirements(t *testing.T) {
	if _, err := New(true, DefaultConfig()).OpenWAL(walConfig(t.TempDir())); !errors.Is(err, ErrOpLogDisabled) {
		t.Fatalf("OpenWAL without op log: err = %v, want ErrOpLogDisabled", err)
	}
	if _, err := New(true, opLogConfig()).OpenWAL(WALConfig{}); err == nil {
		t.Fatal("OpenWAL with empty Dir succeeded")
	}
	x := New(true, opLogConfig())
	dir := t.TempDir()
	if _, err := x.OpenWAL(walConfig(dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := x.OpenWAL(walConfig(dir)); err == nil {
		t.Fatal("second OpenWAL succeeded")
	}
	if !x.WALEnabled() {
		t.Fatal("WALEnabled = false after open")
	}
	if err := x.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if x.WALEnabled() {
		t.Fatal("WALEnabled = true after close")
	}
	// Closing twice is a no-op, and the index keeps accepting writes
	// (in-memory only) after the log detaches.
	if err := x.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := x.Upsert(mkProfile("after-close", "name", "alpha beta")); err != nil {
		t.Fatal(err)
	}
}

// TestWALRecoverFresh is the no-snapshot restart: a fresh index replays
// the whole log and converges to the writer's state.
func TestWALRecoverFresh(t *testing.T) {
	dir := t.TempDir()
	leader := walIndex(t, dir, 25)
	// Replaces exercise remove-then-put through the WAL too.
	upsertAll(t, leader, []profile.Profile{
		mkProfile("p3", "name", "replaced tok1 tok2"),
		mkProfile("p4", "name", "also replaced shared1"),
	})
	if err := leader.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	restarted := New(true, opLogConfig())
	rec, err := restarted.OpenWAL(walConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != leader.Seq() || rec.SkippedOps != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v, want %d replayed and nothing skipped or truncated", rec, leader.Seq())
	}
	sameState(t, "fresh recovery", leader, restarted)

	// The restarted index keeps writing into the same log.
	upsertAll(t, restarted, []profile.Profile{mkProfile("new", "name", "post restart tok")})
	if err := restarted.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	again := New(true, opLogConfig())
	if _, err := again.OpenWAL(walConfig(dir)); err != nil {
		t.Fatal(err)
	}
	sameState(t, "second recovery", restarted, again)
}

// TestWALRecoverWithSnapshot is the acceptance pin: a leader restarted
// from snapshot + WAL tail is in the state of one that never died,
// answers queries identically, and serves OpsSince across the restart so
// a follower needs no resync.
func TestWALRecoverWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "index.snap")
	leader := walIndex(t, dir, 20)
	if _, err := leader.Save(snap); err != nil {
		t.Fatal(err)
	}
	tail := synthQueryProfiles(30, 2, 11)[20:] // 10 more ops past the snapshot
	upsertAll(t, leader, tail)
	if err := leader.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	restarted, err := Load(snap, opLogConfig())
	if err != nil {
		t.Fatal(err)
	}
	if restarted.Seq() != 20 {
		t.Fatalf("snapshot seq = %d, want 20", restarted.Seq())
	}
	rec, err := restarted.OpenWAL(walConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 10 {
		t.Fatalf("recovery replayed %d ops, want 10 (recovery = %+v)", rec.Replayed, rec)
	}
	sameState(t, "snapshot+WAL recovery", leader, restarted)

	// Queries answer identically to the leader that never died.
	q := mkProfile("probe", "name", "tok3 tok7 shared1")
	a := leader.Query(&q).Candidates
	b := restarted.Query(&q).Candidates
	if len(a) != len(b) {
		t.Fatalf("query lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query candidate %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}

	// The replay repopulated the in-memory window: a follower that was
	// at seq 15 when the leader died streams the rest with no gap.
	frames, seq, err := restarted.OpsSince(15, 1<<30)
	if err != nil {
		t.Fatalf("OpsSince across restart: %v", err)
	}
	n, last, err := countCleanFrames(frames)
	if err != nil || n != 15 || last != seq || seq != 30 {
		t.Fatalf("OpsSince(15) = %d frames to %d (seq %d, err %v), want 15 to 30", n, last, seq, err)
	}
}

// mutateTail reopens the last segment and applies f to its bytes.
func mutateTail(t *testing.T, dir string, f func([]byte) []byte) {
	t.Helper()
	paths := segmentPaths(t, dir)
	if len(paths) == 0 {
		t.Fatal("no segments")
	}
	last := paths[len(paths)-1]
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, f(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	leader := walIndex(t, dir, 12)
	if err := leader.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// Tear mid-frame: drop 3 bytes, leaving the final frame short.
	mutateTail(t, dir, func(b []byte) []byte { return b[:len(b)-3] })

	restarted := New(true, opLogConfig())
	rec, err := restarted.OpenWAL(walConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatalf("recovery = %+v, want a truncated tail", rec)
	}
	if got := restarted.Seq(); got != 11 {
		t.Fatalf("recovered seq = %d, want 11 (last good frame)", got)
	}
	// The truncated file is clean again: appends continue and a second
	// recovery sees no damage.
	upsertAll(t, restarted, []profile.Profile{mkProfile("heal", "name", "healed tok")})
	if err := restarted.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	again := New(true, opLogConfig())
	rec2, err := again.OpenWAL(walConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("second recovery = %+v, want no truncation", rec2)
	}
	sameState(t, "healed log", restarted, again)
}

func TestWALBitFlippedTailTruncates(t *testing.T) {
	dir := t.TempDir()
	leader := walIndex(t, dir, 12)
	if err := leader.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	mutateTail(t, dir, func(b []byte) []byte {
		b[len(b)-5] ^= 0x20 // inside the final frame's payload or CRC
		return b
	})
	restarted := New(true, opLogConfig())
	rec, err := restarted.OpenWAL(walConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatalf("recovery = %+v, want the flipped frame truncated", rec)
	}
	if got := restarted.Seq(); got != 11 {
		t.Fatalf("recovered seq = %d, want 11", got)
	}
}

// TestWALMidLogDamageDropsLaterSegments pins the multi-segment damage
// contract: recovery stops at the last good frame before the corruption
// and removes the segments after it (their frames can no longer apply in
// sequence), reporting both.
func TestWALMidLogDamageDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	x := New(true, opLogConfig())
	cfg := walConfig(dir)
	cfg.SegmentBytes = 256 // force several segments
	if _, err := x.OpenWAL(cfg); err != nil {
		t.Fatal(err)
	}
	upsertAll(t, x, synthQueryProfiles(40, 2, 13))
	if err := x.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	paths := segmentPaths(t, dir)
	if len(paths) < 3 {
		t.Fatalf("got %d segments, want >= 3 (rotation did not kick in)", len(paths))
	}
	// Flip a byte in the middle of the first segment.
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(paths[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	restarted := New(true, opLogConfig())
	rec, err := restarted.OpenWAL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes == 0 || rec.DroppedSegments != len(paths)-1 {
		t.Fatalf("recovery = %+v, want truncation and %d dropped segments", rec, len(paths)-1)
	}
	if restarted.Seq() == 0 || restarted.Seq() >= x.Seq() {
		t.Fatalf("recovered seq = %d, want a proper prefix of %d", restarted.Seq(), x.Seq())
	}
	if got := segmentPaths(t, dir); len(got) != 1 {
		t.Fatalf("%d segments remain, want 1", len(got))
	}
}

// TestWALRotationAndPrune drives rotation with a small threshold, then
// verifies a save prunes everything the snapshot covers and that
// snapshot + surviving segments still recover the full state.
func TestWALRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "index.snap")
	x := New(true, opLogConfig())
	cfg := walConfig(dir)
	cfg.SegmentBytes = 256
	if _, err := x.OpenWAL(cfg); err != nil {
		t.Fatal(err)
	}
	upsertAll(t, x, synthQueryProfiles(40, 2, 17))
	st := x.Snapshot()
	if st.WAL == nil {
		t.Fatal("Snapshot.WAL is nil with a WAL attached")
	}
	if st.WAL.Segments < 3 || st.WAL.Rotations < 2 {
		t.Fatalf("WAL stats = %+v, want >= 3 segments from rotation", st.WAL)
	}
	if _, err := x.Save(snap); err != nil {
		t.Fatal(err)
	}
	after := x.Snapshot().WAL
	if after.PrunedSegments == 0 || after.Segments != 1 {
		t.Fatalf("after save WAL stats = %+v, want all sealed segments pruned", after)
	}

	// More writes, then a second save: retention keeps honoring the seq
	// the snapshot file covers.
	upsertAll(t, x, synthQueryProfiles(60, 2, 17)[40:])
	if _, err := x.Save(snap); err != nil {
		t.Fatal(err)
	}
	if err := x.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	restarted, err := Load(snap, opLogConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restarted.OpenWAL(cfg); err != nil {
		t.Fatal(err)
	}
	sameState(t, "post-prune recovery", x, restarted)
}

// TestWALSeqGapIsHardError: a pruned-too-far log (first segment deleted
// by hand) cannot silently recover — the missing ops are gone.
func TestWALSeqGapIsHardError(t *testing.T) {
	dir := t.TempDir()
	x := New(true, opLogConfig())
	cfg := walConfig(dir)
	cfg.SegmentBytes = 256
	if _, err := x.OpenWAL(cfg); err != nil {
		t.Fatal(err)
	}
	upsertAll(t, x, synthQueryProfiles(40, 2, 19))
	if err := x.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	paths := segmentPaths(t, dir)
	if len(paths) < 2 {
		t.Fatalf("got %d segments, want >= 2", len(paths))
	}
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := New(true, opLogConfig()).OpenWAL(cfg); err == nil || !strings.Contains(err.Error(), "jumps to seq") {
		t.Fatalf("recovery across a deleted segment: err = %v, want a sequence-gap error", err)
	}
}

func TestWALSyncPolicyParse(t *testing.T) {
	for in, want := range map[string]WALSyncPolicy{
		"always": WALSyncAlways, "Interval": WALSyncInterval,
		"never": WALSyncNever, "": WALSyncInterval,
	} {
		got, err := ParseWALSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseWALSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseWALSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseWALSyncPolicy accepted garbage")
	}
	for p, name := range map[WALSyncPolicy]string{
		WALSyncAlways: "always", WALSyncInterval: "interval", WALSyncNever: "never",
	} {
		if p.String() != name {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), name)
		}
	}
}

// TestWALSyncPolicies exercises appends and recovery under each policy;
// the interval policy must be seen actually syncing in the background.
func TestWALSyncPolicies(t *testing.T) {
	for _, policy := range []WALSyncPolicy{WALSyncAlways, WALSyncInterval, WALSyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			x := New(true, opLogConfig())
			cfg := WALConfig{Dir: dir, Sync: policy, SyncInterval: time.Millisecond}
			if _, err := x.OpenWAL(cfg); err != nil {
				t.Fatal(err)
			}
			upsertAll(t, x, synthQueryProfiles(10, 2, 23))
			if policy == WALSyncAlways {
				if s := x.Snapshot().WAL; s.Syncs < 10 {
					t.Fatalf("always policy synced %d times for 10 appends", s.Syncs)
				}
			}
			if policy == WALSyncInterval {
				deadline := time.Now().Add(5 * time.Second)
				for x.Snapshot().WAL.Syncs == 0 {
					if time.Now().After(deadline) {
						t.Fatal("interval flusher never synced")
					}
					time.Sleep(time.Millisecond)
				}
			}
			if err := x.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			restarted := New(true, opLogConfig())
			if _, err := restarted.OpenWAL(cfg); err != nil {
				t.Fatal(err)
			}
			sameState(t, policy.String()+" recovery", x, restarted)
		})
	}
}

// dirBytes reads every file of a flat directory, keyed by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// copyDir snapshots a WAL directory into a fresh one — a crash image:
// what the filesystem would hold if the process died at this instant.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, b := range dirBytes(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWALCrashImageBattery is the fault-injection battery: take the
// final log, cut the tail segment at every byte boundary in its last two
// frames (and a spread of earlier offsets), and require each image to
// recover without error to some sequence S whose state is exactly
// that of the first S ops — never a torn half-op, never a panic. Then a
// checkpoint mid-history: a crash between any two steps of Save (encode
// to .tmp, rename, prune) recovers to the acknowledged state.
func TestWALCrashImageBattery(t *testing.T) {
	dir := t.TempDir()
	leader := walIndex(t, dir, 15)
	if err := leader.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	frames, _, err := leader.OpsSince(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	// reference(S) = a fresh index with the first S ops applied.
	reference := func(s int64) *Index {
		ref := New(true, opLogConfig())
		n, last, err := countCleanFrames(frames)
		if err != nil || int64(n) < s || last < s {
			t.Fatalf("reference frames: n=%d last=%d err=%v", n, last, err)
		}
		off := 0
		for applied := int64(0); applied < s; applied++ {
			plen := int(uint32(frames[off]) | uint32(frames[off+1])<<8 | uint32(frames[off+2])<<16 | uint32(frames[off+3])<<24)
			off += opFrameOverhead + plen
		}
		if _, _, err := ref.ApplyOps(bytes.NewReader(frames[:off])); err != nil {
			t.Fatal(err)
		}
		return ref
	}

	paths := segmentPaths(t, dir)
	last := paths[len(paths)-1]
	full, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Every boundary in the final ~200 bytes plus a coarse sweep before.
	var cuts []int
	for c := 0; c < len(full); c += 97 {
		cuts = append(cuts, c)
	}
	start := len(full) - 200
	if start < 0 {
		start = 0
	}
	for c := start; c <= len(full); c++ {
		cuts = append(cuts, c)
	}
	for _, cut := range cuts {
		img := copyDir(t, dir)
		if err := os.WriteFile(filepath.Join(img, filepath.Base(last)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recovered := New(true, opLogConfig())
		rec, err := recovered.OpenWAL(walConfig(img))
		if err != nil {
			t.Fatalf("cut %d: recovery error: %v", cut, err)
		}
		if err := recovered.CloseWAL(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		s := recovered.Seq()
		if s > leader.Seq() {
			t.Fatalf("cut %d: recovered seq %d beyond writer's %d", cut, s, leader.Seq())
		}
		sameState(t, "crash image", reference(s), recovered)
		_ = rec
	}

	// The checkpoint: an old snapshot at seq 20, 25 more acknowledged ops
	// across several segments, then a Save caught at each of its steps.
	readFile := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	walDir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "idx.snap")
	cfg := walConfig(walDir)
	cfg.SegmentBytes = 256
	x := New(true, opLogConfig())
	if _, err := x.OpenWAL(cfg); err != nil {
		t.Fatal(err)
	}
	upsertAll(t, x, synthQueryProfiles(20, 2, 7))
	if _, err := x.Save(snap); err != nil {
		t.Fatal(err)
	}
	upsertAll(t, x, synthQueryProfiles(44, 2, 29)[20:])
	upsertAll(t, x, []profile.Profile{mkProfile("p3", "name", "overwritten past the old checkpoint")})
	oldSnap, unpruned := readFile(snap), copyDir(t, walDir)
	halfWritten := encodeToBytes(t, x)
	halfWritten = halfWritten[:len(halfWritten)/2]
	if _, err := x.Save(snap); err != nil {
		t.Fatal(err)
	}
	newSnap, pruned := readFile(snap), copyDir(t, walDir)
	if len(segmentPaths(t, pruned)) >= len(segmentPaths(t, unpruned)) {
		t.Fatal("the checkpoint pruned nothing: the images below would not differ")
	}
	for _, img := range []struct {
		name      string
		snap, tmp []byte
		wal       string
	}{
		{"before the save", oldSnap, nil, unpruned},
		{"stale .tmp beside the old snapshot", oldSnap, halfWritten, unpruned},
		{"renamed, nothing pruned", newSnap, nil, unpruned},
		{"pruned", newSnap, nil, pruned},
	} {
		path := filepath.Join(t.TempDir(), "idx.snap")
		if err := os.WriteFile(path, img.snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if img.tmp != nil {
			if err := os.WriteFile(path+".tmp", img.tmp, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		recovered, err := Load(path, opLogConfig())
		if err != nil {
			t.Fatalf("%s: load: %v", img.name, err)
		}
		cfg.Dir = copyDir(t, img.wal)
		if _, err := recovered.OpenWAL(cfg); err != nil {
			t.Fatalf("%s: recovery: %v", img.name, err)
		}
		sameState(t, img.name, x, recovered)
		if err := recovered.CloseWAL(); err != nil {
			t.Fatalf("%s: %v", img.name, err)
		}
	}
	if err := x.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALFailureIsSticky: once a segment write or fsync fails, the log
// acknowledges nothing more — appending behind torn bytes would put
// acknowledged frames where recovery, which truncates at the first bad
// frame, drops them. Every later Upsert fails until the log is reopened,
// and the reopened log holds exactly the acknowledged ops.
func TestWALFailureIsSticky(t *testing.T) {
	for _, tc := range []struct {
		name string
		sync WALSyncPolicy
		// bad returns an fd standing in for the active segment.
		bad func(t *testing.T, path string) *os.File
	}{
		{"write", WALSyncNever, func(t *testing.T, path string) *os.File {
			f, err := os.Open(path) // read-only: Write fails
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
		{"fsync", WALSyncAlways, func(t *testing.T, _ string) *os.File {
			r, w, err := os.Pipe() // Write succeeds, Sync fails
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return w
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := WALConfig{Dir: t.TempDir(), Sync: tc.sync}
			x := New(true, opLogConfig())
			if _, err := x.OpenWAL(cfg); err != nil {
				t.Fatal(err)
			}
			upsertAll(t, x, synthQueryProfiles(5, 2, 7))

			w := x.wal
			w.mu.Lock()
			good := w.f
			bad := tc.bad(t, w.path)
			w.f = bad
			w.mu.Unlock()
			if _, _, err := x.Upsert(mkProfile("lost", "name", "never acknowledged")); err == nil {
				t.Fatalf("upsert through a failing %s succeeded", tc.name)
			}
			// The fault clears; the log must not resume on its own.
			w.mu.Lock()
			w.f = good
			w.mu.Unlock()
			bad.Close()
			if _, _, err := x.Upsert(mkProfile("behind", "name", "would land behind the tear")); err == nil {
				t.Fatalf("upsert after a %s failure was acknowledged", tc.name)
			}
			if x.Seq() != 5 || x.Size() != 5 {
				t.Fatalf("failed upserts changed the index: seq %d size %d", x.Seq(), x.Size())
			}
			if err := x.CloseWAL(); err == nil {
				t.Fatal("CloseWAL hid the failure")
			}

			reopened := New(true, opLogConfig())
			if _, err := reopened.OpenWAL(cfg); err != nil {
				t.Fatal(err)
			}
			sameState(t, "reopened log", x, reopened)
			upsertAll(t, reopened, []profile.Profile{mkProfile("healed", "name", "acknowledged again")})
			if err := reopened.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
