//go:build unix

package index

// The one-write-path pin. Unix only: the bounds-rejected profile needs a
// string longer than maxSnapshotString (1 GiB), which hugeString fakes
// over an untouched anonymous mapping instead of allocating.

import (
	"bytes"
	"syscall"
	"testing"
	"unsafe"

	"sparker/internal/profile"
)

// hugeString returns a string of n bytes backed by a never-touched
// read-only anonymous mapping: length checks see n, no page is faulted
// in, and nothing may read the contents.
func hugeString(t *testing.T, n int) string {
	t.Helper()
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap %d bytes: %v", n, err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(b) })
	return unsafe.String(&b[0], n)
}

// TestOneWritePath: Upsert on a leader and ApplyOps on a WAL-attached
// replica are the same write. After inserts and overwrites shipped as
// the leader's OpsSince frames, the two agree byte for byte in memory
// (Image), on disk (segment files, rotation points included) and on
// the wire (OpsSince(0)); a profile the op bounds reject changes none of
// the three on the leader and gives the replica nothing to apply.
func TestOneWritePath(t *testing.T) {
	open := func() (*Index, string) {
		dir := t.TempDir()
		x := New(true, opLogConfig())
		cfg := walConfig(dir)
		cfg.SegmentBytes = 512 // several rotations
		if _, err := x.OpenWAL(cfg); err != nil {
			t.Fatal(err)
		}
		return x, dir
	}
	leader, leaderDir := open()
	replica, replicaDir := open()
	replica.SetReadOnly(true)

	ship := func() {
		t.Helper()
		frames, _, err := leader.OpsSince(replica.Seq(), 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := replica.ApplyOps(bytes.NewReader(frames)); err != nil {
			t.Fatal(err)
		}
	}
	wire := func(x *Index) []byte {
		t.Helper()
		frames, _, err := x.OpsSince(0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return frames
	}
	agree := func(what string) {
		t.Helper()
		if leader.Seq() != replica.Seq() {
			t.Fatalf("%s: leader at seq %d, replica at %d", what, leader.Seq(), replica.Seq())
		}
		encodesEqual(t, what, leader, replica)
		if !bytes.Equal(wire(leader), wire(replica)) {
			t.Fatalf("%s: OpsSince(0) frames differ", what)
		}
		l, r := dirBytes(t, leaderDir), dirBytes(t, replicaDir)
		if len(l) != len(r) {
			t.Fatalf("%s: %d leader segments, %d replica segments", what, len(l), len(r))
		}
		for name, b := range l {
			if !bytes.Equal(b, r[name]) {
				t.Fatalf("%s: segment %s differs (%d vs %d bytes)", what, name, len(b), len(r[name]))
			}
		}
	}

	upsertAll(t, leader, synthQueryProfiles(30, 2, 3))
	ship()
	agree("inserts")
	if len(dirBytes(t, leaderDir)) < 3 {
		t.Fatal("rotation did not kick in")
	}

	// Overwrites (remove-then-put, ID kept) mixed with further inserts,
	// shipped in two batches so the replica commits mid-history too.
	upsertAll(t, leader, []profile.Profile{
		mkProfile("p3", "name", "replaced tok1 tok2"),
		mkProfile("fresh1", "name", "brand new shared1"),
	})
	ship()
	upsertAll(t, leader, []profile.Profile{
		mkProfile("p3", "name", "replaced again tok9"),
		mkProfile("p4", "name", "also replaced shared1"),
	})
	ship()
	agree("overwrites")

	// A profile past the op bounds is refused before anything is written
	// ahead, applied, numbered or retained.
	before, beforeDisk, beforeWire := encodePinned(t, leader), dirBytes(t, leaderDir), wire(leader)
	tooBig := profile.Profile{OriginalID: "huge", Attributes: []profile.KeyValue{
		{Key: "name", Value: hugeString(t, maxSnapshotString+1)},
	}}
	if _, _, err := leader.Upsert(tooBig); err == nil {
		t.Fatal("profile beyond the op string limit accepted")
	}
	if !bytes.Equal(before, encodePinned(t, leader)) || !bytes.Equal(beforeWire, wire(leader)) {
		t.Fatal("rejected profile changed the leader's state or op window")
	}
	for name, b := range dirBytes(t, leaderDir) {
		if !bytes.Equal(b, beforeDisk[name]) {
			t.Fatalf("rejected profile reached segment %s", name)
		}
	}
	ship()
	agree("after rejection")

	// Both keep going from the same place.
	upsertAll(t, leader, []profile.Profile{mkProfile("after", "name", "tok1 after reject")})
	ship()
	agree("write after rejection")
}
