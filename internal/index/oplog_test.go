package index

// Op log coverage: stream replay equivalence (the replication contract),
// OpsSince/ApplyOps edge semantics, and the one-write-path pin (a leader
// driven by Upsert and a WAL-attached replica fed its frames agree byte
// for byte in memory, on disk and on the wire).

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"sparker/internal/profile"
)

// opLogConfig returns the default config with the op log enabled.
func opLogConfig() Config {
	cfg := DefaultConfig()
	cfg.OpLog.Enabled = true
	return cfg
}

// upsertAll feeds profiles through Upsert, failing the test on error.
func upsertAll(t testing.TB, x *Index, ps []profile.Profile) {
	t.Helper()
	for _, p := range ps {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
}

// encodesEqual pins two indexes bitwise-identical at a fixed timestamp:
// the encode is deterministic, so equality here means every profile,
// posting list, counter and the sequence number agree exactly.
func encodesEqual(t *testing.T, what string, a, b *Index) {
	t.Helper()
	ea := encodePinned(t, a)
	eb := encodePinned(t, b)
	if !bytes.Equal(ea, eb) {
		t.Fatalf("%s: encodes differ (%d vs %d bytes)", what, len(ea), len(eb))
	}
}

// TestOpLogStreamReplay is the replication contract: a fresh follower
// replaying the leader's op stream (including replaces) converges to a
// bitwise-identical index, and keeps converging incrementally.
func TestOpLogStreamReplay(t *testing.T) {
	leader := New(true, opLogConfig())
	batch := synthQueryProfiles(30, 2, 3)
	upsertAll(t, leader, batch)
	// Replaces exercise remove-then-put replay and ID stability.
	upsertAll(t, leader, []profile.Profile{
		mkProfile("p3", "name", "replaced tok1 tok2"),
		mkProfile("p4", "name", "also replaced shared1"),
	})

	follower := New(true, opLogConfig())
	follower.SetReadOnly(true)

	frames, seq, err := leader.OpsSince(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if seq != leader.Seq() || seq != int64(len(batch))+2 {
		t.Fatalf("OpsSince seq = %d, want %d", seq, len(batch)+2)
	}
	applied, _, err := follower.ApplyOps(bytes.NewReader(frames))
	if err != nil {
		t.Fatal(err)
	}
	if int64(applied) != seq || follower.Seq() != seq {
		t.Fatalf("applied %d ops to seq %d, want %d", applied, follower.Seq(), seq)
	}
	encodesEqual(t, "full replay", leader, follower)

	// Incremental catch-up from a mid-stream position.
	upsertAll(t, leader, synthQueryProfiles(10, 2, 9)[5:])
	frames, seq, err = leader.OpsSince(follower.Seq(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := follower.ApplyOps(bytes.NewReader(frames)); err != nil {
		t.Fatal(err)
	}
	if follower.Seq() != seq {
		t.Fatalf("follower seq %d after catch-up, want %d", follower.Seq(), seq)
	}
	encodesEqual(t, "incremental replay", leader, follower)

	// The follower is still a real replica: reads work, writes don't.
	q := mkProfile("probe", "name", "tok1 tok2 shared1")
	if lr, fr := leader.Query(&q), follower.Query(&q); len(lr.Candidates) != len(fr.Candidates) {
		t.Fatalf("query answers diverge: %d vs %d candidates", len(lr.Candidates), len(fr.Candidates))
	}
	if _, _, err := follower.Upsert(mkProfile("nope", "name", "x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only follower accepted an upsert: %v", err)
	}
}

// TestOpsSinceSemantics covers the caught-up, bounded, gapped and
// disabled answers of the delta source.
func TestOpsSinceSemantics(t *testing.T) {
	x := New(false, opLogConfig())
	upsertAll(t, x, synthQueryProfiles(8, 1, 5))

	if frames, seq, err := x.OpsSince(x.Seq(), 1<<20); err != nil || frames != nil || seq != x.Seq() {
		t.Fatalf("caught-up OpsSince = %d bytes, seq %d, err %v", len(frames), seq, err)
	}
	// A tiny byte budget still returns at least one frame, and chained
	// calls drain the backlog without gaps.
	var got int64
	for got < x.Seq() {
		frames, _, err := x.OpsSince(got, 1)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := countOpFrames(frames)
		if err != nil || n == 0 {
			t.Fatalf("bounded OpsSince returned %d frames: %v", n, err)
		}
		got += int64(n)
	}

	if _, _, err := x.OpsSince(x.Seq()+5, 1<<20); !errors.Is(err, ErrOpLogGap) {
		t.Fatalf("ahead-of-log OpsSince err = %v, want ErrOpLogGap", err)
	}

	// Evict the window: a follower at seq 0 must be told to resync.
	small := DefaultConfig()
	small.OpLog = OpLogConfig{Enabled: true, MaxOps: 4}
	y := New(false, small)
	upsertAll(t, y, synthQueryProfiles(12, 1, 5))
	if _, _, err := y.OpsSince(0, 1<<20); !errors.Is(err, ErrOpLogGap) {
		t.Fatalf("evicted-window OpsSince err = %v, want ErrOpLogGap", err)
	}
	if frames, _, err := y.OpsSince(y.Seq()-2, 1<<20); err != nil || len(frames) == 0 {
		t.Fatalf("in-window OpsSince = %d bytes, err %v", len(frames), err)
	}
	if st := y.Snapshot().OpLog; st == nil || st.Ops != 4 || st.FloorSeq != y.Seq()-3 {
		t.Fatalf("retention stats = %+v", st)
	}

	z := New(false, DefaultConfig())
	if _, _, err := z.OpsSince(0, 1<<20); !errors.Is(err, ErrOpLogDisabled) {
		t.Fatalf("disabled OpsSince err = %v, want ErrOpLogDisabled", err)
	}
	if z.OpLogEnabled() || z.OpNotify() != nil {
		t.Fatal("disabled op log reports enabled surfaces")
	}

	// The long-poll primitive: a channel fetched before an append is
	// closed by it.
	ch := x.OpNotify()
	select {
	case <-ch:
		t.Fatal("notify channel closed before any append")
	default:
	}
	upsertAll(t, x, []profile.Profile{mkProfile("wake", "name", "tok1")})
	select {
	case <-ch:
	default:
		t.Fatal("notify channel not closed by append")
	}
}

// countOpFrames walks concatenated frames, validating each.
func countOpFrames(frames []byte) (n int, lastSeq int64, err error) {
	br := bufio.NewReader(bytes.NewReader(frames))
	for {
		payload, err := readOpFrame(br)
		if err == io.EOF {
			return n, lastSeq, nil
		}
		if err != nil {
			return n, lastSeq, err
		}
		o, err := decodeOpPayload(payload, false)
		if err != nil {
			return n, lastSeq, err
		}
		n++
		lastSeq = o.seq
	}
}

// TestApplyOpsRejects covers the strict side of replay: corruption,
// sequence gaps and divergent replica state all stop the stream with an
// error and an exact applied count.
func TestApplyOpsRejects(t *testing.T) {
	leader := New(false, opLogConfig())
	upsertAll(t, leader, synthQueryProfiles(6, 1, 11))
	frames, _, err := leader.OpsSince(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}

	// Bit flip mid-stream: the CRC catches it; the valid prefix applies.
	flipped := append([]byte(nil), frames...)
	flipped[len(flipped)/2] ^= 0x20
	f := New(false, opLogConfig())
	applied, _, err := f.ApplyOps(bytes.NewReader(flipped))
	if err == nil {
		t.Fatal("corrupt op stream applied cleanly")
	}
	if int64(applied) != f.Seq() {
		t.Fatalf("applied count %d disagrees with seq %d", applied, f.Seq())
	}
	if f.Seq() >= leader.Seq() {
		t.Fatalf("corrupt stream fully applied (seq %d)", f.Seq())
	}

	// Sequence gap: a follower that missed ops must not silently skip.
	one, _, err := leader.OpsSince(leader.Seq()-1, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	g := New(false, opLogConfig())
	if _, _, err := g.ApplyOps(bytes.NewReader(one)); err == nil {
		t.Fatal("out-of-sequence op applied cleanly")
	}

	// Divergence: a replica holding a conflicting identity→ID mapping
	// rejects the stream instead of corrupting posting lists.
	d := New(false, opLogConfig())
	upsertAll(t, d, []profile.Profile{mkProfile("divergent", "name", "tok1")})
	if _, _, err := d.ApplyOps(bytes.NewReader(frames)); err == nil {
		t.Fatal("divergent replica applied a conflicting stream")
	}
}
