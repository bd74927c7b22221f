package serve

// Replication robustness added with the durable op log: error backoff
// (exponential, jittered, capped, reset on success), last_error
// clearing on recovery, chained replication at depth 2, and the
// crash-restart contract — a leader that dies mid-traffic and comes
// back from snapshot + WAL serves its followers with zero resyncs.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"sparker/internal/index"
	"sparker/internal/profile"
)

func TestNextBackoff(t *testing.T) {
	base, cap := 100*time.Millisecond, time.Second
	var got []time.Duration
	cur := time.Duration(0)
	for i := 0; i < 6; i++ {
		cur = nextBackoff(cur, base, cap)
		got = append(got, cur)
	}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	// Reset-on-success restarts the ladder at the floor.
	if b := nextBackoff(0, base, cap); b != base {
		t.Fatalf("after reset = %v, want %v", b, base)
	}
	// Overflow saturates at the cap instead of going negative.
	if b := nextBackoff(1<<62, base, cap); b != cap {
		t.Fatalf("overflow step = %v, want %v", b, cap)
	}
}

func TestJitteredBackoff(t *testing.T) {
	d := 400 * time.Millisecond
	for i := 0; i < 200; i++ {
		j := jitteredBackoff(d)
		if j < d/2 || j >= d {
			t.Fatalf("jitteredBackoff(%v) = %v, want in [%v, %v)", d, j, d/2, d)
		}
	}
	if j := jitteredBackoff(0); j != 0 {
		t.Fatalf("jitteredBackoff(0) = %v", j)
	}
}

// flakyLeader wraps a real leader handler behind an on/off switch: while
// down, every request fails with 502 — the HTTP shape of a dead leader
// with a live load balancer — and the inner handler can be swapped, the
// restart seam the crash test uses.
type flakyLeader struct {
	inner atomic.Pointer[Handler]
	down  atomic.Bool
}

func (fl *flakyLeader) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if fl.down.Load() {
		http.Error(w, "leader down", http.StatusBadGateway)
		return
	}
	fl.inner.Load().ServeHTTP(w, r)
}

// TestBackoffAndLastErrorLifecycle pins the consumer-side hardening:
// while the leader is down, errors accumulate and the backoff climbs
// past the floor; once the leader returns, the follower catches up,
// last_error clears (the stale-/v1/stats bug) and the backoff resets.
func TestBackoffAndLastErrorLifecycle(t *testing.T) {
	leaderIdx := oplogIndex(t, oplogConfig(), 8)
	fl := &flakyLeader{}
	fl.inner.Store(NewHandlerOptions(leaderIdx, Options{}))
	srv := httptest.NewServer(fl)
	defer srv.Close()

	f := NewFollower(srv.URL, oplogConfig(), FollowerOptions{
		PollWait:   50 * time.Millisecond,
		Interval:   5 * time.Millisecond,
		MaxBackoff: 40 * time.Millisecond,
		Logger:     quietLogger(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fx, err := f.Bootstrap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fh := NewHandlerOptions(fx, Options{Follower: f})
	go func() { _ = f.Run(ctx, fh) }()

	fl.down.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Stats()
		if st.Errors >= 4 && st.LastError != "" && st.BackoffSeconds > f.interval.Seconds() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backoff never climbed: %+v", f.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Leader returns with new writes; the follower must recover fully.
	p := profile.Profile{OriginalID: "revived"}
	p.Add("name", "tok1 back from the dead")
	if _, _, err := leaderIdx.Upsert(p); err != nil {
		t.Fatal(err)
	}
	fl.down.Store(false)
	for {
		st := f.Stats()
		if st.AppliedSeq == leaderIdx.Seq() && st.LastError == "" && st.BackoffSeconds == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never recovered cleanly: %+v", f.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChainedReplicationDepthTwo pins leader → follower → follower: the
// depth-2 replica converges byte-identical to the leader, and both lag
// measurements drain through the chain.
func TestChainedReplicationDepthTwo(t *testing.T) {
	leaderIdx := oplogIndex(t, oplogConfig(), 16)
	leader := httptest.NewServer(NewHandlerOptions(leaderIdx, Options{}))
	defer leader.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// f1 keeps its own op log (oplogConfig), which is what lets it feed
	// the next hop.
	mid := NewFollower(leader.URL, oplogConfig(), FollowerOptions{
		PollWait: 200 * time.Millisecond,
		Interval: 10 * time.Millisecond,
		Logger:   quietLogger(),
	})
	midIdx, err := mid.Bootstrap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	midH := NewHandlerOptions(midIdx, Options{Follower: mid})
	midSrv := httptest.NewServer(midH)
	defer midSrv.Close()
	go func() { _ = mid.Run(ctx, midH) }()

	tail := NewFollower(midSrv.URL, oplogConfig(), FollowerOptions{
		PollWait: 200 * time.Millisecond,
		Interval: 10 * time.Millisecond,
		Logger:   quietLogger(),
	})
	tailIdx, err := tail.Bootstrap(ctx)
	if err != nil {
		t.Fatalf("depth-2 bootstrap (from a follower): %v", err)
	}
	tailH := NewHandlerOptions(tailIdx, Options{Follower: tail})
	tailSrv := httptest.NewServer(tailH)
	defer tailSrv.Close()
	go func() { _ = tail.Run(ctx, tailH) }()

	// Write through the leader; the ops must propagate two hops.
	for i := 0; i < 5; i++ {
		p := profile.Profile{OriginalID: fmt.Sprintf("chain%d", i)}
		p.Add("name", fmt.Sprintf("chained tok%d shared%d", i%12, i%4))
		if _, _, err := leaderIdx.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	waitForSeq(t, midSrv.Client(), midSrv.URL, leaderIdx.Seq())
	waitForSeq(t, tailSrv.Client(), tailSrv.URL, leaderIdx.Seq())

	// Lag propagated through the chain: each hop tracked its upstream's
	// head and drained to it.
	midSt, tailSt := mid.Stats(), tail.Stats()
	if midSt.LeaderSeq != leaderIdx.Seq() || midSt.AppliedSeq != leaderIdx.Seq() {
		t.Fatalf("mid stats %+v, want applied=leader=%d", midSt, leaderIdx.Seq())
	}
	if tailSt.LeaderSeq != midH.Index().Seq() || tailSt.AppliedSeq != leaderIdx.Seq() {
		t.Fatalf("tail stats %+v, want applied=%d tracking mid", tailSt, leaderIdx.Seq())
	}
	if tailSt.Resyncs != 0 || midSt.Resyncs != 0 {
		t.Fatalf("chain resynced: mid %d, tail %d", midSt.Resyncs, tailSt.Resyncs)
	}

	// The depth-2 replica answers byte-identically to the leader.
	want := queryAnswer(t, leader.Client(), leader.URL)
	viaMid := queryAnswer(t, midSrv.Client(), midSrv.URL)
	viaTail := queryAnswer(t, tailSrv.Client(), tailSrv.URL)
	if !bytes.Equal(want, viaMid) {
		t.Fatalf("depth-1 answer diverged:\nleader: %s\nmid:    %s", want, viaMid)
	}
	if !bytes.Equal(want, viaTail) {
		t.Fatalf("depth-2 answer diverged:\nleader: %s\ntail:   %s", want, viaTail)
	}
}

// TestLeaderCrashRestartNoResync is the serve-level acceptance pin: a
// leader with a durable op log dies mid-traffic (no clean shutdown, no
// final save), restarts from snapshot + WAL, and its follower catches
// up over the same /v1/deltas feed — zero resyncs, byte-identical answers.
func TestLeaderCrashRestartNoResync(t *testing.T) {
	walDir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "leader.snap")

	leaderIdx := oplogIndex(t, oplogConfig(), 12)
	if _, err := leaderIdx.OpenWAL(index.WALConfig{Dir: walDir, Sync: index.WALSyncNever}); err != nil {
		t.Fatal(err)
	}
	// A snapshot exists from before the crash window (the serving tier's
	// periodic save); everything after it lives only in the WAL.
	if _, err := leaderIdx.Save(snap); err != nil {
		t.Fatal(err)
	}

	fl := &flakyLeader{}
	fl.inner.Store(NewHandlerOptions(leaderIdx, Options{}))
	srv := httptest.NewServer(fl)
	defer srv.Close()

	f := NewFollower(srv.URL, oplogConfig(), FollowerOptions{
		PollWait:   100 * time.Millisecond,
		Interval:   5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		Logger:     quietLogger(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fx, err := f.Bootstrap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fh := NewHandlerOptions(fx, Options{Follower: f})
	fsrv := httptest.NewServer(fh)
	defer fsrv.Close()
	go func() { _ = f.Run(ctx, fh) }()

	// Traffic after the snapshot: these ops exist only in WAL + memory.
	for i := 0; i < 6; i++ {
		p := profile.Profile{OriginalID: fmt.Sprintf("crash%d", i)}
		p.Add("name", fmt.Sprintf("mid traffic tok%d shared%d", i%12, i%4))
		if _, _, err := leaderIdx.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	waitForSeq(t, fsrv.Client(), fsrv.URL, leaderIdx.Seq())
	deadSeq := leaderIdx.Seq()

	// kill -9: the leader vanishes with no CloseWAL, no final save. Its
	// in-memory op window dies with it; only snapshot + WAL remain.
	fl.down.Store(true)

	// Restart: snapshot restore, then WAL replay through the strict
	// apply path. The replay must rebuild the in-memory window too.
	restarted, err := index.Load(snap, oplogConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := restarted.OpenWAL(index.WALConfig{Dir: walDir, Sync: index.WALSyncNever})
	if err != nil {
		t.Fatalf("WAL recovery: %v", err)
	}
	if restarted.Seq() != deadSeq {
		t.Fatalf("restarted at seq %d, want %d (recovery %+v)", restarted.Seq(), deadSeq, rec)
	}
	fl.inner.Store(NewHandlerOptions(restarted, Options{}))
	fl.down.Store(false)

	// More traffic through the restarted leader; the follower must tail
	// straight through the restart.
	for i := 0; i < 4; i++ {
		p := profile.Profile{OriginalID: fmt.Sprintf("post%d", i)}
		p.Add("name", fmt.Sprintf("post restart tok%d shared%d", i%12, i%4))
		if _, _, err := restarted.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	waitForSeq(t, fsrv.Client(), fsrv.URL, restarted.Seq())

	st := f.Stats()
	if st.Resyncs != 0 {
		t.Fatalf("follower resynced %d times across the restart, want 0 (stats %+v)", st.Resyncs, st)
	}
	if st.LastError != "" {
		t.Fatalf("stale last_error after recovery: %q", st.LastError)
	}
	want := queryAnswer(t, srv.Client(), srv.URL)
	got := queryAnswer(t, fsrv.Client(), fsrv.URL)
	if !bytes.Equal(want, got) {
		t.Fatalf("follower diverged across leader crash:\nleader:   %s\nfollower: %s", want, got)
	}
}
