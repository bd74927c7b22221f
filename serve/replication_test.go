package serve

// Tests of the replication surface: the /v1/deltas and /v1/snapshot leader
// endpoints, the Follower loop end to end (bootstrap, tail, leader
// death, retention-gap resync), the replica /readyz gate and the
// Retry-After derivation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sparker/internal/index"
	"sparker/internal/profile"
)

// oplogConfig is the serving config every replication test uses: op
// log on, everything else default.
func oplogConfig() index.Config {
	cfg := index.DefaultConfig()
	cfg.OpLog.Enabled = true
	return cfg
}

// oplogIndex builds a dirty op-log-enabled index with n overlapping
// profiles, so queries always yield candidates.
func oplogIndex(t *testing.T, cfg index.Config, n int) *index.Index {
	t.Helper()
	x := index.New(false, cfg)
	for i := 0; i < n; i++ {
		p := profile.Profile{OriginalID: fmt.Sprintf("p%d", i)}
		p.Add("name", fmt.Sprintf("tok%d tok%d shared%d", i%12, (i/2)%12, i%4))
		p.Add("desc", fmt.Sprintf("word%d common", i%8))
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatalf("upsert: %v", err)
		}
	}
	return x
}

// quietLogger drops replication warnings: the leader-death tests
// produce them by design.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func getBody(t *testing.T, client *http.Client, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, resp.Header, body
}

func TestDeltasEndpointSemantics(t *testing.T) {
	x := oplogIndex(t, oplogConfig(), 10)
	srv := httptest.NewServer(NewHandlerOptions(x, Options{}))
	defer srv.Close()
	client := srv.Client()

	// Frames from zero: everything, with the head seq in the header.
	code, hdr, body := getBody(t, client, srv.URL+"/v1/deltas?since=0")
	if code != http.StatusOK {
		t.Fatalf("since=0 status = %d, want 200", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type = %q", ct)
	}
	if hdr.Get(deltaSeqHeader) != "10" {
		t.Fatalf("%s = %q, want 10", deltaSeqHeader, hdr.Get(deltaSeqHeader))
	}
	if len(body) == 0 {
		t.Fatal("empty frame body")
	}

	// The frames must replay into an identical index.
	y := index.New(false, oplogConfig())
	if applied, _, err := y.ApplyOps(bytes.NewReader(body)); err != nil || applied != 10 {
		t.Fatalf("replay: applied %d, err %v", applied, err)
	}
	if y.Size() != x.Size() {
		t.Fatalf("replayed size %d, want %d", y.Size(), x.Size())
	}

	// Caught up with no wait: 204 and the head seq.
	code, hdr, _ = getBody(t, client, srv.URL+"/v1/deltas?since=10")
	if code != http.StatusNoContent || hdr.Get(deltaSeqHeader) != "10" {
		t.Fatalf("caught-up poll: status %d, seq %q", code, hdr.Get(deltaSeqHeader))
	}

	// Ahead of the log: 410, the resync signal.
	if code, _, _ = getBody(t, client, srv.URL+"/v1/deltas?since=99"); code != http.StatusGone {
		t.Fatalf("ahead-of-log status = %d, want 410", code)
	}

	// Malformed params: 400.
	for _, q := range []string{"?since=-1", "?since=abc", "?since=0&wait_ms=-5", "?since=0&wait_ms=x"} {
		if code, _, _ = getBody(t, client, srv.URL+"/v1/deltas"+q); code != http.StatusBadRequest {
			t.Fatalf("deltas%s status = %d, want 400", q, code)
		}
	}

	// Wrong method: 405.
	resp, err := client.Post(srv.URL+"/v1/deltas?since=0", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/deltas status = %d, want 405", resp.StatusCode)
	}

	// No op log at all: 404.
	plain := index.New(false, index.DefaultConfig())
	psrv := httptest.NewServer(NewHandlerOptions(plain, Options{}))
	defer psrv.Close()
	if code, _, _ = getBody(t, psrv.Client(), psrv.URL+"/v1/deltas?since=0"); code != http.StatusNotFound {
		t.Fatalf("no-oplog status = %d, want 404", code)
	}
}

// TestDeltasLongPollWakes pins the long-poll contract: a caught-up
// poll parks, and an upsert wakes it with the new frames well before
// the wait expires.
func TestDeltasLongPollWakes(t *testing.T) {
	x := oplogIndex(t, oplogConfig(), 4)
	srv := httptest.NewServer(NewHandlerOptions(x, Options{}))
	defer srv.Close()

	type result struct {
		code  int
		body  []byte
		after time.Duration
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		code, _, body := getBody(t, srv.Client(), srv.URL+"/v1/deltas?since=4&wait_ms=20000")
		done <- result{code, body, time.Since(start)}
	}()

	// Give the poll time to park, then write through the index.
	time.Sleep(50 * time.Millisecond)
	p := profile.Profile{OriginalID: "wake"}
	p.Add("name", "wakeup token")
	if _, _, err := x.Upsert(p); err != nil {
		t.Fatal(err)
	}

	select {
	case r := <-done:
		if r.code != http.StatusOK || len(r.body) == 0 {
			t.Fatalf("woken poll: status %d, %d bytes", r.code, len(r.body))
		}
		if r.after > 10*time.Second {
			t.Fatalf("poll returned after %v — the wait expired instead of the notify firing", r.after)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("long poll never returned")
	}
}

// queryAnswer fetches one /v1/query response body — the byte-identical
// comparison unit for leader/follower agreement.
func queryAnswer(t *testing.T, client *http.Client, base string) []byte {
	t.Helper()
	resp, err := client.Post(base+"/v1/query", "application/json", strings.NewReader(queryBody))
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/query: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// waitForSeq polls the follower's /v1/stats until its applied sequence
// number reaches want (the CI smoke does the same over two processes).
func waitForSeq(t *testing.T, client *http.Client, base string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStats(t, client, base)
		if st.Replication == nil {
			t.Fatal("/v1/stats carries no replication section")
		}
		if st.Replication.AppliedSeq >= want {
			if st.Replication.LagSeconds != 0 && st.Replication.AppliedSeq >= st.Replication.LeaderSeq {
				t.Fatalf("caught up at seq %d but lag = %v", st.Replication.AppliedSeq, st.Replication.LagSeconds)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never reached seq %d", want)
}

func TestReplicationEndToEnd(t *testing.T) {
	leaderIdx := oplogIndex(t, oplogConfig(), 24)
	leader := httptest.NewServer(NewHandlerOptions(leaderIdx, Options{}))
	defer leader.Close()

	f := NewFollower(leader.URL, oplogConfig(), FollowerOptions{
		PollWait: 200 * time.Millisecond,
		Interval: 10 * time.Millisecond,
		Logger:   quietLogger(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fx, err := f.Bootstrap(ctx)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if !f.Ready() {
		t.Fatal("follower not ready after bootstrap")
	}
	if fx.Seq() != leaderIdx.Seq() {
		t.Fatalf("bootstrap seq %d, leader %d", fx.Seq(), leaderIdx.Seq())
	}
	fh := NewHandlerOptions(fx, Options{Follower: f})
	fsrv := httptest.NewServer(fh)
	defer fsrv.Close()
	go func() { _ = f.Run(ctx, fh) }()

	// A bootstrapped follower is in rotation and read-only.
	if code, _, _ := getBody(t, fsrv.Client(), fsrv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("follower /readyz = %d, want 200", code)
	}
	resp, err := fsrv.Client().Post(fsrv.URL+"/v1/upsert", "application/json",
		strings.NewReader(`{"id":"w","name":"write"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower upsert status = %d, want 403", resp.StatusCode)
	}

	// Write through the leader; the delta feed must carry it over.
	up, err := leader.Client().Post(leader.URL+"/v1/upsert", "application/json",
		strings.NewReader(`{"id":"p3","name":"tok3 tok1 shared3 renamed","desc":"word3 common"}`))
	if err != nil {
		t.Fatal(err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusOK {
		t.Fatalf("leader upsert status = %d", up.StatusCode)
	}
	waitForSeq(t, fsrv.Client(), fsrv.URL, leaderIdx.Seq())

	want := queryAnswer(t, leader.Client(), leader.URL)
	got := queryAnswer(t, fsrv.Client(), fsrv.URL)
	if !bytes.Equal(want, got) {
		t.Fatalf("follower answer diverged from leader:\nleader:   %s\nfollower: %s", want, got)
	}

	// Kill the leader mid-stream: the follower keeps serving the same
	// answers at its last applied sequence number.
	leader.Close()
	time.Sleep(50 * time.Millisecond) // a poll or two fails and is recorded
	after := queryAnswer(t, fsrv.Client(), fsrv.URL)
	if !bytes.Equal(want, after) {
		t.Fatalf("answer changed after leader death:\nbefore: %s\nafter:  %s", want, after)
	}
	if code, _, _ := getBody(t, fsrv.Client(), fsrv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("follower /readyz after leader death = %d, want 200", code)
	}
}

// TestFollowerResyncsAfterGap pins the 410 path: a follower whose
// position fell off the leader's retention window re-bootstraps and
// swaps the fresh index into its handler.
func TestFollowerResyncsAfterGap(t *testing.T) {
	cfg := oplogConfig()
	cfg.OpLog.MaxOps = 4 // tiny window: easy to fall off
	leaderIdx := oplogIndex(t, cfg, 8)
	leader := httptest.NewServer(NewHandlerOptions(leaderIdx, Options{}))
	defer leader.Close()

	f := NewFollower(leader.URL, oplogConfig(), FollowerOptions{
		PollWait: 50 * time.Millisecond,
		Interval: 10 * time.Millisecond,
		Logger:   quietLogger(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fx, err := f.Bootstrap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fh := NewHandlerOptions(fx, Options{Follower: f})

	// While the follower sleeps, the leader writes far past the window.
	for i := 0; i < 8; i++ {
		p := profile.Profile{OriginalID: fmt.Sprintf("n%d", i)}
		p.Add("name", fmt.Sprintf("fresh%d tok%d", i, i%12))
		if _, _, err := leaderIdx.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}

	go func() { _ = f.Run(ctx, fh) }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fh.Index().Seq() == leaderIdx.Seq() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := fh.Index().Seq(); got != leaderIdx.Seq() {
		t.Fatalf("follower seq %d, leader %d — resync never caught up", got, leaderIdx.Seq())
	}
	st := f.Stats()
	if st.Resyncs < 1 {
		t.Fatalf("resyncs = %d, want >= 1", st.Resyncs)
	}
	if fh.Index() == fx {
		t.Fatal("resync did not swap the handler's index")
	}
	if !fh.Index().ReadOnly() {
		t.Fatal("resynced index lost read-only mode")
	}
}

// TestSnapshotStreamBootstrap pins the /v1/snapshot endpoint directly:
// the stream decodes into an index identical in size and sequence, and
// non-GET is refused.
func TestSnapshotStreamBootstrap(t *testing.T) {
	x := oplogIndex(t, oplogConfig(), 12)
	srv := httptest.NewServer(NewHandlerOptions(x, Options{}))
	defer srv.Close()

	code, hdr, body := getBody(t, srv.Client(), srv.URL+"/v1/snapshot")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/snapshot status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type = %q", ct)
	}
	y, err := index.Decode(bytes.NewReader(body), oplogConfig())
	if err != nil {
		t.Fatalf("decode stream: %v", err)
	}
	if y.Size() != x.Size() || y.Seq() != x.Seq() {
		t.Fatalf("decoded %d profiles seq %d, want %d/%d", y.Size(), y.Seq(), x.Size(), x.Seq())
	}

	resp, err := srv.Client().Post(srv.URL+"/v1/snapshot", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/snapshot status = %d, want 405", resp.StatusCode)
	}
}

// smallBufferListener shrinks the kernel send buffer of every accepted
// connection, so a response of a few hundred KiB cannot disappear into
// socket buffers: its writer blocks as soon as the peer stops reading.
type smallBufferListener struct{ net.Listener }

func (l smallBufferListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4 << 10) // best effort: only tightens the test
	}
	return c, err
}

// TestSnapshotStalledReaderDoesNotBlockWrites: a follower that stops
// reading its bootstrap mid-body must stall only its own response. The
// handler used to encode straight into the ResponseWriter under the
// index writer lock, so one stuck client froze every upsert.
func TestSnapshotStalledReaderDoesNotBlockWrites(t *testing.T) {
	// Enough profiles for an image of more than 256 KiB (~49 bytes each).
	x := oplogIndex(t, oplogConfig(), 8000)
	srv := httptest.NewUnstartedServer(NewHandlerOptions(x, Options{Logger: quietLogger()}))
	srv.Listener = smallBufferListener{srv.Listener}
	srv.Start()
	defer srv.Close()

	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if tc, ok := c.(*net.TCPConn); ok {
				_ = tc.SetReadBuffer(4 << 10) // best effort, as above
			}
			return c, err
		},
	}}
	resp, err := client.Get(srv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	// Closing the body mid-stream drops the connection, which is what
	// releases the handler's blocked write before srv.Close waits on it.
	defer resp.Body.Close()
	if resp.ContentLength < 256<<10 {
		t.Fatalf("snapshot of %d bytes is too small to outlast the socket buffers", resp.ContentLength)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		p := profile.Profile{OriginalID: "while-stalled"}
		p.Add("name", "tok1 shared0")
		_, _, err := x.Upsert(p)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Upsert still blocked 2s after a snapshot reader stalled")
	}
}

// TestSnapshotHeadersDescribeTheBody: under concurrent writers the
// sequence header is the sequence of the image that follows it (it used
// to be read before the encode took the writer lock, so a racing write
// left it one behind), and the body arrives with its Content-Length.
func TestSnapshotHeadersDescribeTheBody(t *testing.T) {
	x := oplogIndex(t, oplogConfig(), 50)
	srv := httptest.NewServer(NewHandlerOptions(x, Options{}))
	defer srv.Close()

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := profile.Profile{OriginalID: fmt.Sprintf("w%d", i%64)}
			p.Add("name", fmt.Sprintf("tok%d shared%d", i%12, i%4))
			if _, _, err := x.Upsert(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		_, hdr, body := getBody(t, srv.Client(), srv.URL+"/v1/snapshot")
		y, err := index.Decode(bytes.NewReader(body), oplogConfig())
		if err != nil {
			t.Fatalf("decode stream: %v", err)
		}
		if got := hdr.Get(deltaSeqHeader); got != strconv.FormatInt(y.Seq(), 10) {
			t.Fatalf("%s = %s on an image at seq %d", deltaSeqHeader, got, y.Seq())
		}
		if got := hdr.Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Fatalf("Content-Length = %q for a %d-byte body", got, len(body))
		}
	}
	close(stop)
	<-writerDone
}

// TestReadyzEmptyReplica pins the replica readiness fix: a read-only
// index that has never loaded a snapshot (and has no bootstrapped
// follower) is held out of rotation with 503 + Retry-After, while an
// empty writable index — a leader warming up on /v1/bulk — stays ready.
func TestReadyzEmptyReplica(t *testing.T) {
	empty := index.New(false, index.DefaultConfig())
	empty.SetReadOnly(true)
	srv := httptest.NewServer(NewHandlerOptions(empty, Options{}))
	defer srv.Close()

	code, hdr, body := getBody(t, srv.Client(), srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("empty replica /readyz = %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("not-ready response missing Retry-After")
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil || st["status"] != "empty" {
		t.Fatalf("not-ready body = %s (err %v)", body, err)
	}

	writable := index.New(false, index.DefaultConfig())
	wsrv := httptest.NewServer(NewHandlerOptions(writable, Options{}))
	defer wsrv.Close()
	if code, _, _ := getBody(t, wsrv.Client(), wsrv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("empty writable /readyz = %d, want 200", code)
	}
}

// TestRetryAfterDerivedFromShedWait pins the shed-header fix: the
// Retry-After on 429/503 (and on the not-ready /readyz) is the
// configured shed wait rounded up to whole seconds, not a hardcoded 1.
func TestRetryAfterDerivedFromShedWait(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want int64
	}{
		{0, 1},
		{300 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{2500 * time.Millisecond, 3},
		{30 * time.Second, 30},
	} {
		if got := retryAfterSeconds(tc.wait); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.wait, got, tc.want)
		}
	}

	// Through the wire: saturate a gate configured with a 2.5s wait and
	// read the header off the 503 /readyz (which answers immediately —
	// no need to sit out the shed wait itself).
	entered := make(chan struct{})
	release := make(chan struct{})
	x := overloadIndex(t, blockFirstComparison(entered, release))
	srv := httptest.NewServer(NewHandlerOptions(x, Options{MaxInFlight: 1, ShedWait: 2500 * time.Millisecond}))
	defer srv.Close()
	client := srv.Client()

	firstDone := make(chan struct{})
	go func() {
		resp := postQuery(t, client, srv.URL+"/v1/query")
		resp.Body.Close()
		close(firstDone)
	}()
	<-entered

	resp, err := client.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated /readyz = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want 3 (2.5s shed wait rounded up)", got)
	}
	close(release)
	<-firstDone
}
