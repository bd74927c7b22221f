package serve

// HTTP replication: a leader streams its op log to read replicas.
//
// The leader side is two routes on the ordinary handler. GET
// /v1/snapshot streams a full binary snapshot (the follower bootstrap
// and resync source); GET /v1/deltas?since=<seq> returns the op frames
// applied after that sequence number, long-polling up to ?wait_ms= when the follower
// is caught up so a quiet leader costs one parked request instead of a
// poll storm. The frames on the wire are byte-identical to what the
// leader's WAL appends to its segment files — one format, two
// transports.
//
// The follower side is the Follower loop: bootstrap from /v1/snapshot,
// mark the index read-only, then poll /v1/deltas forever, applying each
// batch through Index.ApplyOps. Falling off the leader's retention
// window (410 Gone) triggers a full re-bootstrap and an atomic index
// swap on the handler; in-flight requests drain on the old index.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sparker/internal/index"
)

const (
	// deltaSeqHeader carries sequence numbers on the /v1/deltas and
	// /v1/snapshot responses: on 200 the last sequence number included in
	// the body, on 204 the leader's current head.
	deltaSeqHeader = "X-Sparker-Seq"
	// maxDeltaWait caps the ?wait_ms= long-poll, comfortably under any
	// sane server write timeout so a parked poll never trips it.
	maxDeltaWait = 30 * time.Second
	// maxDeltaResponseBytes bounds one /v1/deltas response. A follower far
	// behind drains the backlog across several requests instead of one
	// unbounded body. OpsSince always returns at least one frame when
	// any are pending, so progress is guaranteed regardless of frame
	// size.
	maxDeltaResponseBytes = 1 << 20
)

// deltas serves GET /v1/deltas?since=<seq>[&wait_ms=<ms>]: the op frames
// applied after seq, 204 when caught up after the bounded wait, 410
// when seq has fallen off the op-log retention window (re-bootstrap
// from /v1/snapshot), 404 when the index keeps no op log at all.
func (h *Handler) deltas(w http.ResponseWriter, r *http.Request) {
	x := h.Index()
	if !x.OpLogEnabled() {
		httpError(w, http.StatusNotFound, ErrCodeNotFound, fmt.Errorf("index keeps no op log (start sparker-serve with -oplog or -snapshot)"))
		return
	}
	params, err := ParseDeltaParams(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	deadline := time.Now().Add(params.wait())
	for {
		// Fetch the notify channel BEFORE checking the log: an op that
		// lands between the check and the select closes this channel, so
		// the select below cannot miss it.
		notify := x.OpNotify()
		frames, seq, err := x.OpsSince(params.Since, maxDeltaResponseBytes)
		if err != nil {
			if errors.Is(err, index.ErrOpLogGap) {
				w.Header().Set(deltaSeqHeader, strconv.FormatInt(seq, 10))
				httpError(w, http.StatusGone, ErrCodeGone, err)
				return
			}
			httpError(w, http.StatusInternalServerError, ErrCodeInternal, err)
			return
		}
		if len(frames) > 0 {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set(deltaSeqHeader, strconv.FormatInt(seq, 10))
			_, _ = w.Write(frames)
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			w.Header().Set(deltaSeqHeader, strconv.FormatInt(seq, 10))
			w.WriteHeader(http.StatusNoContent)
			return
		}
		t := time.NewTimer(remain)
		select {
		case <-notify:
			t.Stop()
		case <-t.C:
			// Loop once more: the final check decides between frames that
			// raced the timer and a clean 204.
		case <-r.Context().Done():
			t.Stop()
			return
		}
	}
}

// snapshotStream serves GET /v1/snapshot: a full binary snapshot of the
// index, the follower bootstrap (and resync) source; the body is
// identical to what Save writes to disk, so index.Decode consumes it
// unchanged. The image is encoded into memory first and written with no
// index lock held — a follower that stalls mid-body stalls only its own
// response — and the sequence header is the image's own.
func (h *Handler) snapshotStream(w http.ResponseWriter, _ *http.Request) {
	image, seq, err := h.Index().Image()
	if err != nil {
		httpError(w, http.StatusInternalServerError, ErrCodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(image)))
	w.Header().Set(deltaSeqHeader, strconv.FormatInt(seq, 10))
	if _, err := w.Write(image); err != nil {
		// The status line is long gone; the truncated body fails the
		// follower's CRC check, which is the recovery path anyway.
		h.logger.Warn("snapshot stream aborted", slog.String("error", err.Error()))
	}
}

// FollowerOptions tunes the replication loop.
type FollowerOptions struct {
	// Client issues the HTTP requests. Nil uses a dedicated client with
	// no overall timeout (a long-poll must be allowed to park).
	Client *http.Client
	// PollWait is the long-poll wait advertised to the leader via
	// ?wait_ms=. Zero defaults to 25s (under the leader's cap).
	PollWait time.Duration
	// Interval is the error-backoff floor: the first sleep after a
	// failed poll. Consecutive failures double it (with jitter) up to
	// MaxBackoff; any success resets it. Zero defaults to 500ms.
	Interval time.Duration
	// MaxBackoff caps the exponential error backoff, so a long leader
	// outage settles into a slow steady probe instead of either
	// hammering a dead endpoint or backing off into uselessness. Zero
	// defaults to 15s.
	MaxBackoff time.Duration
	// Logger receives replication warnings. Nil uses slog.Default().
	Logger *slog.Logger
}

// Follower replicates a leader's index over HTTP: bootstrap from
// GET /v1/snapshot, then apply the GET /v1/deltas feed. Construct with
// NewFollower, call Bootstrap to obtain the initial index, hand both
// to the handler (Options.Follower) and run the loop with Run.
type Follower struct {
	leader     string
	cfg        index.Config
	client     *http.Client
	pollWait   time.Duration
	interval   time.Duration
	maxBackoff time.Duration
	logger     *slog.Logger

	ready      atomic.Bool
	appliedSeq atomic.Int64
	leaderSeq  atomic.Int64
	lastStamp  atomic.Int64 // leader-side UnixNano of the newest applied op
	appliedOps atomic.Int64
	resyncs    atomic.Int64
	errs       atomic.Int64
	lastErr    atomic.Value // string; cleared ("") by the next success
	// backoff is the current error-backoff target (0 when healthy) —
	// written by the Run loop, read by Stats.
	backoff atomic.Int64 // nanoseconds
}

// NewFollower prepares a replication loop against the leader's base
// URL (e.g. "http://leader:8080"). cfg configures the local index the
// snapshot is decoded into — enable its op log to let this replica
// feed further replicas in a chain.
func NewFollower(leaderURL string, cfg index.Config, opts FollowerOptions) *Follower {
	f := &Follower{
		leader:     strings.TrimRight(leaderURL, "/"),
		cfg:        cfg,
		client:     opts.Client,
		pollWait:   opts.PollWait,
		interval:   opts.Interval,
		maxBackoff: opts.MaxBackoff,
		logger:     opts.Logger,
	}
	if f.client == nil {
		f.client = &http.Client{}
	}
	if f.pollWait <= 0 {
		f.pollWait = 25 * time.Second
	}
	if f.interval <= 0 {
		f.interval = 500 * time.Millisecond
	}
	if f.maxBackoff <= 0 {
		f.maxBackoff = 15 * time.Second
	}
	if f.maxBackoff < f.interval {
		f.maxBackoff = f.interval
	}
	if f.logger == nil {
		f.logger = slog.Default()
	}
	return f
}

// ReplicationStats is the follower's telemetry, surfaced by /v1/stats
// (replication section) and /metrics (sparker_replication_* families).
type ReplicationStats struct {
	Leader     string  `json:"leader"`
	Ready      bool    `json:"ready"`
	AppliedSeq int64   `json:"applied_seq"`
	LeaderSeq  int64   `json:"leader_seq"`
	LagSeconds float64 `json:"lag_seconds"`
	AppliedOps int64   `json:"applied_ops"`
	Resyncs    int64   `json:"resyncs"`
	Errors     int64   `json:"errors"`
	LastError  string  `json:"last_error,omitempty"`
	// BackoffSeconds is the current error-backoff target: zero on a
	// healthy replica, climbing toward MaxBackoff while the leader is
	// unreachable.
	BackoffSeconds float64 `json:"backoff_seconds,omitempty"`
}

// Ready reports whether the follower has completed a bootstrap — the
// /readyz gate for an otherwise empty replica.
func (f *Follower) Ready() bool { return f.ready.Load() }

// Stats returns the current replication telemetry. Lag is measured
// from the leader-side timestamp of the newest applied op, so it needs
// no clock agreement beyond what any lag metric needs; a caught-up
// follower reports zero regardless of wall-clock skew.
func (f *Follower) Stats() ReplicationStats {
	st := ReplicationStats{
		Leader:     f.leader,
		Ready:      f.ready.Load(),
		AppliedSeq: f.appliedSeq.Load(),
		LeaderSeq:  f.leaderSeq.Load(),
		AppliedOps: f.appliedOps.Load(),
		Resyncs:    f.resyncs.Load(),
		Errors:     f.errs.Load(),
	}
	if s, ok := f.lastErr.Load().(string); ok {
		st.LastError = s
	}
	st.BackoffSeconds = time.Duration(f.backoff.Load()).Seconds()
	if st.LeaderSeq > st.AppliedSeq {
		if stamp := f.lastStamp.Load(); stamp > 0 {
			st.LagSeconds = time.Since(time.Unix(0, stamp)).Seconds()
		}
	}
	return st
}

// Bootstrap fetches a full snapshot from the leader and decodes it
// into a fresh read-only index. The follower's applied sequence number
// starts at the snapshot's.
func (f *Follower) Bootstrap(ctx context.Context) (*index.Index, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.leader+"/v1/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("bootstrap from %s: %w", f.leader, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bootstrap from %s: %s", f.leader, httpStatusError(resp))
	}
	x, err := index.Decode(resp.Body, f.cfg)
	if err != nil {
		return nil, fmt.Errorf("bootstrap from %s: decode: %w", f.leader, err)
	}
	x.SetReadOnly(true)
	f.appliedSeq.Store(x.Seq())
	f.leaderSeq.Store(x.Seq())
	f.ready.Store(true)
	return x, nil
}

// errResync signals that the follower's position fell off the leader's
// op-log window: only a fresh bootstrap can continue.
var errResync = errors.New("position expired from leader op log")

// Run polls the leader's delta feed until ctx is cancelled, applying
// each batch to the handler's current index. A 410 from the leader
// triggers a full re-bootstrap and swaps the fresh index into the
// handler atomically. Errors pace the loop with capped exponential
// backoff plus jitter — a dead leader is not hammered, and a returning
// one sees its followers trickle back instead of stampeding — reset by
// the first success. Run returns ctx.Err() on cancellation.
func (f *Follower) Run(ctx context.Context, h *Handler) error {
	var backoff time.Duration
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := f.poll(ctx, h.Index())
		switch {
		case err == nil:
			// Progress or a clean long-poll expiry: poll again at once —
			// the leader's long-poll provides the pacing.
			f.markHealthy(&backoff)
			continue
		case errors.Is(err, errResync):
			f.resyncs.Add(1)
			f.logger.Warn("replication position expired; re-bootstrapping", slog.String("leader", f.leader))
			x, berr := f.Bootstrap(ctx)
			if berr != nil {
				f.recordError(berr)
			} else {
				h.SetIndex(x)
				f.markHealthy(&backoff)
				continue
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return ctx.Err()
		default:
			f.recordError(err)
		}
		backoff = nextBackoff(backoff, f.interval, f.maxBackoff)
		f.backoff.Store(int64(backoff))
		select {
		case <-time.After(jitteredBackoff(backoff)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// markHealthy resets the error backoff and clears the stale last_error
// so /v1/stats on a recovered replica stops reporting an old failure.
func (f *Follower) markHealthy(backoff *time.Duration) {
	*backoff = 0
	f.backoff.Store(0)
	f.lastErr.Store("")
}

// nextBackoff doubles the previous backoff, starting at base and
// saturating at max.
func nextBackoff(cur, base, max time.Duration) time.Duration {
	if cur <= 0 {
		return base
	}
	cur *= 2
	if cur > max || cur < 0 { // < 0: overflow
		return max
	}
	return cur
}

// jitteredBackoff spreads a sleep uniformly over [d/2, d) ("equal
// jitter"), decorrelating a fleet of followers that all lost the same
// leader at the same instant.
func jitteredBackoff(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(half)))
}

// poll issues one /v1/deltas request from the index's current position
// and applies whatever comes back.
func (f *Follower) poll(ctx context.Context, x *index.Index) error {
	// The poll URL is built from the same typed DeltaParams the leader
	// decodes, so the two ends of the wire share one codec.
	params := DeltaParams{Since: x.Seq(), WaitMS: f.pollWait.Milliseconds()}
	u := f.leader + "/v1/deltas?" + params.Values().Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if seq, err := strconv.ParseInt(resp.Header.Get(deltaSeqHeader), 10, 64); err == nil {
		f.leaderSeq.Store(seq)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		applied, lastStamp, err := x.ApplyOps(resp.Body)
		if applied > 0 {
			f.appliedOps.Add(int64(applied))
			f.appliedSeq.Store(x.Seq())
			f.lastStamp.Store(lastStamp)
		}
		if err != nil {
			// The index stopped cleanly at the last good frame; the next
			// poll resumes from there, so a torn response heals itself.
			return fmt.Errorf("apply deltas: %w", err)
		}
		return nil
	case http.StatusNoContent:
		return nil
	case http.StatusGone:
		return errResync
	default:
		return fmt.Errorf("poll %s: %s", f.leader, httpStatusError(resp))
	}
}

func (f *Follower) recordError(err error) {
	f.errs.Add(1)
	f.lastErr.Store(err.Error())
	f.logger.Warn("replication poll failed", slog.String("leader", f.leader), slog.String("error", err.Error()))
}

// httpStatusError summarises a non-2xx response, folding in the JSON
// error body when one is present (bounded read: an error body is
// short).
func httpStatusError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if s := strings.TrimSpace(string(body)); s != "" {
		return fmt.Sprintf("%s: %s", resp.Status, s)
	}
	return resp.Status
}

// ValidateLeaderURL rejects obviously malformed -follow values before
// the serve loop starts, so a typo fails fast instead of as an
// endless poll-error stream.
func ValidateLeaderURL(s string) error {
	u, err := url.Parse(s)
	if err != nil {
		return fmt.Errorf("bad leader url %q: %w", s, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("bad leader url %q: want http:// or https://", s)
	}
	if u.Host == "" {
		return fmt.Errorf("bad leader url %q: missing host", s)
	}
	return nil
}
