// Package serve exposes the online entity index over HTTP — the handler
// behind the sparker-serve command. It lives outside the root sparker
// package and outside internal/index so that batch-only consumers of the
// library do not link the HTTP stack.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"sparker/internal/index"
	"sparker/internal/loader"
	"sparker/internal/obs"
	"sparker/internal/profile"
)

// Options configures the optional persistence, observability and
// admission-control surfaces of the handler.
type Options struct {
	// SnapshotPath enables POST /v1/snapshot/save: each call writes a
	// durable snapshot of the index there (atomically). Empty disables
	// the endpoint.
	SnapshotPath string
	// Logger receives the slow-query log (structured, slog). Nil uses
	// slog.Default().
	Logger *slog.Logger
	// SlowQuery logs any /v1/query resolution taking at least this long,
	// with its per-stage timing breakdown — the first question to ask of
	// a slow resolver is which stage ate the time. Zero disables the
	// slow-query log.
	SlowQuery time.Duration
	// NoMetrics disables GET /metrics (enabled by default).
	NoMetrics bool

	// MaxInFlight caps concurrently served requests on the resolution
	// routes (/v1/query, /v1/upsert, /v1/bulk). Beyond the cap, requests
	// wait at most ShedWait and are then shed with 429/503 + Retry-After
	// instead of queueing; admitted queries degrade by gate occupancy
	// (see admission.go). Zero disables admission control entirely.
	MaxInFlight int
	// ShedWait bounds how long an over-limit request waits for a slot
	// (also bounded by the request's own context). Zero sheds
	// immediately with 429; with a wait, expiry sheds with 503.
	ShedWait time.Duration
	// DefaultBudget is the wall-clock budget applied to /v1/query
	// requests that do not carry ?budget_ms= themselves, before the
	// degradation ladder. Zero means unlimited (until the ladder imposes
	// one under pressure).
	DefaultBudget time.Duration
	// MaxBodyBytes caps request bodies on /v1/query, /v1/upsert and
	// /v1/bulk (413 beyond it). Zero uses DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// Follower, when non-nil, is the replication loop feeding this
	// handler's index from a leader (see replication.go). The handler
	// reports its lag in /v1/stats and /metrics, and /readyz holds the
	// replica out of rotation until the follower has bootstrapped.
	Follower *Follower
}

// NewHandler serves an index over HTTP. Every API route lives under
// the versioned /v1/ prefix, and only there:
//
//	POST /v1/query         — body: one JSON profile {"id": "...",
//	                      "attr": "value"}; ranks candidates and scores
//	                      matches. ?source=1 marks the query as coming
//	                      from the second clean source. ?debug=1 adds a
//	                      per-stage timing breakdown of this query to
//	                      the response. ?budget_ms= and
//	                      ?max_comparisons= bound this query's work
//	                      (wall-clock / scored candidates); a tripped
//	                      budget returns the best-first prefix with
//	                      "truncated": true and the tripping stage.
//	                      The knob set is typed: see QueryParams. Any
//	                      other parameter is ignored, the retired LSH
//	                      probe's ?probe= and ?probe_floor= included.
//	POST /v1/upsert        — body: one JSON profile; inserts or
//	                      replaces it.
//	POST /v1/bulk          — body: JSON-lines profiles; upserts every
//	                      record.
//	POST /v1/snapshot/save — write a durable snapshot (needs a
//	                      configured snapshot path; see
//	                      NewHandlerOptions).
//	GET  /v1/stats         — consistent index snapshot, including
//	                      read-only mode, durable-snapshot metadata,
//	                      per-stage timing digests, per-route HTTP
//	                      counters and admission/budget accounting.
//	GET  /metrics       — Prometheus text exposition of the same
//	                      telemetry (per-stage latency histograms,
//	                      request/error and shed/degraded/truncated
//	                      counters).
//	GET  /healthz       — liveness: 200 while the process serves.
//	GET  /readyz        — readiness: 200 while the index holds data and
//	                      the admission gate is not saturated; 503 tells
//	                      a load balancer to drain this replica. A
//	                      read-only replica that has not yet loaded a
//	                      snapshot (or applied a delta) answers 503 so
//	                      traffic never routes to an empty follower.
//	GET  /v1/deltas        — replication feed: the op frames applied
//	                      after ?since=<seq>, long-polling up to
//	                      ?wait_ms= when caught up (see
//	                      replication.go). Needs an op-log-enabled
//	                      index.
//	GET  /v1/snapshot      — streams a full binary snapshot of the
//	                      index, the follower bootstrap (and resync)
//	                      source.
//
// /metrics, /healthz and /readyz stay unversioned: they are operator
// conventions (scrapers and load balancers), not API surfaces.
//
// Every 4xx/5xx response — an unknown path's 404 included — carries
// the typed JSON error envelope {"error": {"code", "message",
// "retry_after_seconds?"}}; see APIError and the ErrCode* constants.
//
// With Options.MaxInFlight set, /v1/query, /v1/upsert and /v1/bulk sit
// behind an admission gate: over-limit requests wait at most
// Options.ShedWait and are then shed with 429/503 + Retry-After, and
// admitted queries degrade under pressure (a tightened budget and
// comparison cap) — see admission.go for the ladder. Request bodies on
// those routes are bounded by Options.MaxBodyBytes (413 beyond it).
//
// Every route is instrumented: request, 4xx and 5xx counters plus a
// latency histogram per route (labelled by its path; every unknown
// path counts under the one fixed label "unmatched"), surfaced by both
// /v1/stats and /metrics. Upserts
// against a read-only replica fail with 403. Profiles use the loader's
// JSON-lines wire format; the "id" field is the original identifier,
// every other field an attribute.
func NewHandler(x *index.Index) *Handler { return NewHandlerOptions(x, Options{}) }

// NewHandlerOptions is NewHandler with the persistence, observability,
// admission and replication surfaces configured.
func NewHandlerOptions(x *index.Index, opts Options) *Handler {
	h := &Handler{opts: opts}
	h.idx.Store(x)
	h.init(opts.Logger, opts.MaxInFlight, opts.ShedWait, opts.DefaultBudget, opts.MaxBodyBytes)
	h.handleGated("/v1/query", h.query)
	h.handleGated("/v1/upsert", h.upsert)
	h.handleGated("/v1/bulk", h.bulk)
	h.handle(http.MethodPost, "/v1/snapshot/save", h.snapshotSave)
	h.handle(http.MethodGet, "/v1/snapshot", h.snapshotStream)
	h.handle(http.MethodGet, "/v1/deltas", h.deltas)
	h.handle(http.MethodGet, "/v1/stats", h.stats)
	h.handleOperator(h.readyz, h.metrics, opts.NoMetrics)
	return h
}

// Handler serves an index over HTTP (see NewHandler for the routes):
// the shared front end plus what a request does against one index. It
// holds the index behind an atomic pointer so a follower resync can
// swap in a freshly bootstrapped index without a lock on the request
// path: each request pins one index for its whole duration and the old
// one drains naturally.
type Handler struct {
	frontend
	idx  atomic.Pointer[index.Index]
	opts Options

	budgetSpent obs.Histogram // comparisons spent per budgeted query
}

// Index returns the handler's current index.
func (h *Handler) Index() *index.Index { return h.idx.Load() }

// SetIndex atomically swaps the served index — the follower resync
// path: in-flight requests finish on the index they started with.
func (h *Handler) SetIndex(x *index.Index) { h.idx.Store(x) }

func (h *Handler) query(w http.ResponseWriter, r *http.Request, c call) {
	x := h.Index()
	ps, ok := decodeProfiles(w, x, c, true)
	if !ok {
		return
	}
	// Under gate pressure, tighten the budget (imposing one if neither
	// the request nor the server default carried any) — cheaper truncated
	// answers instead of queueing delay.
	params := c.params
	h.throttle(&params, c.level)
	opts := params.resolveOptions()

	start := obs.Now()
	res := x.ResolveWithOptions(&ps[0], opts)
	elapsed := obs.Now() - start
	if h.opts.SlowQuery > 0 && elapsed >= int64(h.opts.SlowQuery) {
		h.logSlowQuery(&ps[0], res, elapsed)
	}
	h.countQuery(c.level, res.Query.Truncated)
	if opts.Budget != (index.Budget{}) {
		h.budgetSpent.Observe(int64(res.Comparisons))
	}
	if r.Header.Get("Accept") == partialContentType {
		writePartial(w, res, c.level)
		return
	}
	resp := newQueryResponse(res)
	resp.Degraded = c.level
	if params.Debug {
		resp.Debug = newDebugJSON(&res.Query.StageNanos)
	}
	writeJSON(w, resp)
}

func (h *Handler) upsert(w http.ResponseWriter, _ *http.Request, c call) {
	x := h.Index()
	ps, ok := decodeProfiles(w, x, c, true)
	if !ok {
		return
	}
	id, created, err := x.Upsert(ps[0])
	if err != nil {
		upsertError(w, err)
		return
	}
	writeJSON(w, upsertResponse{ID: id, Created: created})
}

func (h *Handler) bulk(w http.ResponseWriter, _ *http.Request, c call) {
	x := h.Index()
	ps, ok := decodeProfiles(w, x, c, false)
	if !ok {
		return
	}
	for _, p := range ps {
		if _, _, err := x.Upsert(p); err != nil {
			upsertError(w, err)
			return
		}
	}
	writeJSON(w, bulkResponse{Upserted: len(ps)})
}

// readyz is readiness: the index holds data and the admission gate is
// not saturated (see frontend.ready). A read-only replica that has
// never loaded a snapshot (and whose follower has not bootstrapped)
// answers "empty" 503: routing traffic to it would serve zero-candidate
// answers that look like successes.
func (h *Handler) readyz(w http.ResponseWriter, _ *http.Request) {
	var drain map[string]any
	if x := h.Index(); x.ReadOnly() && !x.Restored() && x.Size() == 0 && (h.opts.Follower == nil || !h.opts.Follower.Ready()) {
		drain = map[string]any{"status": "empty", "read_only": true}
	}
	h.ready(w, drain, map[string]any{"status": "ok"})
}

func (h *Handler) snapshotSave(w http.ResponseWriter, _ *http.Request) {
	if h.opts.SnapshotPath == "" {
		httpError(w, http.StatusNotFound, ErrCodeNotFound, fmt.Errorf("no snapshot path configured (start sparker-serve with -snapshot)"))
		return
	}
	// A replica consumes the snapshot file, never produces it — a
	// stale replica must not clobber the primary's newer snapshot.
	// Enforced here too, not only in sparker-serve's flag wiring, so
	// embedders of the handler get the same invariant.
	x := h.Index()
	if x.ReadOnly() {
		httpError(w, http.StatusForbidden, ErrCodeReadOnly, fmt.Errorf("read-only replica does not write snapshots"))
		return
	}
	start := time.Now()
	st, err := x.Save(h.opts.SnapshotPath)
	if err != nil {
		httpError(w, http.StatusInternalServerError, ErrCodeInternal, err)
		return
	}
	writeJSON(w, map[string]any{
		"path":       st.Path,
		"bytes":      st.Bytes,
		"elapsed_ms": float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// statsResponse is the /v1/stats body: the index snapshot (its fields
// inline, exactly the pre-observability shape) plus the per-route HTTP
// counters and admission/budget accounting the serving layer owns.
type statsResponse struct {
	index.Snapshot
	HTTP        []routeStatsJSON   `json:"http"`
	Admission   admissionStatsJSON `json:"admission"`
	Replication *ReplicationStats  `json:"replication,omitempty"`
}

func (h *Handler) stats(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{Snapshot: h.Index().Snapshot(), HTTP: h.routeStats(), Admission: h.admissionStats()}
	if h.opts.Follower != nil {
		st := h.opts.Follower.Stats()
		resp.Replication = &st
	}
	writeJSON(w, resp)
}

// logSlowQuery emits one structured slow-query record with the
// per-stage breakdown — enough to see where the time went without
// re-running the query.
func (h *Handler) logSlowQuery(p *profile.Profile, res *index.Resolution, elapsedNanos int64) {
	attrs := make([]any, 0, 2*index.NumStages+14)
	attrs = append(attrs,
		slog.String("original_id", p.OriginalID),
		slog.Float64("elapsed_ms", float64(elapsedNanos)/1e6),
	)
	for s := 0; s < index.NumStages; s++ {
		attrs = append(attrs, slog.Float64(index.Stage(s).String()+"_ms", float64(res.Query.StageNanos[s])/1e6))
	}
	attrs = append(attrs,
		slog.Int("keys", res.Query.Keys),
		slog.Int("postings_scanned", res.Query.PostingsScanned),
		slog.Int("candidates", len(res.Query.Candidates)),
		slog.Int("comparisons", res.Comparisons),
		slog.Int("matches", len(res.Matches)),
	)
	h.logger.Warn("slow query", attrs...)
}

// upsertError answers a failed index write: a write against a read-only
// replica is refused (403), anything else is a malformed profile (400).
func upsertError(w http.ResponseWriter, err error) {
	if errors.Is(err, index.ErrReadOnly) {
		httpError(w, http.StatusForbidden, ErrCodeReadOnly, err)
		return
	}
	httpError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
}

// upsertResponse and bulkResponse are the typed write acknowledgements.
type upsertResponse struct {
	ID      profile.ID `json:"id"`
	Created bool       `json:"created"`
}

type bulkResponse struct {
	Upserted int `json:"upserted"`
}

// candidateJSON is one ranked blocking candidate on the wire.
type candidateJSON struct {
	ID         profile.ID `json:"id"`
	OriginalID string     `json:"original_id"`
	Source     int        `json:"source"`
	Weight     float64    `json:"weight"`
	SharedKeys int        `json:"shared_keys"`
}

// matchJSON is one scored match on the wire.
type matchJSON struct {
	ID         profile.ID `json:"id"`
	OriginalID string     `json:"original_id"`
	Source     int        `json:"source"`
	Score      float64    `json:"score"`
}

// stageNanosJSON is one row of the ?debug=1 breakdown.
type stageNanosJSON struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"nanos"`
}

// debugJSON is the ?debug=1 payload: where this query's time went,
// stage by stage.
type debugJSON struct {
	Stages     []stageNanosJSON `json:"stages"`
	TotalNanos int64            `json:"total_nanos"`
}

func newDebugJSON(stageNanos *[index.NumStages]int64) *debugJSON {
	d := &debugJSON{Stages: make([]stageNanosJSON, 0, index.NumStages)}
	for s, n := range stageNanos {
		d.Stages = append(d.Stages, stageNanosJSON{Stage: index.Stage(s).String(), Nanos: n})
		d.TotalNanos += n
	}
	return d
}

// queryResponse carries a resolution plus its work accounting.
type queryResponse struct {
	Candidates      []candidateJSON `json:"candidates"`
	Matches         []matchJSON     `json:"matches"`
	Keys            int             `json:"keys"`
	BlocksProbed    int             `json:"blocks_probed"`
	BlocksPurged    int             `json:"blocks_purged"`
	BlocksFiltered  int             `json:"blocks_filtered"`
	PostingsScanned int             `json:"postings_scanned"`
	Pruned          int             `json:"pruned"`
	Comparisons     int             `json:"comparisons"`
	// Truncated marks a budget-bound answer: the best-first prefix the
	// per-request budget allowed, with the stage that tripped it.
	Truncated      bool   `json:"truncated,omitempty"`
	TruncatedStage string `json:"truncated_stage,omitempty"`
	// Degraded is the admission ladder level this query was served at
	// (0 = healthy, omitted; 1..3 = tightened budget and comparison cap).
	Degraded int `json:"degraded,omitempty"`
	// Debug is the per-stage timing breakdown, present only with
	// ?debug=1.
	Debug *debugJSON `json:"debug,omitempty"`
}

func newQueryResponse(r *index.Resolution) queryResponse {
	resp := queryResponse{
		Candidates:      make([]candidateJSON, 0, len(r.Query.Candidates)),
		Matches:         make([]matchJSON, 0, len(r.Matches)),
		Keys:            r.Query.Keys,
		BlocksProbed:    r.Query.BlocksProbed,
		BlocksPurged:    r.Query.BlocksPurged,
		BlocksFiltered:  r.Query.BlocksFiltered,
		PostingsScanned: r.Query.PostingsScanned,
		Pruned:          r.Query.Pruned,
		Comparisons:     r.Comparisons,
		Truncated:       r.Query.Truncated,
		TruncatedStage:  r.Query.TruncatedStage,
	}
	for i, c := range r.Query.Candidates {
		who := r.CandidateIdentities[i]
		resp.Candidates = append(resp.Candidates, candidateJSON{
			ID: c.ID, OriginalID: who.OriginalID, Source: who.SourceID,
			Weight: c.Weight, SharedKeys: c.SharedKeys,
		})
	}
	for i, m := range r.Matches {
		who := r.MatchIdentities[i]
		resp.Matches = append(resp.Matches, matchJSON{ID: m.B, OriginalID: who.OriginalID, Source: who.SourceID, Score: m.Score})
	}
	return resp
}

// decodeProfiles parses a gated request's JSON-lines body against the
// index the request pinned, applying the decoded ?source knob; one
// demands exactly one profile (/v1/query, /v1/upsert).
func decodeProfiles(w http.ResponseWriter, x *index.Index, c call, one bool) ([]profile.Profile, bool) {
	ps, err := loader.ReadProfilesJSONL(bytes.NewReader(c.body), "id")
	switch {
	case err != nil:
	case c.params.Source == 1 && !x.Clean():
		err = fmt.Errorf("source=1 needs a clean-clean index")
	case one && len(ps) != 1:
		err = fmt.Errorf("expected one profile, got %d", len(ps))
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return nil, false
	}
	for i := range ps {
		ps[i].SourceID = c.params.Source
	}
	return ps, true
}
