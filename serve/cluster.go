package serve

// The distributed serving tier: a shard coordinator that fronts N
// independent sparker-serve processes behind the same /v1 API a single
// node speaks. Entity resolution over an inverted blocking index is
// embarrassingly parallel in the profile population — each shard owns a
// disjoint slice of the profiles (upserts route by hash of the original
// ID), answers queries against its slice alone, and the coordinator
// merges the ranked partials into one answer (index.MergePartials).
//
// Failure policy: resolution is a ranking, not a transaction. A dead
// shard degrades the answer (the surviving shards' merged results,
// marked degraded) rather than failing it — a 5xx is reserved for the
// case where no shard answered at all. Writes are the opposite: an
// upsert that cannot reach its designated shard must fail loudly, or
// the profile silently vanishes from every future answer.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sparker/internal/index"
	"sparker/internal/loader"
	"sparker/internal/obs"
)

// shardBudgetFraction is the share of the request's wall-clock budget
// forwarded to each shard. Shards resolve in parallel, so each may
// spend almost the whole budget; the held-back remainder covers the
// coordinator's own fan-out and merge overhead.
const shardBudgetFraction = 0.9

// defaultShardIdleConns is how many idle connections the default
// client keeps per shard when the admission gate is off. With the gate
// on, the pool holds one per admitted request plus the prober's.
const defaultShardIdleConns = 64

// ClusterOptions configures the coordinator.
type ClusterOptions struct {
	// Client issues the fan-out and health-probe requests. Nil uses a
	// dedicated client with no overall timeout (per-request budgets
	// bound the fan-out; probes carry their own short timeout) whose
	// transport keeps enough idle connections per shard that concurrent
	// fan-outs reuse them instead of dialling again.
	Client *http.Client
	// Logger receives shard-failure warnings. Nil uses slog.Default().
	Logger *slog.Logger

	// MaxInFlight and ShedWait configure the coordinator's own admission
	// gate, exactly as on a single node (see Options). The gate guards
	// the coordinator's fan-out concurrency; each shard additionally
	// runs its own gate.
	MaxInFlight int
	ShedWait    time.Duration
	// DefaultBudget is the wall-clock budget applied to queries that do
	// not carry ?budget_ms= themselves, before the per-shard split.
	DefaultBudget time.Duration
	// MaxBodyBytes caps request bodies (413 beyond it). Zero uses
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// ProbeInterval paces the background /readyz health probe of every
	// shard. Zero defaults to 500ms.
	ProbeInterval time.Duration
	// ShardRetries is how many times a failed shard call is retried
	// (transport errors and 5xx/429; a 4xx is the shard's final word).
	// Zero defaults to 1; negative disables retries.
	ShardRetries int
	// RetryBase is the first retry backoff; consecutive retries double
	// it with jitter, exactly like the follower loop. Zero defaults to
	// 50ms.
	RetryBase time.Duration

	// NoMetrics disables GET /metrics (enabled by default).
	NoMetrics bool
}

// Cluster is the scatter-gather coordinator: an http.Handler exposing
// the /v1 API over a fleet of shard processes — the shared front end
// (the same gate, knob decode, body cap, default-budget precedence and
// degradation ladder a single node runs) plus what a request does
// against N shards. Construct with NewCluster; Close stops the health
// prober.
type Cluster struct {
	frontend
	shards    []*shardClient
	opts      ClusterOptions
	retries   int
	retryBase time.Duration
	transport *http.Transport // the default client's, closed by Close; nil with ClusterOptions.Client

	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup

	// Cluster telemetry: the sparker_cluster_* metric families.
	fanouts         obs.Counter // scatter-gather queries served
	degradedFanouts obs.Counter // queries answered with >=1 shard missing
	mergeNanos      obs.Histogram
	stageNanos      [index.NumStages]obs.Histogram // aggregated shard stage timings
}

// shardClient is the coordinator's view of one shard process: its base
// URL, probed health, and per-shard accounting.
type shardClient struct {
	url     string
	client  *http.Client
	healthy atomic.Bool

	requests obs.Counter
	errors   obs.Counter
	lastErr  atomic.Value // string
}

// ShardFor routes an original profile ID onto one of n shards (FNV-1a).
// Exported so tests and tooling can predict a profile's home shard.
func ShardFor(originalID string, n int) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(originalID))
	return int(h.Sum64() % uint64(n))
}

// NewCluster builds a coordinator over the given shard base URLs (e.g.
// "http://shard0:8081"). Shard order matters: it defines the hash
// routing, so every coordinator of the same fleet must list the shards
// identically. The first health probe runs synchronously so /readyz is
// meaningful from the first request.
func NewCluster(shardURLs []string, opts ClusterOptions) (*Cluster, error) {
	if len(shardURLs) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	c := &Cluster{
		opts:      opts,
		retries:   opts.ShardRetries,
		retryBase: opts.RetryBase,
		stop:      make(chan struct{}),
	}
	client := opts.Client
	if client == nil {
		// http.DefaultTransport keeps two idle connections per host, so
		// every fan-out beyond two concurrent ones would close its
		// connection after use and dial again the next time.
		c.transport = http.DefaultTransport.(*http.Transport).Clone()
		c.transport.MaxIdleConns = 0 // no fleet-wide cap; the per-shard one holds
		c.transport.MaxIdleConnsPerHost = defaultShardIdleConns
		if opts.MaxInFlight > 0 {
			c.transport.MaxIdleConnsPerHost = opts.MaxInFlight + 1
		}
		client = &http.Client{Transport: c.transport}
	}
	if c.retries == 0 {
		c.retries = 1
	} else if c.retries < 0 {
		c.retries = 0
	}
	if c.retryBase <= 0 {
		c.retryBase = 50 * time.Millisecond
	}
	for _, u := range shardURLs {
		if err := ValidateLeaderURL(u); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.shards = append(c.shards, &shardClient{url: trimSlash(u), client: client})
	}
	c.init(opts.Logger, opts.MaxInFlight, opts.ShedWait, opts.DefaultBudget, opts.MaxBodyBytes)
	c.handleGated("/v1/query", c.query)
	c.handleGated("/v1/upsert", c.upsert)
	c.handleGated("/v1/bulk", c.bulk)
	c.handle(http.MethodGet, "/v1/stats", c.stats)
	c.handleOperator(c.readyz, c.metrics, opts.NoMetrics)
	c.probeAll()
	c.probeWG.Add(1)
	go c.probeLoop()
	return c, nil
}

func trimSlash(u string) string {
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

// Close stops the background health prober and closes the default
// client's idle shard connections. The handler keeps answering
// (against the last probed health) until the server drops it.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probeWG.Wait()
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
}

// probeLoop re-probes every shard's /readyz on a fixed cadence.
func (c *Cluster) probeLoop() {
	defer c.probeWG.Done()
	interval := c.opts.ProbeInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll checks every shard's /readyz concurrently. A shard is
// healthy when it answers 200 within the probe timeout; the health bit
// feeds the coordinator's /readyz, /v1/stats and /metrics — the query
// fan-out itself always tries every shard, so a flapping probe can
// degrade reporting but never an answer.
func (c *Cluster) probeAll() {
	var wg sync.WaitGroup
	for _, s := range c.shards {
		wg.Add(1)
		go func(s *shardClient) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/readyz", nil)
			if err != nil {
				s.healthy.Store(false)
				return
			}
			resp, err := s.client.Do(req)
			if err != nil {
				s.healthy.Store(false)
				return
			}
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			s.healthy.Store(resp.StatusCode == http.StatusOK)
		}(s)
	}
	wg.Wait()
}

func (c *Cluster) healthyCount() int {
	n := 0
	for _, s := range c.shards {
		if s.healthy.Load() {
			n++
		}
	}
	return n
}

// do issues one shard call with bounded retries: transport errors and
// 5xx/429 retry with doubling jittered backoff (the follower loop's
// pacing); any other response is the shard's final word. A non-empty
// accept is sent as the Accept header. The caller owns the returned
// response body.
func (s *shardClient) do(ctx context.Context, method, pathAndQuery, accept string, body []byte, retries int, base time.Duration) (*http.Response, error) {
	s.requests.Inc()
	var backoff time.Duration
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, s.url+pathAndQuery, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := s.client.Do(req)
		if err == nil {
			if resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
				return resp, nil
			}
			if attempt >= retries {
				return resp, nil
			}
			// Retryable status: drain so the connection is reusable.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
			resp.Body.Close()
		} else if attempt >= retries {
			return nil, err
		}
		backoff = nextBackoff(backoff, base, time.Second)
		select {
		case <-time.After(jitteredBackoff(backoff)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fail records a shard-call failure for /v1/stats and /metrics.
func (s *shardClient) fail(err error) {
	s.errors.Inc()
	s.lastErr.Store(err.Error())
}

// partialContentType is the media type of the binary shard partial
// (index.AppendPartial): a node answers /v1/query with the frame when
// the request's Accept is exactly this type, and JSON otherwise.
const partialContentType = "application/x-sparker-partial"

// frameBufs recycles the byte buffers a shard encodes its frame into
// and the coordinator reads a shard's frame into.
var frameBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledFrame bounds the buffers frameBufs keeps: one huge answer
// must not pin its buffer for every later query.
const maxPooledFrame = 64 << 10

func putFrameBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledFrame {
		buf.Reset()
		frameBufs.Put(buf)
	}
}

// writePartial answers a coordinator with res's binary frame.
func writePartial(w http.ResponseWriter, res *index.Resolution, level int) {
	buf := frameBufs.Get().(*bytes.Buffer)
	defer putFrameBuf(buf)
	buf.Write(index.AppendPartial(buf.AvailableBuffer(), res, level))
	w.Header().Set("Content-Type", partialContentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// readPartial reads one shard's /v1/query answer to EOF and decodes its
// frame. Anything but a 200 carrying the partial type fails the shard:
// the coordinator and its shards are one build, so no JSON fallback is
// kept.
func readPartial(resp *http.Response) (*index.ShardAnswer, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New(httpStatusError(resp))
	}
	if ct := resp.Header.Get("Content-Type"); ct != partialContentType {
		return nil, fmt.Errorf("answered %q, want %s", ct, partialContentType)
	}
	buf := frameBufs.Get().(*bytes.Buffer)
	defer putFrameBuf(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	a, err := index.DecodePartial(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return a, nil
}

// clusterInfoJSON is the cluster section of every coordinator query
// response: how many shards answered, which failed, and whether the
// answer is degraded (missing a shard's results).
type clusterInfoJSON struct {
	Shards    int      `json:"shards"`
	Responded int      `json:"responded"`
	Failed    []string `json:"failed,omitempty"`
	Degraded  bool     `json:"degraded,omitempty"`
}

// clusterQueryResponse is the merged answer. It carries the same
// fields as a single node's queryResponse except the shard-local
// profile IDs, which are meaningless across processes — candidates and
// matches identify profiles by (original_id, source) alone.
type clusterQueryResponse struct {
	index.Partial
	Degraded int             `json:"degraded,omitempty"`
	Debug    *debugJSON      `json:"debug,omitempty"`
	Cluster  clusterInfoJSON `json:"cluster"`
}

// query scatter-gathers one profile across every shard and merges the
// ranked partials. Shard failures degrade the answer; only a total
// failure is a 503.
func (c *Cluster) query(w http.ResponseWriter, r *http.Request, q call) {
	// The forwarded knobs: the client's, after the default budget and
	// the ladder (pressure at the coordinator tightens what the shards
	// are asked to do), with the budget split for the parallel fan-out.
	// Every shard frame carries its stage timings, so debug stays off
	// the wire: the client's own debug choice governs the response only.
	fwd, body, level := q.params, q.body, q.level
	c.throttle(&fwd, level)
	fwd.BudgetMS *= shardBudgetFraction
	fwd.Debug = false
	pathAndQuery := "/v1/query?" + fwd.Encode()

	answers := make([]*index.ShardAnswer, len(c.shards))
	var mu sync.Mutex
	var failed []string
	var wg sync.WaitGroup
	for i, s := range c.shards {
		wg.Add(1)
		go func(i int, s *shardClient) {
			defer wg.Done()
			resp, err := s.do(r.Context(), http.MethodPost, pathAndQuery, partialContentType, body, c.retries, c.retryBase)
			if err == nil {
				if answers[i], err = readPartial(resp); err == nil {
					return
				}
			}
			err = fmt.Errorf("shard %s: %w", s.url, err)
			s.fail(err)
			c.logger.Warn("shard query failed", slog.String("shard", s.url), slog.String("error", err.Error()))
			mu.Lock()
			failed = append(failed, s.url)
			mu.Unlock()
		}(i, s)
	}
	wg.Wait()
	c.fanouts.Inc()

	responded := len(c.shards) - len(failed)
	if responded == 0 {
		httpError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
			fmt.Errorf("no shard answered (%d configured)", len(c.shards)))
		return
	}

	// The reported degradation level is the worst the query saw on
	// either side of the fan-out; the stage timings are the per-stage
	// maximum over the shards, which ran in parallel.
	parts := make([]*index.Partial, len(answers))
	degraded := level
	var stageMax [index.NumStages]int64
	for i, a := range answers {
		if a == nil {
			continue
		}
		parts[i] = &a.Partial
		degraded = max(degraded, a.Level)
		for s, n := range a.StageNanos {
			c.stageNanos[s].Observe(n)
			stageMax[s] = max(stageMax[s], n)
		}
	}
	start := obs.Now()
	merged := index.MergePartials(parts)
	c.mergeNanos.Observe(obs.Now() - start)

	if len(failed) > 0 {
		c.degradedFanouts.Inc()
	}
	c.countQuery(level, merged.Truncated)
	resp := clusterQueryResponse{
		Partial:  *merged,
		Degraded: degraded,
		Cluster: clusterInfoJSON{
			Shards:    len(c.shards),
			Responded: responded,
			Failed:    failed,
			Degraded:  len(failed) > 0,
		},
	}
	if q.params.Debug {
		resp.Debug = newDebugJSON(&stageMax)
	}
	writeJSON(w, resp)
}

// decodeRecords splits a JSONL body into its raw records and their
// original IDs, using the same streaming decoder and the same id text
// as the loader (numbers read with UseNumber, loader.JSONText), so a
// record the coordinator routes is exactly a record a shard will accept,
// under exactly the ID the shard will store. The raw records alias body.
// Every record must carry an explicit "id": the single-node row-N
// auto-ID cannot survive sharding (the coordinator and the shard would
// number rows differently, splitting one profile's identity).
func decodeRecords(body []byte) (ids []string, raws []json.RawMessage, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	row := 0
	for dec.More() {
		start := dec.InputOffset()
		var rec struct {
			ID any `json:"id"`
		}
		if err := dec.Decode(&rec); err != nil {
			return nil, nil, fmt.Errorf("JSONL record %d: %w", row+1, err)
		}
		if rec.ID == nil {
			return nil, nil, fmt.Errorf("JSONL record %d: missing \"id\" (cluster writes need explicit ids)", row+1)
		}
		ids = append(ids, loader.JSONText(rec.ID))
		raws = append(raws, bytes.TrimSpace(body[start:dec.InputOffset()]))
		row++
	}
	return ids, raws, nil
}

// clusterUpsertResponse acknowledges a routed write. The shard-local
// profile ID is deliberately absent — it identifies nothing outside
// its shard.
type clusterUpsertResponse struct {
	Created bool `json:"created"`
	Shard   int  `json:"shard"`
}

// relayShardError forwards a shard's error response verbatim: the
// shard already speaks the /v1 envelope, so its 4xx (read-only, bad
// profile, unclean source) passes through untranslated.
func relayShardError(w http.ResponseWriter, resp *http.Response) {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// upsert routes one profile to its hash-designated shard, forwarding
// the record bytes untouched.
func (c *Cluster) upsert(w http.ResponseWriter, r *http.Request, q call) {
	ids, raws, err := decodeRecords(q.body)
	if err != nil {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	if len(ids) != 1 {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("expected one profile, got %d", len(ids)))
		return
	}
	shard := ShardFor(ids[0], len(c.shards))
	s := c.shards[shard]
	resp, err := s.do(r.Context(), http.MethodPost, "/v1/upsert?"+q.params.Encode(), "", raws[0], c.retries, c.retryBase)
	if err != nil {
		s.fail(err)
		httpError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
			fmt.Errorf("shard %s unreachable: %v", s.url, err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.fail(fmt.Errorf("upsert: %s", resp.Status))
		relayShardError(w, resp)
		return
	}
	var ack upsertResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		s.fail(err)
		httpError(w, http.StatusInternalServerError, ErrCodeInternal, fmt.Errorf("shard %s: decode: %w", s.url, err))
		return
	}
	writeJSON(w, clusterUpsertResponse{Created: ack.Created, Shard: shard})
}

// clusterBulkResponse acknowledges a scattered bulk load.
type clusterBulkResponse struct {
	Upserted int `json:"upserted"`
	// Shards counts how many shards received at least one record.
	Shards int `json:"shards"`
}

// bulk scatters a JSONL load across the shards: each record goes to
// its hash-designated shard, records grouped into one /v1/bulk call
// per shard. Any shard failure fails the load (reporting how much was
// applied) — partial silent success would lose profiles.
func (c *Cluster) bulk(w http.ResponseWriter, r *http.Request, q call) {
	ids, raws, err := decodeRecords(q.body)
	if err != nil {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	groups := make([][]byte, len(c.shards))
	for i, id := range ids {
		shard := ShardFor(id, len(c.shards))
		groups[shard] = append(groups[shard], raws[i]...)
		groups[shard] = append(groups[shard], '\n')
	}
	qs := "/v1/bulk?" + q.params.Encode()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		upserted int
		touched  int
		firstErr error
		relay    *http.Response
	)
	for i, group := range groups {
		if len(group) == 0 {
			continue
		}
		touched++
		wg.Add(1)
		go func(s *shardClient, group []byte) {
			defer wg.Done()
			resp, err := s.do(r.Context(), http.MethodPost, qs, "", group, c.retries, c.retryBase)
			if err != nil {
				s.fail(err)
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("shard %s unreachable: %v", s.url, err)
				}
				mu.Unlock()
				return
			}
			if resp.StatusCode != http.StatusOK {
				s.fail(fmt.Errorf("bulk: %s", resp.Status))
				mu.Lock()
				if relay == nil && firstErr == nil {
					relay = resp // consumed by the relay below
				} else {
					resp.Body.Close()
				}
				mu.Unlock()
				return
			}
			var ack bulkResponse
			err = json.NewDecoder(resp.Body).Decode(&ack)
			resp.Body.Close()
			mu.Lock()
			if err != nil {
				s.fail(err)
				if firstErr == nil {
					firstErr = fmt.Errorf("shard %s: decode: %w", s.url, err)
				}
			} else {
				upserted += ack.Upserted
			}
			mu.Unlock()
		}(c.shards[i], group)
	}
	wg.Wait()
	if firstErr != nil {
		if relay != nil {
			relay.Body.Close()
		}
		httpError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
			fmt.Errorf("bulk partially applied (%d upserted): %v", upserted, firstErr))
		return
	}
	if relay != nil {
		defer relay.Body.Close()
		relayShardError(w, relay)
		return
	}
	writeJSON(w, clusterBulkResponse{Upserted: upserted, Shards: touched})
}

// shardStatsJSON is one shard's row in the coordinator's /v1/stats.
type shardStatsJSON struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Requests  int64  `json:"requests"`
	Errors    int64  `json:"errors"`
	LastError string `json:"last_error,omitempty"`
}

// clusterStatsResponse is the coordinator's /v1/stats body.
type clusterStatsResponse struct {
	Shards          []shardStatsJSON   `json:"shards"`
	Healthy         int                `json:"healthy"`
	Fanouts         int64              `json:"fanouts"`
	DegradedFanouts int64              `json:"degraded_fanouts"`
	HTTP            []routeStatsJSON   `json:"http"`
	Admission       admissionStatsJSON `json:"admission"`
}

func (c *Cluster) stats(w http.ResponseWriter, _ *http.Request) {
	resp := clusterStatsResponse{
		Healthy:         c.healthyCount(),
		Fanouts:         c.fanouts.Load(),
		DegradedFanouts: c.degradedFanouts.Load(),
		HTTP:            c.routeStats(),
		Admission:       c.admissionStats(),
	}
	for _, s := range c.shards {
		row := shardStatsJSON{
			URL:      s.url,
			Healthy:  s.healthy.Load(),
			Requests: s.requests.Load(),
			Errors:   s.errors.Load(),
		}
		if e, ok := s.lastErr.Load().(string); ok {
			row.LastError = e
		}
		resp.Shards = append(resp.Shards, row)
	}
	writeJSON(w, resp)
}

// readyz: the coordinator is ready while at least one shard is (a
// degraded cluster still answers) and its own gate is not saturated.
// With every shard down there is nothing to serve — drain.
func (c *Cluster) readyz(w http.ResponseWriter, _ *http.Request) {
	healthy := c.healthyCount()
	var drain map[string]any
	if healthy == 0 {
		drain = map[string]any{"status": "no_shards", "shards": len(c.shards)}
	}
	c.ready(w, drain, map[string]any{
		"status":   "ok",
		"shards":   len(c.shards),
		"healthy":  healthy,
		"degraded": healthy < len(c.shards),
	})
}

// metrics renders the coordinator's part of GET /metrics: the
// sparker_cluster_* families.
func (c *Cluster) metrics(e *obs.Expo) {
	e.Gauge("sparker_cluster_shards", "Configured shard processes.", float64(len(c.shards)))
	e.Gauge("sparker_cluster_shards_healthy", "Shards whose last /readyz probe answered 200.", float64(c.healthyCount()))
	e.Counter("sparker_cluster_fanouts_total", "Scatter-gather queries served.", float64(c.fanouts.Load()))
	e.Counter("sparker_cluster_degraded_fanouts_total", "Queries answered with at least one shard missing.", float64(c.degradedFanouts.Load()))
	for _, s := range c.shards {
		e.Gauge("sparker_cluster_shard_healthy", "1 while the shard's /readyz probe answers 200.", boolGauge(s.healthy.Load()),
			obs.Label{Name: "shard", Value: s.url})
	}
	for _, s := range c.shards {
		e.Counter("sparker_cluster_shard_requests_total", "Requests issued to the shard.", float64(s.requests.Load()),
			obs.Label{Name: "shard", Value: s.url})
	}
	for _, s := range c.shards {
		e.Counter("sparker_cluster_shard_errors_total", "Failed shard calls (transport, status or decode).", float64(s.errors.Load()),
			obs.Label{Name: "shard", Value: s.url})
	}
	for s := 0; s < index.NumStages; s++ {
		e.Histogram("sparker_cluster_stage_seconds", "Per-stage query latency reported by shards.",
			c.stageNanos[s].Snapshot(), 1e-9, obs.Label{Name: "stage", Value: index.Stage(s).String()})
	}
	e.Histogram("sparker_cluster_merge_seconds", "Partial-result merge latency at the coordinator.", c.mergeNanos.Snapshot(), 1e-9)
}
