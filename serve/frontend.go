package serve

// The one serving front end. A single-node Handler and a shard
// coordinator (Cluster) differ in what a request does once it is
// admitted; everything before and around that is this file, embedded by
// both: the instrumented route table and its method check, the
// admission gate, the typed knob decode, the bounded body read, the
// default-budget-then-ladder precedence, /healthz, the /readyz drain
// protocol, the catch-all 404 and the admission block of /v1/stats and
// /metrics. A topology registers its routes and nothing else.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"time"

	"sparker/internal/obs"
)

// DefaultMaxBodyBytes caps /v1/query, /v1/upsert and /v1/bulk request
// bodies when MaxBodyBytes is zero: large enough for generous bulk
// loads, small enough that one request can never balloon the heap.
const DefaultMaxBodyBytes int64 = 32 << 20

// unmatchedRoute is the fixed route label every request to an unknown
// path counts under — never the request path, which is client-chosen
// and unbounded.
const unmatchedRoute = "unmatched"

// route is one row of the route table: the handler, the only method it
// answers, and its instrumentation (request, 4xx and 5xx counters plus
// a latency histogram, labelled by path).
type route struct {
	path   string
	method string
	fn     http.HandlerFunc

	requests  obs.Counter
	errors4xx obs.Counter
	errors5xx obs.Counter
	latency   obs.Histogram // nanos
}

// call is what a gated route receives once its request is admitted: the
// decoded knobs, the bounded body, and the admission level the gate
// assigned (the ladder's input).
type call struct {
	params QueryParams
	body   []byte
	level  int
}

// frontend is the request pipeline and its accounting; see the file
// comment. Handler and Cluster embed it and serve through its ServeHTTP.
type frontend struct {
	routes    []*route // registration order: the /v1/stats and /metrics row order
	byPath    map[string]*route
	unmatched *route

	logger        *slog.Logger
	gate          *admission
	maxBody       int64
	defaultBudget time.Duration
	// retryAfter is the Retry-After value (whole seconds) of every shed
	// and not-ready response, derived from the shed wait: a client told
	// to come back should wait at least as long as the server itself
	// would have let it wait for a slot.
	retryAfter int64

	// Budget/degradation accounting, exposed by /v1/stats and /metrics.
	degraded  obs.Counter // queries served at a non-zero ladder level
	truncated obs.Counter // responses whose budget tripped
}

func (f *frontend) init(logger *slog.Logger, maxInFlight int, shedWait, defaultBudget time.Duration, maxBody int64) {
	if logger == nil {
		logger = slog.Default()
	}
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	f.logger = logger
	f.gate = newAdmission(maxInFlight, shedWait)
	f.maxBody = maxBody
	f.defaultBudget = defaultBudget
	f.retryAfter = retryAfterSeconds(shedWait)
	f.byPath = make(map[string]*route)
}

// retryAfterSeconds renders a shed wait as a whole-second Retry-After
// value, rounding up so clients never come back before a slot could
// have opened; the floor of 1 keeps the header meaningful when no wait
// is configured.
func retryAfterSeconds(wait time.Duration) int64 {
	return max(1, int64(math.Ceil(wait.Seconds())))
}

// handle registers an instrumented route answering one method.
func (f *frontend) handle(method, path string, fn http.HandlerFunc) {
	rt := &route{path: path, method: method, fn: fn}
	f.routes = append(f.routes, rt)
	f.byPath[path] = rt
}

// handleGated registers a resolution route (POST) behind the admission
// gate. Over-limit requests shed with 429/503 + Retry-After instead of
// queueing; an admitted request reaches fn with its knobs decoded (400
// on a malformed one) and its body read under the cap (413 beyond it) —
// one huge upload never balloons the heap.
func (f *frontend) handleGated(path string, fn func(http.ResponseWriter, *http.Request, call)) {
	f.handle(http.MethodPost, path, func(w http.ResponseWriter, r *http.Request) {
		release, level, status := f.gate.acquire(r.Context())
		if status != 0 {
			httpErrorRetry(w, status, ErrCodeOverloaded, f.retryAfter, errOverloaded)
			return
		}
		defer release()
		params, err := ParseQueryParams(r.URL.Query())
		if err != nil {
			httpError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
			return
		}
		// A declared length sizes the buffer once for the common small
		// body. It is the client's claim, so it is trusted only up to
		// 64 KiB: past that the buffer grows as bytes actually arrive.
		var body bytes.Buffer
		if n := r.ContentLength; n > 0 {
			body.Grow(int(min(n, 64<<10)) + bytes.MinRead)
		}
		if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, f.maxBody)); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge, ErrCodePayloadTooLarge,
					fmt.Errorf("request body exceeds %d bytes (split the upload or raise -max-body)", tooBig.Limit))
				return
			}
			httpError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
			return
		}
		fn(w, r, call{params: params, body: body.Bytes(), level: level})
	})
}

// handleOperator registers, after a topology's API routes, the
// unversioned operator routes every topology serves — /healthz,
// /readyz, /metrics (scraper and load-balancer conventions, not API
// surfaces) — and the row unknown paths count under. metrics renders
// the topology's own families; the front end's follow in the same
// Prometheus text exposition.
func (f *frontend) handleOperator(readyz http.HandlerFunc, metrics func(*obs.Expo), noMetrics bool) {
	f.handle(http.MethodGet, "/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Liveness: the process is up and the handler answers.
		writeJSON(w, map[string]any{"status": "ok"})
	})
	f.handle(http.MethodGet, "/readyz", readyz)
	if !noMetrics {
		f.handle(http.MethodGet, "/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			e := obs.NewExpo(w)
			metrics(e)
			f.writeMetrics(e)
			_ = e.Flush()
		})
	}
	f.unmatched = &route{path: unmatchedRoute}
	f.routes = append(f.routes, f.unmatched)
}

// ServeHTTP dispatches to the route table, answering an unknown path or
// a wrong method itself with the typed envelope.
func (f *frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := obs.Now()
	sw := statusWriter{ResponseWriter: w}
	rt, ok := f.byPath[r.URL.Path]
	switch {
	case !ok:
		rt = f.unmatched
		httpError(&sw, http.StatusNotFound, ErrCodeNotFound,
			fmt.Errorf("no route %s (API routes live under /v1/, e.g. /v1/query)", r.URL.Path))
	case r.Method != rt.method:
		httpError(&sw, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, fmt.Errorf("use %s", rt.method))
	default:
		rt.fn(&sw, r)
	}
	rt.requests.Inc()
	switch {
	case sw.code >= 500:
		rt.errors5xx.Inc()
	case sw.code >= 400:
		rt.errors4xx.Inc()
	}
	rt.latency.Observe(obs.Now() - start)
}

// statusWriter captures the response status for the error counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// errOverloaded is the shed response body: what a client sees when the
// admission gate refuses its request.
var errOverloaded = errors.New("server overloaded, retry later")

// throttle settles the budget a query runs under, in the one order
// every topology uses: the server's default budget fills in for a
// request that carries none, and only then does the degradation ladder
// tighten the result — so pressure can only ever shrink a budget.
func (f *frontend) throttle(p *QueryParams, level int) {
	if !p.BudgetSet && f.defaultBudget > 0 {
		p.BudgetMS = float64(f.defaultBudget) / float64(time.Millisecond)
		p.BudgetSet = true
	}
	degrade(p, level)
}

// countQuery records one served query in the degradation accounting.
func (f *frontend) countQuery(level int, truncated bool) {
	if level > 0 {
		f.degraded.Inc()
	}
	if truncated {
		f.truncated.Inc()
	}
}

// ready answers /readyz. A load balancer drains a replica answering 503
// here while /healthz keeps it alive — shedding hard is a reason to
// stop sending traffic, not to restart the process. drain is the
// topology's own reason to be out of rotation (nil when it has none); a
// saturated gate is everyone's. The 503 carries the same Retry-After a
// shed response does, and its body stays status-shaped (not the error
// envelope): readiness probes report state, they do not fail requests.
func (f *frontend) ready(w http.ResponseWriter, drain, ok map[string]any) {
	if drain == nil && f.gate.saturated() {
		drain = map[string]any{"status": "shedding", "in_flight": f.gate.inFlight()}
	}
	if drain == nil {
		writeJSON(w, ok)
		return
	}
	w.Header().Set("Retry-After", strconv.FormatInt(f.retryAfter, 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(drain)
}

// writeJSON answers 200 with v as compact JSON, one line: whitespace on
// the wire is encode time on a node and decode time on the coordinator.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// routeStatsJSON is one route's counters on the /v1/stats surface — the
// JSON digest of what /metrics exposes as Prometheus families.
type routeStatsJSON struct {
	Route     string  `json:"route"`
	Requests  int64   `json:"requests"`
	Errors4xx int64   `json:"errors_4xx"`
	Errors5xx int64   `json:"errors_5xx"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

func (f *frontend) routeStats() []routeStatsJSON {
	out := make([]routeStatsJSON, 0, len(f.routes))
	for _, rt := range f.routes {
		s := rt.latency.Snapshot()
		out = append(out, routeStatsJSON{
			Route:     rt.path,
			Requests:  rt.requests.Load(),
			Errors4xx: rt.errors4xx.Load(),
			Errors5xx: rt.errors5xx.Load(),
			P50Ms:     s.Quantile(0.5) / 1e6,
			P99Ms:     s.Quantile(0.99) / 1e6,
		})
	}
	return out
}

// admissionStatsJSON is the /v1/stats digest of the admission gate and
// the budget/degradation counters — what an operator reads to tell
// "loaded but coping" (degraded/truncated climbing) from "refusing
// work" (shed counters climbing).
type admissionStatsJSON struct {
	// MaxInFlight is the configured gate capacity (0 = admission off).
	MaxInFlight int `json:"max_inflight"`
	InFlight    int `json:"in_flight"`
	Waiting     int `json:"waiting"`
	// ShedFull counts requests shed immediately (429, no wait
	// configured); ShedTimeout counts requests shed after the bounded
	// wait expired or the client gave up (503).
	ShedFull    int64 `json:"shed_full"`
	ShedTimeout int64 `json:"shed_timeout"`
	// Degraded counts queries served at a non-zero ladder level and
	// Truncated responses whose budget tripped mid-resolution.
	Degraded  int64 `json:"degraded_queries"`
	Truncated int64 `json:"truncated_queries"`
}

func (f *frontend) admissionStats() admissionStatsJSON {
	s := admissionStatsJSON{
		MaxInFlight: f.gate.capacity(),
		InFlight:    f.gate.inFlight(),
		Degraded:    f.degraded.Load(),
		Truncated:   f.truncated.Load(),
	}
	if f.gate != nil {
		s.Waiting = int(f.gate.waiting.Load())
		s.ShedFull = f.gate.shedFull.Load()
		s.ShedTimeout = f.gate.shedTimeout.Load()
	}
	return s
}

// writeMetrics renders the families every topology exposes after its
// own: the admission gate and budget/degradation telemetry (the
// overload dashboards alert on shed and degraded rates long before
// latency histograms drift), then the per-route HTTP families. Families
// must be contiguous in the exposition: each is emitted across all
// routes before moving to the next.
func (f *frontend) writeMetrics(e *obs.Expo) {
	adm := f.admissionStats()
	e.Gauge("sparker_admission_max_in_flight", "Configured admission gate capacity (0 = admission off).", float64(adm.MaxInFlight))
	e.Gauge("sparker_admission_in_flight", "Requests currently admitted through the gate.", float64(adm.InFlight))
	e.Gauge("sparker_admission_waiting", "Requests waiting for an admission slot.", float64(adm.Waiting))
	e.Counter("sparker_admission_shed_total", "Requests shed by the admission gate.", float64(adm.ShedFull),
		obs.Label{Name: "reason", Value: "full"})
	e.Counter("sparker_admission_shed_total", "Requests shed by the admission gate.", float64(adm.ShedTimeout),
		obs.Label{Name: "reason", Value: "timeout"})
	e.Counter("sparker_queries_degraded_total", "Queries served at a non-zero degradation level.", float64(adm.Degraded))
	e.Counter("sparker_queries_truncated_total", "Query responses truncated by a per-request budget.", float64(adm.Truncated))

	for _, rt := range f.routes {
		e.Counter("sparker_http_requests_total", "HTTP requests served.", float64(rt.requests.Load()),
			obs.Label{Name: "route", Value: rt.path})
	}
	for _, rt := range f.routes {
		e.Counter("sparker_http_errors_total", "HTTP error responses.", float64(rt.errors4xx.Load()),
			obs.Label{Name: "route", Value: rt.path}, obs.Label{Name: "class", Value: "4xx"})
		e.Counter("sparker_http_errors_total", "HTTP error responses.", float64(rt.errors5xx.Load()),
			obs.Label{Name: "route", Value: rt.path}, obs.Label{Name: "class", Value: "5xx"})
	}
	for _, rt := range f.routes {
		e.Histogram("sparker_http_request_seconds", "HTTP request latency.", rt.latency.Snapshot(), 1e-9,
			obs.Label{Name: "route", Value: rt.path})
	}
}
