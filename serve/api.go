package serve

// The versioned /v1 API contract: one typed JSON error envelope for
// every 4xx/5xx response, and one typed codec for the per-request
// query knobs. Every API route lives under /v1/ and nowhere else, so
// every topology (the cluster coordinator above all) speaks one
// stable, forwardable contract.
//
// The knob codec is the piece that makes scatter-gather trustworthy:
// the coordinator decodes a request's knobs once, adjusts them
// (per-shard budgets, the degradation ladder) and re-encodes them for
// the fan-out — decode(encode(p)) == p, and the canonical encoding is
// deterministic, so a shard sees exactly the knobs the coordinator
// decided on, never a lossy re-parse.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"sparker/internal/index"
)

// Error codes of the /v1 error envelope. Every 4xx/5xx response body
// is an APIError carrying exactly one of these.
const (
	ErrCodeBadRequest       = "bad_request"        // malformed body or knob (400)
	ErrCodeMethodNotAllowed = "method_not_allowed" // wrong HTTP method (405)
	ErrCodeNotFound         = "not_found"          // route or disabled surface (404)
	ErrCodeReadOnly         = "read_only"          // write against a replica (403)
	ErrCodePayloadTooLarge  = "payload_too_large"  // body over the cap (413)
	ErrCodeOverloaded       = "overloaded"         // shed by the admission gate (429/503)
	ErrCodeUnavailable      = "unavailable"        // no shard could answer (503)
	ErrCodeGone             = "gone"               // replication position expired (410)
	ErrCodeInternal         = "internal"           // unexpected server-side failure (500)
)

// APIError is the one error body every 4xx/5xx path writes:
//
//	{"error": {"code": "...", "message": "...", "retry_after_seconds": N}}
//
// Code is machine-matchable (the ErrCode* constants), Message is for
// humans, RetryAfterSeconds mirrors the Retry-After header on shed and
// not-ready responses.
type APIError struct {
	Err APIErrorDetail `json:"error"`
}

// APIErrorDetail is the payload of the error envelope.
type APIErrorDetail struct {
	Code              string `json:"code"`
	Message           string `json:"message"`
	RetryAfterSeconds int64  `json:"retry_after_seconds,omitempty"`
}

// Error makes the envelope usable as a Go error on the client side
// (the coordinator's shard client propagates shard errors through it).
func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s", e.Err.Code, e.Err.Message)
}

// httpError writes the typed error envelope.
func httpError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(APIError{Err: APIErrorDetail{Code: code, Message: err.Error()}})
}

// httpErrorRetry is httpError with a Retry-After header and the
// matching retry_after_seconds field — the shed/not-ready shape.
func httpErrorRetry(w http.ResponseWriter, status int, code string, retryAfterSecs int64, err error) {
	w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSecs, 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(APIError{Err: APIErrorDetail{
		Code: code, Message: err.Error(), RetryAfterSeconds: retryAfterSecs,
	}})
}

// QueryParams is the typed form of the per-request knobs on /v1/query
// (and the source selector shared with /v1/upsert and /v1/bulk). The
// zero value means "no knob present"; the *Set flags distinguish an
// explicit zero (?budget_ms=0 lifts the server's default budget) from
// an absent knob (the default applies).
type QueryParams struct {
	// BudgetMS bounds the query's wall clock in milliseconds when
	// BudgetSet; an explicit 0 means unlimited.
	BudgetMS  float64
	BudgetSet bool
	// MaxComparisons caps scored candidates when MaxComparisonsSet; an
	// explicit 0 means unlimited.
	MaxComparisons    int
	MaxComparisonsSet bool
	// Debug asks for the per-stage timing breakdown in the response.
	Debug bool
	// Source marks the profile as belonging to the second clean source
	// when SourceSet (upsert/bulk/query alike).
	Source    int
	SourceSet bool
}

// ParseQueryParams decodes the request knobs, validating syntax and
// ranges; none depends on the index, so a coordinator can parse and
// forward knobs for indexes it never sees. Unknown parameters are
// ignored for forward compatibility.
func ParseQueryParams(q url.Values) (QueryParams, error) {
	var p QueryParams
	if s := q.Get("budget_ms"); s != "" {
		ms, err := strconv.ParseFloat(s, 64)
		if err != nil || ms < 0 {
			return p, fmt.Errorf("bad budget_ms %q (want non-negative milliseconds; 0 = unlimited)", s)
		}
		p.BudgetMS = ms
		p.BudgetSet = true
	}
	if s := q.Get("max_comparisons"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad max_comparisons %q (want non-negative; 0 = unlimited)", s)
		}
		p.MaxComparisons = n
		p.MaxComparisonsSet = true
	}
	switch q.Get("debug") {
	case "1", "true":
		p.Debug = true
	}
	if s := q.Get("source"); s != "" {
		src, err := strconv.Atoi(s)
		if err != nil || src < 0 || src > 1 {
			return p, fmt.Errorf("bad source %q", s)
		}
		p.Source = src
		p.SourceSet = true
	}
	return p, nil
}

// Values renders the knobs back into query parameters. The encoding is
// canonical (numbers in their shortest form, keys sorted by Encode),
// and ParseQueryParams(p.Values()) == p — the round-trip the
// coordinator relies on to forward knobs faithfully.
func (p QueryParams) Values() url.Values {
	q := url.Values{}
	if p.BudgetSet {
		q.Set("budget_ms", strconv.FormatFloat(p.BudgetMS, 'f', -1, 64))
	}
	if p.MaxComparisonsSet {
		q.Set("max_comparisons", strconv.Itoa(p.MaxComparisons))
	}
	if p.Debug {
		q.Set("debug", "1")
	}
	if p.SourceSet {
		q.Set("source", strconv.Itoa(p.Source))
	}
	return q
}

// Encode is Values().Encode(): the canonical query string.
func (p QueryParams) Encode() string { return p.Values().Encode() }

// resolveOptions turns the knobs — as the default budget and the
// degradation ladder left them — into the index call's work budget, its
// wall-clock part stamped as a deadline from now.
func (p QueryParams) resolveOptions() index.ResolveOptions {
	var opts index.ResolveOptions
	if budget := time.Duration(p.BudgetMS * float64(time.Millisecond)); budget > 0 {
		opts.Budget.Deadline = index.DeadlineIn(budget)
	}
	opts.Budget.MaxComparisons = p.MaxComparisons
	return opts
}

// DeltaParams is the typed form of the /v1/deltas knobs, shared by the
// leader-side handler and the follower's poll-URL builder so the two
// ends of the replication wire can never drift.
type DeltaParams struct {
	// Since is the op sequence number the response should start after.
	Since int64
	// WaitMS is the long-poll bound in milliseconds when the feed is
	// caught up (capped server-side at maxDeltaWait).
	WaitMS int64
}

// ParseDeltaParams decodes and validates the /v1/deltas knobs.
func ParseDeltaParams(q url.Values) (DeltaParams, error) {
	var p DeltaParams
	if s := q.Get("since"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad since %q (want a non-negative sequence number)", s)
		}
		p.Since = n
	}
	if s := q.Get("wait_ms"); s != "" {
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil || ms < 0 {
			return p, fmt.Errorf("bad wait_ms %q (want non-negative milliseconds)", s)
		}
		p.WaitMS = ms
	}
	return p, nil
}

// Values renders the delta knobs back into query parameters. Since is
// always present (a follower at sequence 0 still names its position).
func (p DeltaParams) Values() url.Values {
	q := url.Values{}
	q.Set("since", strconv.FormatInt(p.Since, 10))
	if p.WaitMS > 0 {
		q.Set("wait_ms", strconv.FormatInt(p.WaitMS, 10))
	}
	return q
}

// wait returns the bounded long-poll duration.
func (p DeltaParams) wait() time.Duration {
	w := time.Duration(p.WaitMS) * time.Millisecond
	if w > maxDeltaWait {
		w = maxDeltaWait
	}
	return w
}
