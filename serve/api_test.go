package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"sparker/internal/index"
)

// TestErrorEnvelope pins the /v1 error contract: every 4xx/5xx path —
// method, knob, payload, read-only, not-found (a disabled surface, an
// unknown route, a removed unversioned path — on a node and on a
// coordinator alike), and both admission shed shapes — answers the one
// typed envelope with a machine-matchable code. A client that switches on error.code must never meet an
// ad-hoc body.
func TestErrorEnvelope(t *testing.T) {
	writable := index.New(false, index.DefaultConfig())
	plain := NewHandlerOptions(writable, Options{MaxBodyBytes: 64})

	ro := index.New(false, index.DefaultConfig())
	ro.SetReadOnly(true)
	readOnly := NewHandler(ro)

	// Gates pre-filled from inside the package: the next gated request
	// finds no slot and sheds — 429 immediately without a shed wait,
	// 503 after one.
	shed429 := NewHandlerOptions(writable, Options{MaxInFlight: 1})
	shed429.gate.sem <- struct{}{}
	shed503 := NewHandlerOptions(writable, Options{MaxInFlight: 1, ShedWait: time.Millisecond})
	shed503.gate.sem <- struct{}{}

	// A coordinator over one (never contacted) shard: the front end
	// answers these itself.
	coord, err := NewCluster([]string{"http://127.0.0.1:1"}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	profileBody := `{"id": "p1", "name": "acme blender"}`
	for _, tc := range []struct {
		name       string
		h          http.Handler
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantRetry  bool
	}{
		{"method not allowed", plain, http.MethodGet, "/v1/query", "", http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, false},
		{"bad budget knob", plain, http.MethodPost, "/v1/query?budget_ms=nope", profileBody, http.StatusBadRequest, ErrCodeBadRequest, false},
		{"bad source knob on upsert", plain, http.MethodPost, "/v1/upsert?source=9", profileBody, http.StatusBadRequest, ErrCodeBadRequest, false},
		{"malformed body", plain, http.MethodPost, "/v1/query", "not json", http.StatusBadRequest, ErrCodeBadRequest, false},
		{"snapshot save unconfigured", plain, http.MethodPost, "/v1/snapshot/save", "", http.StatusNotFound, ErrCodeNotFound, false},
		{"deltas without op log", plain, http.MethodGet, "/v1/deltas?since=0", "", http.StatusNotFound, ErrCodeNotFound, false},
		{"bad deltas knob", plain, http.MethodGet, "/v1/deltas?since=-1", "", http.StatusNotFound, ErrCodeNotFound, false},
		{"payload too large", plain, http.MethodPost, "/v1/upsert",
			`{"id": "big", "name": "` + strings.Repeat("x", 200) + `"}`, http.StatusRequestEntityTooLarge, ErrCodePayloadTooLarge, false},
		{"read-only upsert", readOnly, http.MethodPost, "/v1/upsert", profileBody, http.StatusForbidden, ErrCodeReadOnly, false},
		{"read-only bulk", readOnly, http.MethodPost, "/v1/bulk", profileBody, http.StatusForbidden, ErrCodeReadOnly, false},
		{"unknown route", plain, http.MethodGet, "/v1/nope", "", http.StatusNotFound, ErrCodeNotFound, false},
		{"unknown route on coordinator", coord, http.MethodGet, "/v1/deltas", "", http.StatusNotFound, ErrCodeNotFound, false},
		{"legacy unversioned path", plain, http.MethodPost, "/query", profileBody, http.StatusNotFound, ErrCodeNotFound, false},
		{"legacy unversioned path on coordinator", coord, http.MethodPost, "/query", profileBody, http.StatusNotFound, ErrCodeNotFound, false},
		{"method not allowed on coordinator", coord, http.MethodGet, "/v1/query", "", http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, false},
		{"shed immediately", shed429, http.MethodPost, "/v1/query", profileBody, http.StatusTooManyRequests, ErrCodeOverloaded, true},
		{"shed after wait", shed503, http.MethodPost, "/v1/query", profileBody, http.StatusServiceUnavailable, ErrCodeOverloaded, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rd *strings.Reader
			if tc.body != "" {
				rd = strings.NewReader(tc.body)
			} else {
				rd = strings.NewReader("")
			}
			req := httptest.NewRequest(tc.method, tc.path, rd)
			w := httptest.NewRecorder()
			tc.h.ServeHTTP(w, req)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, tc.wantStatus, w.Body.String())
			}
			if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
				t.Errorf("content type = %q, want JSON", ct)
			}
			var env APIError
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Fatalf("body is not the error envelope: %v (%s)", err, w.Body.String())
			}
			if env.Err.Code != tc.wantCode {
				t.Errorf("error.code = %q, want %q", env.Err.Code, tc.wantCode)
			}
			if env.Err.Message == "" {
				t.Error("error.message empty")
			}
			if tc.wantRetry {
				if env.Err.RetryAfterSeconds < 1 {
					t.Errorf("retry_after_seconds = %d, want >= 1", env.Err.RetryAfterSeconds)
				}
				if w.Header().Get("Retry-After") == "" {
					t.Error("Retry-After header missing on shed response")
				}
			}
		})
	}
}

// TestQueryParamsRoundTrip pins the codec the coordinator forwards
// knobs through: ParseQueryParams(p.Values()) == p for every knob
// combination, including the explicit-zero budget that means
// "unlimited" (distinct from an absent knob).
func TestQueryParamsRoundTrip(t *testing.T) {
	for _, p := range []QueryParams{
		{},
		{BudgetMS: 12.5, BudgetSet: true},
		{BudgetMS: 0, BudgetSet: true}, // explicit ?budget_ms=0: lift the default
		{MaxComparisons: 64, MaxComparisonsSet: true},
		{MaxComparisons: 0, MaxComparisonsSet: true},
		{Debug: true},
		{Source: 1, SourceSet: true},
		{Source: 0, SourceSet: true},
		{BudgetMS: 7, BudgetSet: true,
			MaxComparisons: 128, MaxComparisonsSet: true, Debug: true, Source: 1, SourceSet: true},
	} {
		got, err := ParseQueryParams(p.Values())
		if err != nil {
			t.Fatalf("ParseQueryParams(%q): %v", p.Encode(), err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("round trip %q: got %+v, want %+v", p.Encode(), got, p)
		}
		// The canonical encoding is deterministic: encoding what we
		// decoded reproduces the same string.
		if got.Encode() != p.Encode() {
			t.Errorf("Encode not canonical: %q vs %q", got.Encode(), p.Encode())
		}
	}
}

// TestQueryParamsRejects pins the 400 knob validation.
func TestQueryParamsRejects(t *testing.T) {
	for _, qs := range []string{
		"budget_ms=-1",
		"budget_ms=abc",
		"max_comparisons=-5",
		"source=2",
		"source=x",
	} {
		v, _ := url.ParseQuery(qs)
		if _, err := ParseQueryParams(v); err == nil {
			t.Errorf("ParseQueryParams(%q) accepted, want error", qs)
		}
	}
}

// TestDeltaParamsRoundTrip pins the replication knob codec shared by
// the leader handler and the follower's poll-URL builder.
func TestDeltaParamsRoundTrip(t *testing.T) {
	for _, p := range []DeltaParams{
		{},
		{Since: 42},
		{Since: 7, WaitMS: 2500},
	} {
		got, err := ParseDeltaParams(p.Values())
		if err != nil {
			t.Fatalf("ParseDeltaParams(%v): %v", p, err)
		}
		if got != p {
			t.Errorf("round trip: got %+v, want %+v", got, p)
		}
	}
	if _, err := ParseDeltaParams(url.Values{"since": {"-1"}}); err == nil {
		t.Error("negative since accepted")
	}
	if _, err := ParseDeltaParams(url.Values{"wait_ms": {"x"}}); err == nil {
		t.Error("malformed wait_ms accepted")
	}
}
