package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparker/internal/index"
	"sparker/internal/obs/obstest"
	"sparker/internal/profile"
)

func obsTestIndex(t *testing.T) *index.Index {
	t.Helper()
	mk := func(src int, id, text string) profile.Profile {
		p := profile.Profile{OriginalID: id, SourceID: src}
		p.Add("name", text)
		return p
	}
	x := index.New(true, index.DefaultConfig())
	for _, p := range []profile.Profile{
		mk(0, "a1", "acme turbo blender kitchen"),
		mk(0, "a2", "zenix portable speaker"),
		mk(1, "b1", "acme turbo blender refurbished"),
		mk(1, "b2", "zenix speaker portable bluetooth"),
	} {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, string(raw)
}

// TestMetricsEndpoint scrapes /metrics after driving traffic through
// the handler and validates the exposition line syntax plus the
// presence of every metric family the catalogue promises.
func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(obsTestIndex(t)))
	defer srv.Close()

	// Two queries: both count into the route="/v1/query" row. A removed
	// unversioned path counts under the one fixed catch-all label, never
	// under its own path.
	if resp, body := postJSON(t, srv.URL+"/v1/query", `{"id": "probe", "name": "acme turbo blender"}`); resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, srv.URL+"/v1/query", `{"id": "probe2", "name": "acme turbo blender"}`); resp.StatusCode != 200 {
		t.Fatalf("v1 query: %d %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/upsert?source=1", `{"id": "b9", "name": "starlight projector"}`); resp.StatusCode != 200 {
		t.Fatalf("upsert: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/query", `{"id": "probe", "name": "acme turbo blender"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy /query: %d, want 404", resp.StatusCode)
	}
	// One client error, for the 4xx counter.
	if resp, _ := postJSON(t, srv.URL+"/v1/query", `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query accepted: %d", resp.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	obstest.ValidateExposition(t, body)

	for _, want := range []string{
		"sparker_index_profiles 5",
		"sparker_index_queries_total 2",
		"sparker_index_upserts_total 5",
		`sparker_query_stage_seconds_bucket{stage="tokenize",le="+Inf"} 2`,
		`sparker_query_stage_seconds_bucket{stage="prune",le="+Inf"} 2`,
		`sparker_query_stage_seconds_bucket{stage="score",le="+Inf"} 2`,
		"sparker_query_seconds_count 2",
		"sparker_resolve_seconds_count 2",
		"sparker_upsert_seconds_count 5",
		"sparker_resolve_comparisons_count 2",
		`sparker_http_requests_total{route="/v1/query"} 3`,
		`sparker_http_requests_total{route="/v1/upsert"} 1`,
		`sparker_http_errors_total{route="/v1/query",class="4xx"} 1`,
		`sparker_http_errors_total{route="/v1/query",class="5xx"} 0`,
		`sparker_http_request_seconds_count{route="/v1/query"} 3`,
		`sparker_http_requests_total{route="unmatched"} 1`,
		`sparker_http_errors_total{route="unmatched",class="4xx"} 1`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("missing %q in /metrics output", want)
		}
	}
}

// TestMetricsDisabledOption pins Options.NoMetrics: the endpoint is
// absent, everything else still serves.
func TestMetricsDisabledOption(t *testing.T) {
	srv := httptest.NewServer(NewHandlerOptions(obsTestIndex(t), Options{NoMetrics: true}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics with NoMetrics: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/stats: %d", resp.StatusCode)
	}
}

// TestDebugQueryMode checks ?debug=1: a per-stage breakdown rides on
// the response, absent without the flag.
func TestDebugQueryMode(t *testing.T) {
	srv := httptest.NewServer(NewHandler(obsTestIndex(t)))
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/v1/query?debug=1", `{"id": "probe", "name": "acme turbo blender"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Candidates []any `json:"candidates"`
		Debug      *struct {
			Stages []struct {
				Stage string `json:"stage"`
				Nanos int64  `json:"nanos"`
			} `json:"stages"`
			TotalNanos int64 `json:"total_nanos"`
		} `json:"debug"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Debug == nil {
		t.Fatal("no debug breakdown with ?debug=1")
	}
	if len(out.Debug.Stages) != index.NumStages {
		t.Fatalf("debug stages = %d, want %d", len(out.Debug.Stages), index.NumStages)
	}
	var sum int64
	seen := map[string]bool{}
	for _, s := range out.Debug.Stages {
		if s.Nanos < 0 {
			t.Errorf("stage %s nanos = %d, want >= 0", s.Stage, s.Nanos)
		}
		seen[s.Stage] = true
		sum += s.Nanos
	}
	for _, want := range []string{"tokenize", "purge_filter", "candidates", "weigh", "prune", "score"} {
		if !seen[want] {
			t.Errorf("debug breakdown missing stage %q", want)
		}
	}
	if sum != out.Debug.TotalNanos {
		t.Errorf("stage sum %d != total %d", sum, out.Debug.TotalNanos)
	}
	if out.Debug.TotalNanos <= 0 {
		t.Errorf("total nanos = %d, want positive", out.Debug.TotalNanos)
	}

	_, plain := postJSON(t, srv.URL+"/v1/query", `{"id": "probe", "name": "acme turbo blender"}`)
	if strings.Contains(plain, `"debug"`) {
		t.Error("debug breakdown present without ?debug=1")
	}
}

// TestStatsHTTPCounters checks the /v1/stats surface gained the per-route
// error counters while keeping the index snapshot fields inline.
func TestStatsHTTPCounters(t *testing.T) {
	srv := httptest.NewServer(NewHandler(obsTestIndex(t)))
	defer srv.Close()

	postJSON(t, srv.URL+"/v1/query", `{"id": "probe", "name": "acme turbo blender"}`)
	postJSON(t, srv.URL+"/v1/query", `garbage`) // 400
	http.Get(srv.URL + "/v1/query")             // 405 (GET on a POST route)

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Profiles int   `json:"profiles"`
		Queries  int64 `json:"queries"`
		Timings  []struct {
			Stage string `json:"stage"`
			Count uint64 `json:"count"`
		} `json:"timings"`
		HTTP []struct {
			Route     string `json:"route"`
			Requests  int64  `json:"requests"`
			Errors4xx int64  `json:"errors_4xx"`
			Errors5xx int64  `json:"errors_5xx"`
		} `json:"http"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Profiles != 4 || stats.Queries != 1 {
		t.Errorf("snapshot fields lost: profiles=%d queries=%d", stats.Profiles, stats.Queries)
	}
	if len(stats.Timings) == 0 {
		t.Error("no timing rows in /v1/stats")
	}
	var query struct {
		requests, e4 int64
		found        bool
	}
	for _, r := range stats.HTTP {
		if r.Route == "/v1/query" {
			query.requests, query.e4, query.found = r.Requests, r.Errors4xx, true
		}
	}
	if !query.found {
		t.Fatal("no /v1/query row in stats http counters")
	}
	if query.requests != 3 || query.e4 != 2 {
		t.Errorf("/v1/query counters requests=%d errors_4xx=%d, want 3/2", query.requests, query.e4)
	}
}

// TestSlowQueryLog drives a query through a handler with a 1ns slow
// threshold and checks the structured record carries the per-stage
// breakdown.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	srv := httptest.NewServer(NewHandlerOptions(obsTestIndex(t), Options{
		Logger:    logger,
		SlowQuery: time.Nanosecond,
	}))
	defer srv.Close()

	if resp, body := postJSON(t, srv.URL+"/v1/query", `{"id": "probe", "name": "acme turbo blender"}`); resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow-query log is not one JSON record: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "slow query" {
		t.Errorf("msg = %v", rec["msg"])
	}
	for _, key := range []string{"original_id", "elapsed_ms", "tokenize_ms", "candidates_ms", "score_ms", "comparisons", "matches"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("slow-query record missing %q: %v", key, rec)
		}
	}
	if rec["original_id"] != "probe" {
		t.Errorf("original_id = %v", rec["original_id"])
	}

	// Below the threshold: nothing logged.
	buf.Reset()
	srv2 := httptest.NewServer(NewHandlerOptions(obsTestIndex(t), Options{
		Logger:    logger,
		SlowQuery: time.Hour,
	}))
	defer srv2.Close()
	postJSON(t, srv2.URL+"/v1/query", `{"id": "probe", "name": "acme turbo blender"}`)
	if buf.Len() != 0 {
		t.Errorf("fast query logged as slow: %s", buf.String())
	}
}
