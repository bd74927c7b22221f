package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sparker"
	"sparker/serve"
)

// newTestServer builds a small clean-clean index through the public API
// and serves it.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	mk := func(id, key, value string) sparker.Profile {
		p := sparker.Profile{OriginalID: id}
		p.Add(key, value)
		return p
	}
	a := []sparker.Profile{
		mk("a1", "name", "acme turboblend blender"),
		mk("a2", "name", "zenix soundwave speaker"),
		mk("a3", "name", "quietcool desk fan"),
	}
	b := []sparker.Profile{
		mk("b1", "title", "turboblend blender by acme"),
		mk("b2", "title", "zenix soundwave portable speaker"),
		mk("b3", "title", "luxor desk lamp"),
	}
	idx, err := sparker.NewIndex(sparker.NewCleanClean(a, b), sparker.DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHandler(idx))
	t.Cleanup(srv.Close)
	return srv
}

func TestHandlerEndToEnd(t *testing.T) {
	srv := newTestServer(t)

	post := func(path, body string) map[string]any {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Upsert a new source-1 profile, then query for it from source 0.
	up := post("/v1/upsert?source=1", `{"id": "b9", "title": "starlight projector lamp"}`)
	if up["created"] != true {
		t.Fatalf("upsert response = %v", up)
	}
	q := post("/v1/query", `{"id": "probe", "name": "starlight projector"}`)
	cands := q["candidates"].([]any)
	if len(cands) != 1 {
		t.Fatalf("candidates = %v", cands)
	}
	if cands[0].(map[string]any)["original_id"] != "b9" {
		t.Fatalf("top candidate = %v", cands[0])
	}

	bulk := post("/v1/bulk?source=1", "{\"id\": \"b10\", \"title\": \"copper kettle\"}\n{\"id\": \"b11\", \"title\": \"steel kettle\"}")
	if bulk["upserted"] != float64(2) {
		t.Fatalf("bulk response = %v", bulk)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap sparker.IndexSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Profiles != 9 || snap.Upserts != 3 {
		t.Fatalf("stats = %+v", snap)
	}
}

// TestResponsesAreCompact pins the wire shape: every 200 body is one
// line of JSON without indentation, matches included, and a match names
// the profile it scored.
func TestResponsesAreCompact(t *testing.T) {
	srv := newTestServer(t)
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/query?debug=1", `{"id": "probe", "name": "acme turboblend blender"}`},
		{http.MethodPost, "/v1/upsert?source=1", `{"id": "b9", "title": "starlight projector lamp"}`},
		{http.MethodGet, "/v1/stats", ""},
		{http.MethodGet, "/healthz", ""},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, err %v", tc.method, tc.path, resp.StatusCode, err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		if got, want := string(body), compact.String()+"\n"; got != want {
			t.Fatalf("%s %s answered\n%swant the compact form\n%s", tc.method, tc.path, got, want)
		}
		if tc.path == "/v1/query?debug=1" && !strings.Contains(string(body), `"matches":[{"id":3,"original_id":"b1","source":1,`) {
			t.Fatalf("query answer does not name its match: %s", body)
		}
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t)

	if resp, err := http.Get(srv.URL + "/v1/query"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query status = %d", resp.StatusCode)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/upsert?source=9", `{"id": "z"}`},
		{"/v1/query", `{"id": oops`},
		{"/v1/query", "{\"id\": \"p1\"}\n{\"id\": \"p2\"}"},
		{"/v1/query", ""},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s with %q: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
}
