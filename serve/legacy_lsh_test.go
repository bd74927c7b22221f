package serve_test

// The online LSH probe is gone. What a client or an operator of an older
// -lsh node could still send or scrape must behave like any other node:
// the retired query knobs are ignored, and a node restored from a legacy
// LSH image (see internal/index/persist_legacy_test.go) reports nothing
// of the section it discarded.

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

// legacyLSHServer serves the index restored from the dirty legacy LSH
// image the index package keeps as a fixture.
func legacyLSHServer(t *testing.T) *httptest.Server {
	t.Helper()
	idx, err := sparker.LoadIndex("../internal/index/testdata/lsh-dirty.snap", sparker.DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHandler(idx))
	t.Cleanup(srv.Close)
	return srv
}

func postBytes(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestQueryProbeKnobOverHTTP: ?probe= and ?probe_floor= are unknown
// parameters now, ignored like any other: every value — the policies an
// -lsh node accepted and the garbage it refused with 400 — answers 200
// with exactly the bytes of the plain query.
func TestQueryProbeKnobOverHTTP(t *testing.T) {
	srv := legacyLSHServer(t)
	const body = `{"id": "q", "name": "tok1 tok3 shared1", "desc": "word2 common"}`
	code, plain := postBytes(t, srv.URL+"/v1/query", body)
	if code != http.StatusOK {
		t.Fatalf("plain query: %d %s", code, plain)
	}
	var out struct {
		Candidates []json.RawMessage `json:"candidates"`
	}
	if err := json.Unmarshal(plain, &out); err != nil || len(out.Candidates) == 0 {
		t.Fatalf("plain query found no candidates (err %v): %s", err, plain)
	}
	for _, q := range []string{"?probe=off", "?probe=fallback", "?probe=union&probe_floor=3", "?probe=sideways", "?probe_floor=-1"} {
		code, got := postBytes(t, srv.URL+"/v1/query"+q, body)
		if code != http.StatusOK || !bytes.Equal(got, plain) {
			t.Fatalf("%s: %d %s, want 200 and the plain answer %s", q, code, got, plain)
		}
	}
}

// TestStatsReportLSHCounters: a node restored from a legacy LSH image
// reports its profiles and header counters, and no lsh section in
// /v1/stats, no sparker_lsh_* family and no lsh_probe stage in /metrics.
func TestStatsReportLSHCounters(t *testing.T) {
	srv := legacyLSHServer(t)
	if code, b := postBytes(t, srv.URL+"/v1/query", `{"id": "q", "name": "tok1"}`); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, b)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats["profiles"] != 8.0 || stats["queries"] != 9.0 || stats["seq"] != 9.0 {
		t.Fatalf("profiles/queries/seq = %v/%v/%v, want 8/9/9", stats["profiles"], stats["queries"], stats["seq"])
	}
	if lsh, ok := stats["lsh"]; ok {
		t.Fatalf("stats report an lsh section: %v", lsh)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(exposition), `stage="weigh"`) {
		t.Fatalf("no per-stage series in /metrics:\n%s", exposition)
	}
	for _, gone := range []string{"sparker_lsh_", `stage="lsh_probe"`} {
		if strings.Contains(string(exposition), gone) {
			t.Errorf("/metrics still carries %s", gone)
		}
	}
}
