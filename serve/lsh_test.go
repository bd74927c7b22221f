package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sparker"
	"sparker/serve"
)

// newLSHTestServer serves a dirty index in token blocking's blind spot:
// every filler profile draws from a tiny common vocabulary, so the
// common-token postings exceed the purge bound, and one target profile
// shares only those common tokens with the probe query below.
func newLSHTestServer(t *testing.T, policy sparker.IndexProbeOptions) (*httptest.Server, *sparker.Index) {
	t.Helper()
	cfg := sparker.DefaultIndexConfig()
	cfg.LSH.Policy = policy.Policy
	cfg.MaxBlockFraction = 0.2
	idx := sparker.NewEmptyIndex(false, cfg)
	common := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for i := 0; i < 120; i++ {
		p := sparker.Profile{OriginalID: fmt.Sprintf("f%d", i)}
		toks := make([]string, 0, 5)
		for j := 0; j < 4; j++ {
			toks = append(toks, common[(i+j*2)%len(common)])
		}
		toks = append(toks, fmt.Sprintf("unique%d", i))
		p.Add("name", strings.Join(toks, " "))
		if _, _, err := idx.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	target := sparker.Profile{OriginalID: "target"}
	target.Add("name", strings.Join(common[:6], " ")+" targetonly")
	if _, _, err := idx.Upsert(target); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHandler(idx))
	t.Cleanup(srv.Close)
	return srv, idx
}

// lshProbeBody is the query whose tokens are all purged as too common.
const lshProbeBody = `{"id": "probe", "name": "alpha beta gamma delta epsilon zeta"}`

func postQuery(t *testing.T, url, body string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

// TestQueryProbeKnobOverHTTP drives the per-request probe override: the
// default policy (off) misses the purged-common-token match, ?probe=
// fallback recovers it, and the response carries the probe accounting.
func TestQueryProbeKnobOverHTTP(t *testing.T) {
	// Built with fallback so signatures are maintained; requests then
	// override the policy per query.
	srv2, _ := newLSHTestServer(t, sparker.IndexProbeOptions{Policy: sparker.ProbeFallback})

	off, code := postQuery(t, srv2.URL+"/v1/query?probe=off", lshProbeBody)
	if code != http.StatusOK {
		t.Fatalf("probe=off status %d: %v", code, off)
	}
	if n := len(off["candidates"].([]any)); n != 0 {
		t.Fatalf("probe=off found %d candidates; the scenario should purge every posting", n)
	}
	if off["lsh_probed"] == true {
		t.Fatal("probe=off ran a probe")
	}

	fb, code := postQuery(t, srv2.URL+"/v1/query?probe=fallback&probe_floor=2", lshProbeBody)
	if code != http.StatusOK {
		t.Fatalf("probe=fallback status %d: %v", code, fb)
	}
	if fb["lsh_probed"] != true {
		t.Fatalf("fallback did not probe: %v", fb)
	}
	cands := fb["candidates"].([]any)
	if len(cands) == 0 {
		t.Fatal("fallback found no candidates")
	}
	foundTarget := false
	for _, c := range cands {
		cm := c.(map[string]any)
		if cm["original_id"] == "target" {
			foundTarget = true
			if cm["shared_buckets"].(float64) == 0 {
				t.Fatalf("target candidate without shared buckets: %v", cm)
			}
		}
	}
	if !foundTarget {
		t.Fatalf("fallback did not recover the target: %v", cands)
	}
	if fb["buckets_probed"].(float64) == 0 {
		t.Fatalf("no buckets probed: %v", fb)
	}
}

// TestProbeKnobRejectedWithoutLSH pins the 400 on explicit probes
// against an index that maintains no signatures.
func TestProbeKnobRejectedWithoutLSH(t *testing.T) {
	srv, _ := newLSHTestServer(t, sparker.IndexProbeOptions{Policy: sparker.ProbeOff})
	for _, q := range []string{"?probe=fallback", "?probe=union", "?probe_floor=3"} {
		if _, code := postQuery(t, srv.URL+"/v1/query"+q, lshProbeBody); code != http.StatusBadRequest {
			t.Fatalf("%s on a non-LSH index: status %d, want 400", q, code)
		}
	}
	// probe=off is always acceptable, as are unknown-free plain queries.
	if _, code := postQuery(t, srv.URL+"/v1/query?probe=off", lshProbeBody); code != http.StatusOK {
		t.Fatalf("probe=off rejected: %d", code)
	}
	if _, code := postQuery(t, srv.URL+"/v1/query?probe=sideways", lshProbeBody); code != http.StatusBadRequest {
		t.Fatal("unknown probe policy accepted")
	}
	if _, code := postQuery(t, srv.URL+"/v1/query?probe_floor=-1", lshProbeBody); code != http.StatusBadRequest {
		t.Fatal("negative probe_floor accepted")
	}
}

// TestStatsReportLSHCounters checks /v1/stats surfaces the probe counters.
func TestStatsReportLSHCounters(t *testing.T) {
	srv, _ := newLSHTestServer(t, sparker.IndexProbeOptions{Policy: sparker.ProbeFallback})
	if _, code := postQuery(t, srv.URL+"/v1/query", lshProbeBody); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	lsh, ok := stats["lsh"].(map[string]any)
	if !ok {
		t.Fatalf("no lsh section in stats: %v", stats)
	}
	if lsh["policy"] != "fallback" {
		t.Fatalf("policy = %v", lsh["policy"])
	}
	if lsh["probes"].(float64) < 1 {
		t.Fatalf("probe counter did not move: %v", lsh)
	}
	if lsh["buckets"].(float64) == 0 {
		t.Fatalf("no live buckets reported: %v", lsh)
	}
}
