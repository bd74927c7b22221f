package serve_test

// The online LSH probe is gone. What a client of an older -lsh node
// could still send must behave like any other request: the retired query
// knobs are ignored.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sparker"
	"sparker/serve"
)

// freshServer serves an index built from a handful of dirty profiles
// that share tokens with the test query.
func freshServer(t *testing.T) *httptest.Server {
	t.Helper()
	var ps []sparker.Profile
	for i, v := range []string{"tok1 tok3 shared1", "tok3 shared1 word2", "tok1 common", "word2 common shared0", "tok7 tok9"} {
		p := sparker.Profile{OriginalID: fmt.Sprintf("p%d", i)}
		p.Add("name", v)
		ps = append(ps, p)
	}
	idx, err := sparker.NewIndex(sparker.NewDirty(ps), sparker.DefaultIndexConfig())
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
	srv := freshServer(t)
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
