package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"sparker"
	"sparker/internal/datagen"
	"sparker/serve"
)

// TestRestartFromSnapshotAnswersIdentically is the sparker-serve restart
// scenario end to end: a ~10k-profile index is built once, snapshotted
// through POST /v1/snapshot/save, torn down, and a second process restores
// it from disk without re-indexing (the restored flag in /v1/stats proves
// the path taken). The restarted process must answer a fixed query set
// byte-for-byte identically to the pre-restart process.
func TestRestartFromSnapshotAnswersIdentically(t *testing.T) {
	gen := datagen.AbtBuy()
	gen.CoreEntities = 4600
	gen.AOnly = 400
	gen.BOnly = 400
	gen.Seed = 77
	c := datagen.Generate(gen).Collection
	if c.Size() < 10000 {
		t.Fatalf("benchmark collection has %d profiles, want >= 10000", c.Size())
	}

	cfg := sparker.DefaultIndexConfig()
	idx, err := sparker.NewIndex(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "serve.snap")

	// --- process one: serve, answer the fixed query set, snapshot, die.
	srv1 := httptest.NewServer(serve.NewHandlerOptions(idx, serve.Options{SnapshotPath: snapPath}))
	queries := fixedQuerySet(t, c)
	before := runQuerySet(t, srv1.URL, queries)

	saveResp, err := http.Post(srv1.URL+"/v1/snapshot/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var saved struct {
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
	}
	if err := json.NewDecoder(saveResp.Body).Decode(&saved); err != nil {
		t.Fatal(err)
	}
	saveResp.Body.Close()
	if saveResp.StatusCode != http.StatusOK || saved.Bytes == 0 || saved.Path != snapPath {
		t.Fatalf("snapshot save: status %d, %+v", saveResp.StatusCode, saved)
	}
	stats1 := getStats(t, srv1.URL)
	srv1.Close()

	// --- process two: restore from disk; no collection, no re-indexing.
	idx2, err := sparker.LoadIndex(snapPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(serve.NewHandlerOptions(idx2, serve.Options{SnapshotPath: snapPath}))
	defer srv2.Close()

	stats2 := getStats(t, srv2.URL)
	if stats2.Persist == nil || !stats2.Persist.Restored {
		t.Fatalf("restarted process did not restore from snapshot: %+v", stats2.Persist)
	}
	if stats2.Profiles != stats1.Profiles || stats2.Blocks != stats1.Blocks ||
		stats2.Assignments != stats1.Assignments || stats2.Upserts != stats1.Upserts ||
		stats2.Queries != stats1.Queries {
		t.Fatalf("restored stats diverged: %+v vs %+v", stats2, stats1)
	}

	after := runQuerySet(t, srv2.URL, queries)
	for i := range queries {
		if !bytes.Equal(before[i], after[i]) {
			t.Fatalf("query %d answered differently after restart:\npre:  %s\npost: %s",
				i, before[i], after[i])
		}
	}
}

// TestSnapshotSaveEndpointDisabled: without a configured path the
// endpoint refuses rather than writing somewhere surprising.
func TestSnapshotSaveEndpointDisabled(t *testing.T) {
	srv := newTestServer(t) // plain NewHandler, no snapshot path
	resp, err := http.Post(srv.URL+"/v1/snapshot/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestReadOnlyReplicaOverHTTP: upserts against a read-only replica fail
// with 403 and leave the index untouched; queries keep serving.
func TestReadOnlyReplicaOverHTTP(t *testing.T) {
	mk := func(id, key, value string) sparker.Profile {
		p := sparker.Profile{OriginalID: id}
		p.Add(key, value)
		return p
	}
	idx, err := sparker.NewIndex(sparker.NewCleanClean(
		[]sparker.Profile{mk("a1", "name", "acme turboblend blender")},
		[]sparker.Profile{mk("b1", "title", "turboblend blender by acme")},
	), sparker.DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	idx.SetReadOnly(true)
	srv := httptest.NewServer(serve.NewHandler(idx))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/upsert", "application/json",
		bytes.NewBufferString(`{"id": "a9", "name": "new thing"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only upsert status = %d, want 403", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/bulk", "application/json",
		bytes.NewBufferString(`{"id": "a9", "name": "new thing"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only bulk status = %d, want 403", resp.StatusCode)
	}

	q, err := http.Post(srv.URL+"/v1/query", "application/json",
		bytes.NewBufferString(`{"id": "probe", "name": "acme turboblend"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Body.Close()
	if q.StatusCode != http.StatusOK {
		t.Fatalf("read-only query status = %d", q.StatusCode)
	}
	stats := getStats(t, srv.URL)
	if !stats.ReadOnly {
		t.Fatal("/v1/stats does not report read-only mode")
	}
	if stats.Profiles != 2 || stats.Upserts != 0 {
		t.Fatalf("read-only index mutated: %+v", stats)
	}

	// Even with a snapshot path configured, a read-only replica must not
	// write the shared snapshot file: the handler enforces the invariant
	// for embedders, not just sparker-serve's flag wiring.
	snapPath := filepath.Join(t.TempDir(), "replica.snap")
	srvSnap := httptest.NewServer(serve.NewHandlerOptions(idx, serve.Options{SnapshotPath: snapPath}))
	defer srvSnap.Close()
	resp, err = http.Post(srvSnap.URL+"/v1/snapshot/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only snapshot save status = %d, want 403", resp.StatusCode)
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatalf("read-only replica wrote the snapshot file: %v", err)
	}
}

// fixedQuerySet builds deterministic wire-format query bodies from a
// spread of indexed profiles plus a few ad-hoc probes.
func fixedQuerySet(t *testing.T, c *sparker.Collection) []string {
	t.Helper()
	var out []string
	for i := 0; i < 40; i++ {
		p := c.Get(sparker.ProfileID((i * 997) % c.Size()))
		body := map[string]string{"id": fmt.Sprintf("probe-%d", i)}
		for _, kv := range p.Attributes {
			if _, dup := body[kv.Key]; !dup {
				body[kv.Key] = kv.Value
			}
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(raw))
	}
	out = append(out,
		`{"id": "adhoc-1", "name": "turbo blender deluxe edition"}`,
		`{"id": "adhoc-2", "name": "zzz token with no posting"}`,
	)
	return out
}

// runQuerySet posts every query body and returns the raw responses.
func runQuerySet(t *testing.T, baseURL string, queries []string) [][]byte {
	t.Helper()
	out := make([][]byte, 0, len(queries))
	for i, q := range queries {
		resp, err := http.Post(baseURL+"/v1/query", "application/json", bytes.NewBufferString(q))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, raw)
		}
		out = append(out, raw)
	}
	return out
}

// getStats decodes GET /v1/stats.
func getStats(t *testing.T, baseURL string) sparker.IndexSnapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap sparker.IndexSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}
