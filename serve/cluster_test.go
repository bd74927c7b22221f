package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"sparker/internal/index"
	"sparker/internal/metablocking"
)

// equivCfg is the configuration under which sharded resolution is
// exactly equivalent to single-node resolution: meta-blocking off (a
// shard's local CNP top-k or WNP mean is not the global one), no purge/filter
// thresholds that depend on shard-local collection sizes, and the CBS
// scheme (shared-key counts are shard-independent; ECBS folds in
// collection-wide block statistics).
func equivCfg() index.Config {
	cfg := index.DefaultConfig()
	cfg.MetaBlocking = false
	cfg.FilterRatio = 1
	cfg.PurgeFactor = 1
	cfg.Scheme = metablocking.CBS
	cfg.MatchThreshold = 0.1
	return cfg
}

// clusterProfiles is the shared corpus: distinct token overlaps with
// the query give every candidate a distinct weight and score, so the
// ranking needs no tie-breaking and single-node order (which breaks
// ties on shard-local IDs) is comparable with merged order.
var clusterProfiles = []string{
	`{"id": "p1", "name": "alpha beta gamma delta zulu"}`,
	`{"id": "p2", "name": "alpha beta gamma yankee xray"}`,
	`{"id": "p3", "name": "alpha beta victor whiskey"}`,
	`{"id": "p4", "name": "alpha uniform tango"}`,
	`{"id": "p5", "name": "sierra romeo quebec"}`,
}

const clusterQuery = `{"id": "q", "name": "alpha beta gamma delta"}`

// startShards boots n single-node shard servers under the equivalence
// config and a coordinator over them, returning the coordinator's test
// server, the shard servers, and the cleanups.
func startShards(t *testing.T, n int, copts ClusterOptions) (*httptest.Server, []*httptest.Server, *Cluster) {
	t.Helper()
	var urls []string
	var shardSrvs []*httptest.Server
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(NewHandler(index.New(false, equivCfg())))
		t.Cleanup(srv.Close)
		shardSrvs = append(shardSrvs, srv)
		urls = append(urls, srv.URL)
	}
	cluster, err := NewCluster(urls, copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	coord := httptest.NewServer(cluster)
	t.Cleanup(coord.Close)
	return coord, shardSrvs, cluster
}

func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// clusterQueryWire is the coordinator response shape the tests decode.
type clusterQueryWire struct {
	Candidates []index.PartialCandidate `json:"candidates"`
	Matches    []index.PartialMatch     `json:"matches"`
	Truncated  bool                     `json:"truncated"`
	Cluster    struct {
		Shards    int      `json:"shards"`
		Responded int      `json:"responded"`
		Failed    []string `json:"failed"`
		Degraded  bool     `json:"degraded"`
	} `json:"cluster"`
}

// singleNodeAnswer resolves the query against one index holding the
// whole corpus and returns its matches and candidates in the global
// (original_id, source) identity the cluster wire uses.
func singleNodeAnswer(t *testing.T) ([]index.PartialMatch, []index.PartialCandidate) {
	t.Helper()
	srv := httptest.NewServer(NewHandler(index.New(false, equivCfg())))
	defer srv.Close()
	for _, p := range clusterProfiles {
		if code, body := postBody(t, srv.URL+"/v1/upsert", p); code != http.StatusOK {
			t.Fatalf("single-node upsert: %d %s", code, body)
		}
	}
	code, body := postBody(t, srv.URL+"/v1/query", clusterQuery)
	if code != http.StatusOK {
		t.Fatalf("single-node query: %d %s", code, body)
	}
	var resp struct {
		Candidates []index.PartialCandidate `json:"candidates"`
		Matches    []index.PartialMatch     `json:"matches"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Matches, resp.Candidates
}

// TestClusterMatchesSingleNode pins the tentpole equivalence: under
// the equivalence config, a 1-shard and a 3-shard cluster return
// byte-identical ranked matches (and candidates) to a single node
// holding the whole corpus.
func TestClusterMatchesSingleNode(t *testing.T) {
	wantMatches, wantCands := singleNodeAnswer(t)
	if len(wantMatches) == 0 || len(wantCands) == 0 {
		t.Fatalf("corpus yields no results to compare (matches %d, candidates %d)", len(wantMatches), len(wantCands))
	}

	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-shard", shards), func(t *testing.T) {
			coord, _, _ := startShards(t, shards, ClusterOptions{})
			for _, p := range clusterProfiles {
				if code, body := postBody(t, coord.URL+"/v1/upsert", p); code != http.StatusOK {
					t.Fatalf("cluster upsert: %d %s", code, body)
				}
			}
			code, body := postBody(t, coord.URL+"/v1/query", clusterQuery)
			if code != http.StatusOK {
				t.Fatalf("cluster query: %d %s", code, body)
			}
			var got clusterQueryWire
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if got.Cluster.Shards != shards || got.Cluster.Responded != shards || got.Cluster.Degraded {
				t.Fatalf("healthy cluster section = %+v", got.Cluster)
			}
			assertSameJSON(t, "matches", got.Matches, wantMatches)
			assertSameJSON(t, "candidates", got.Candidates, wantCands)
		})
	}
}

// assertSameJSON compares two values by their canonical JSON bytes —
// the "byte-identical on the wire" form of equality.
func assertSameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s differ:\n got %s\nwant %s", what, g, w)
	}
}

// TestClusterDegradesOnShardDeath pins the failure policy: killing one
// shard of three turns its results missing and the response degraded —
// but still a 200 with the surviving shards' merged answer, never a
// 5xx. Killing every shard is the one case that answers 503.
func TestClusterDegradesOnShardDeath(t *testing.T) {
	wantMatches, _ := singleNodeAnswer(t)

	coord, shardSrvs, _ := startShards(t, 3, ClusterOptions{ShardRetries: -1})
	for _, p := range clusterProfiles {
		if code, body := postBody(t, coord.URL+"/v1/upsert", p); code != http.StatusOK {
			t.Fatalf("cluster upsert: %d %s", code, body)
		}
	}

	const dead = 1
	shardSrvs[dead].Close()

	code, body := postBody(t, coord.URL+"/v1/query", clusterQuery)
	if code != http.StatusOK {
		t.Fatalf("degraded query status = %d (want 200, never 5xx): %s", code, body)
	}
	var got clusterQueryWire
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Cluster.Degraded || got.Cluster.Responded != 2 || len(got.Cluster.Failed) != 1 {
		t.Fatalf("cluster section = %+v, want degraded with 2/3 responded", got.Cluster)
	}
	if got.Cluster.Failed[0] != shardSrvs[dead].URL {
		t.Errorf("failed = %v, want [%s]", got.Cluster.Failed, shardSrvs[dead].URL)
	}

	// The surviving answer is exactly the single-node answer minus the
	// profiles homed on the dead shard.
	var surviving []index.PartialMatch
	for _, m := range wantMatches {
		if ShardFor(m.OriginalID, 3) != dead {
			surviving = append(surviving, m)
		}
	}
	if len(surviving) == len(wantMatches) {
		t.Logf("note: no profile homed on shard %d; degraded subset equals full set", dead)
	}
	assertSameJSON(t, "surviving matches", got.Matches, surviving)

	// All shards dead: nothing left to merge — the one 5xx case.
	for i, srv := range shardSrvs {
		if i != dead {
			srv.Close()
		}
	}
	code, body = postBody(t, coord.URL+"/v1/query", clusterQuery)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("all-dead query status = %d, want 503: %s", code, body)
	}
	var env APIError
	if err := json.Unmarshal(body, &env); err != nil || env.Err.Code != ErrCodeUnavailable {
		t.Fatalf("all-dead body = %s (err %v), want %q envelope", body, err, ErrCodeUnavailable)
	}
}

// TestClusterUpsertRouting pins the hash routing: every write lands on
// ShardFor's shard, and bulk scatters records to their homes.
func TestClusterUpsertRouting(t *testing.T) {
	coord, shardSrvs, _ := startShards(t, 3, ClusterOptions{})

	shardProfiles := func() []int {
		counts := make([]int, len(shardSrvs))
		for i, srv := range shardSrvs {
			resp, err := http.Get(srv.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				Profiles int `json:"profiles"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			counts[i] = st.Profiles
		}
		return counts
	}

	code, body := postBody(t, coord.URL+"/v1/upsert", `{"id": "route-me", "name": "alpha beta"}`)
	if code != http.StatusOK {
		t.Fatalf("upsert: %d %s", code, body)
	}
	var ack struct {
		Created bool `json:"created"`
		Shard   int  `json:"shard"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	want := ShardFor("route-me", 3)
	if !ack.Created || ack.Shard != want {
		t.Fatalf("ack = %+v, want created on shard %d", ack, want)
	}
	counts := shardProfiles()
	for i, n := range counts {
		expect := 0
		if i == want {
			expect = 1
		}
		if n != expect {
			t.Errorf("shard %d holds %d profiles, want %d", i, n, expect)
		}
	}

	// Bulk scatters by the same hash.
	var bulk strings.Builder
	wantCounts := make([]int, 3)
	wantCounts[want]++ // route-me, already resident
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("bulk-%d", i)
		fmt.Fprintf(&bulk, "{\"id\": %q, \"name\": \"tok%d alpha\"}\n", id, i)
		wantCounts[ShardFor(id, 3)]++
	}
	code, body = postBody(t, coord.URL+"/v1/bulk", bulk.String())
	if code != http.StatusOK {
		t.Fatalf("bulk: %d %s", code, body)
	}
	var bulkAck struct {
		Upserted int `json:"upserted"`
	}
	if err := json.Unmarshal(body, &bulkAck); err != nil {
		t.Fatal(err)
	}
	if bulkAck.Upserted != 12 {
		t.Errorf("bulk upserted = %d, want 12", bulkAck.Upserted)
	}
	counts = shardProfiles()
	for i, n := range counts {
		if n != wantCounts[i] {
			t.Errorf("after bulk, shard %d holds %d profiles, want %d", i, n, wantCounts[i])
		}
	}

	// A record without an explicit id cannot be routed consistently.
	code, body = postBody(t, coord.URL+"/v1/upsert", `{"name": "anonymous"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("id-less upsert = %d %s, want 400", code, body)
	}
	var env APIError
	if err := json.Unmarshal(body, &env); err != nil || env.Err.Code != ErrCodeBadRequest {
		t.Fatalf("id-less upsert body = %s, want %q envelope", body, ErrCodeBadRequest)
	}
}

// TestNumericIDsKeepTheirText: the number and the string spelling of one
// id are one profile — they route to one shard and the second write
// overwrites the first there — and ids that differ only past 2^53, where
// a float64 cannot tell them apart, are two.
func TestNumericIDsKeepTheirText(t *testing.T) {
	coord, _, _ := startShards(t, 3, ClusterOptions{})
	upsert := func(record string) (created bool, shard int) {
		t.Helper()
		code, body := postBody(t, coord.URL+"/v1/upsert", record)
		if code != http.StatusOK {
			t.Fatalf("upsert %s: %d %s", record, code, body)
		}
		var ack clusterUpsertResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			t.Fatal(err)
		}
		return ack.Created, ack.Shard
	}
	created, shard := upsert(`{"id": 1234567, "name": "alpha beta"}`)
	if want := ShardFor("1234567", 3); !created || shard != want {
		t.Fatalf("numeric id: created=%v on shard %d, want a new profile on shard %d", created, shard, want)
	}
	if created, again := upsert(`{"id": "1234567", "name": "alpha gamma"}`); created || again != shard {
		t.Fatalf("string spelling: created=%v on shard %d, want an overwrite on shard %d", created, again, shard)
	}
	if created, again := upsert(`{"id": 1234567, "name": "alpha delta"}`); created || again != shard {
		t.Fatalf("numeric spelling again: created=%v on shard %d, want an overwrite on shard %d", created, again, shard)
	}
	for _, id := range []string{"9007199254740992", "9007199254740993"} {
		if created, shard := upsert(`{"id": ` + id + `, "name": "big"}`); !created || shard != ShardFor(id, 3) {
			t.Fatalf("id %s: created=%v on shard %d, want a new profile on shard %d", id, created, shard, ShardFor(id, 3))
		}
	}

	ids, raws, err := decodeRecords([]byte(" {\"id\": 12, \"n\": 1}\n\n{\"id\":\"12\"} "))
	if err != nil || len(ids) != 2 || ids[0] != "12" || ids[1] != "12" ||
		string(raws[0]) != `{"id": 12, "n": 1}` || string(raws[1]) != `{"id":"12"}` {
		t.Fatalf("decodeRecords: ids %q raws %q err %v", ids, raws, err)
	}
}

// TestClusterForwardsKnobsVerbatim pins the knob forwarding contract:
// what the coordinator sends a shard is the canonical encoding of the
// client's decoded knobs — with exactly one deliberate change, the
// per-shard budget split. The stage timings ride in every shard frame,
// so debug is never forwarded.
func TestClusterForwardsKnobsVerbatim(t *testing.T) {
	captured := make(chan string, 4)
	empty := index.AppendPartial(nil, &index.Resolution{Query: &index.QueryResult{}}, 0)
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/query") {
			captured <- r.URL.RawQuery
			w.Header().Set("Content-Type", partialContentType)
			w.Write(empty)
			return
		}
		fmt.Fprint(w, `{"status": "ok"}`)
	}))
	defer fake.Close()
	cluster, err := NewCluster([]string{fake.URL}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	coord := httptest.NewServer(cluster)
	defer coord.Close()

	// The retired probe knobs are unknown parameters now: dropped, not
	// forwarded.
	code, body := postBody(t,
		coord.URL+"/v1/query?probe_floor=2&max_comparisons=64&source=1&budget_ms=100&probe=fallback&debug=1",
		clusterQuery)
	if code != http.StatusOK {
		t.Fatalf("query via fake shard: %d %s", code, body)
	}
	got := <-captured
	want := QueryParams{
		BudgetMS:          100 * shardBudgetFraction,
		BudgetSet:         true,
		MaxComparisons:    64,
		MaxComparisonsSet: true,
		Source:            1,
		SourceSet:         true,
	}.Encode()
	if got != want {
		t.Errorf("forwarded knobs:\n got %q\nwant %q", got, want)
	}

	// An explicit ?budget_ms=0 (unlimited) forwards as 0, not as a
	// scaled default.
	code, _ = postBody(t, coord.URL+"/v1/query?budget_ms=0", clusterQuery)
	if code != http.StatusOK {
		t.Fatalf("budget_ms=0 query: %d", code)
	}
	got = <-captured
	want = QueryParams{BudgetSet: true}.Encode()
	if got != want {
		t.Errorf("budget_ms=0 forwarded as %q, want %q", got, want)
	}
}

// TestClusterDefaultBudgetBeforeLadder pins the budget precedence under
// coordinator pressure: the coordinator's default budget is applied
// before the degradation ladder, exactly as on a single node, so a
// degraded query forwards at most the default (20 ms, 18 ms after the
// per-shard split) — not the ladder's 200 ms cap imposed on a request
// that looked budget-less.
func TestClusterDefaultBudgetBeforeLadder(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	shard := NewHandler(overloadIndex(t, blockFirstComparison(entered, release)))
	forwarded := make(chan string, 2)
	shardSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			forwarded <- r.URL.RawQuery
		}
		shard.ServeHTTP(w, r)
	}))
	defer shardSrv.Close()
	cluster, err := NewCluster([]string{shardSrv.URL}, ClusterOptions{DefaultBudget: 20 * time.Millisecond, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	coord := httptest.NewServer(cluster)
	defer coord.Close()

	// The first query parks inside the shard's scorer, holding one of the
	// coordinator's two slots: the next arrival is admitted at level 1.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp, err := coord.Client().Post(coord.URL+"/v1/query", "application/json", strings.NewReader(queryBody))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}()
	<-entered
	<-forwarded

	resp := postQuery(t, coord.Client(), coord.URL+"/v1/query")
	var got struct {
		Degraded int `json:"degraded"`
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || got.Degraded < 1 {
		t.Fatalf("second query = %d degraded %d (err %v), want 200 at level >= 1", resp.StatusCode, got.Degraded, err)
	}
	q, err := url.ParseQuery(<-forwarded)
	if err != nil {
		t.Fatal(err)
	}
	params, err := ParseQueryParams(q)
	if err != nil {
		t.Fatal(err)
	}
	if !params.BudgetSet || params.BudgetMS <= 0 || params.BudgetMS > 18 {
		t.Errorf("degraded query forwarded budget_ms=%v (set %v), want in (0, 18]: the 20ms default, split", params.BudgetMS, params.BudgetSet)
	}
	close(release)
	<-firstDone
}

// TestClusterReadyz pins the coordinator's readiness semantics: ready
// while any shard is, degraded reported, draining only when none are.
func TestClusterReadyz(t *testing.T) {
	coord, shardSrvs, cluster := startShards(t, 2, ClusterOptions{
		ProbeInterval: 20 * time.Millisecond,
		ShardRetries:  -1,
	})

	resp, err := http.Get(coord.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /readyz = %d, want 200", resp.StatusCode)
	}

	shardSrvs[0].Close()
	waitFor(t, func() bool { return cluster.healthyCount() == 1 })
	var ready struct {
		Status   string `json:"status"`
		Healthy  int    `json:"healthy"`
		Degraded bool   `json:"degraded"`
	}
	resp, err = http.Get(coord.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !ready.Degraded || ready.Healthy != 1 {
		t.Fatalf("one-dead /readyz = %d %+v (err %v), want 200 degraded 1/2", resp.StatusCode, ready, err)
	}

	shardSrvs[1].Close()
	waitFor(t, func() bool { return cluster.healthyCount() == 0 })
	resp, err = http.Get(coord.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-dead /readyz = %d, want 503", resp.StatusCode)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestClusterMetrics pins the sparker_cluster_* families on /metrics.
func TestClusterMetrics(t *testing.T) {
	coord, _, _ := startShards(t, 2, ClusterOptions{})
	for _, p := range clusterProfiles {
		if code, _ := postBody(t, coord.URL+"/v1/upsert", p); code != http.StatusOK {
			t.Fatalf("upsert failed: %d", code)
		}
	}
	if code, body := postBody(t, coord.URL+"/v1/query", clusterQuery); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	resp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		"sparker_cluster_shards 2",
		"sparker_cluster_shards_healthy 2",
		"sparker_cluster_fanouts_total 1",
		"sparker_cluster_degraded_fanouts_total 0",
		"sparker_cluster_shard_healthy{shard=",
		"sparker_cluster_shard_requests_total{shard=",
		`sparker_cluster_stage_seconds_bucket{stage="tokenize"`,
		"sparker_cluster_merge_seconds_count 1",
		`sparker_http_requests_total{route="/v1/query"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in coordinator /metrics", want)
		}
	}
}
