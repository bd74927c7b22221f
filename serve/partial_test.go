package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sparker/internal/index"
)

// postAccept posts body to url with the given Accept header (none when
// empty) and returns the response's Content-Type and body.
func postAccept(t *testing.T, url, accept, body string) (string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s (Accept %q): %d %s", url, accept, resp.StatusCode, raw)
	}
	return resp.Header.Get("Content-Type"), raw
}

// loadedShard is one node holding the whole cluster corpus.
func loadedShard(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(index.New(false, equivCfg())))
	t.Cleanup(srv.Close)
	for _, p := range clusterProfiles {
		if code, body := postBody(t, srv.URL+"/v1/upsert", p); code != http.StatusOK {
			t.Fatalf("upsert: %d %s", code, body)
		}
	}
	return srv
}

// TestNodeAnswersPartialOnExactAccept pins the node side of the shard
// hop: only an Accept of exactly the partial type gets the frame, and
// it carries the JSON answer's ranking; every other client gets the
// same JSON bytes as a client that sends no Accept at all.
func TestNodeAnswersPartialOnExactAccept(t *testing.T) {
	srv := loadedShard(t)
	url := srv.URL + "/v1/query"
	_, plain := postAccept(t, url, "", clusterQuery)
	for _, accept := range []string{"application/json", "*/*", partialContentType + ", application/json", "application/x-sparker-partial;v=1"} {
		ct, body := postAccept(t, url, accept, clusterQuery)
		if ct != "application/json" || !bytes.Equal(body, plain) {
			t.Errorf("Accept %q: %s %s, want the plain JSON %s", accept, ct, body, plain)
		}
	}

	ct, frame := postAccept(t, url, partialContentType, clusterQuery)
	if ct != partialContentType {
		t.Fatalf("partial Accept answered %q", ct)
	}
	a, err := index.DecodePartial(frame)
	if err != nil {
		t.Fatal(err)
	}
	var want index.Partial
	if err := json.Unmarshal(plain, &want); err != nil {
		t.Fatal(err)
	}
	if len(a.Candidates) == 0 || len(a.Matches) == 0 {
		t.Fatalf("frame carries %d candidates, %d matches", len(a.Candidates), len(a.Matches))
	}
	assertSameJSON(t, "partial", a.Partial, want)
	var total int64
	for _, n := range a.StageNanos {
		total += n
	}
	if total <= 0 {
		t.Errorf("frame stage nanos %v, want a positive total", a.StageNanos)
	}
}

// TestClusterFailsMalformedShardAnswers pins the coordinator's decode
// of untrusted shard bytes: a shard that answers JSON, a cut frame,
// trailing bytes or a count its frame cannot hold fails alone, named in
// its /v1/stats last_error, and the answer degrades to the other two.
func TestClusterFailsMalformedShardAnswers(t *testing.T) {
	good := loadedShard(t)
	_, valid := postAccept(t, good.URL+"/v1/query", partialContentType, clusterQuery)
	empty := index.AppendPartial(nil, &index.Resolution{Query: &index.QueryResult{}}, 0)
	hugeCount := binary.AppendUvarint(append([]byte(nil), empty[:len(empty)-2]...), 1<<40)

	cases := []struct {
		name, contentType string
		body              []byte
		wantErr           string
	}{
		{"JSON", "application/json", []byte(`{}`), `answered "application/json"`},
		{"cut frame", partialContentType, valid[:len(valid)-5], "frame ends early"},
		{"trailing bytes", partialContentType, append(append([]byte(nil), valid...), 7), "trailing bytes"},
		{"count beyond frame", partialContentType, hugeCount, "1099511627776 items in"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/query" {
					w.Header().Set("Content-Type", tc.contentType)
					w.Write(tc.body)
					return
				}
				fmt.Fprint(w, `{"status": "ok"}`)
			}))
			defer bad.Close()
			urls := []string{loadedShard(t).URL, bad.URL, loadedShard(t).URL}
			cluster, err := NewCluster(urls, ClusterOptions{ShardRetries: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			coord := httptest.NewServer(cluster)
			defer coord.Close()

			code, body := postBody(t, coord.URL+"/v1/query", clusterQuery)
			var got clusterQueryWire
			if err := json.Unmarshal(body, &got); err != nil || code != http.StatusOK {
				t.Fatalf("query = %d %s (err %v), want a degraded 200", code, body, err)
			}
			if !got.Cluster.Degraded || got.Cluster.Responded != 2 || len(got.Cluster.Failed) != 1 || got.Cluster.Failed[0] != bad.URL {
				t.Fatalf("cluster section = %+v, want %s alone failed", got.Cluster, bad.URL)
			}
			if len(got.Matches) == 0 {
				t.Error("the two healthy shards' matches are missing")
			}
			resp, err := http.Get(coord.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var st clusterStatsResponse
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range st.Shards {
				if failed := i == 1; failed != (row.Errors > 0) || failed != strings.Contains(row.LastError, tc.wantErr) {
					t.Errorf("shard %d stats = %+v, want last_error with %q on shard 1 only", i, row, tc.wantErr)
				}
			}
		})
	}
}

// TestClusterDebugBlockIsStageMax pins what the coordinator makes of
// the frames' stage arrays: its ?debug=1 block is the per-stage maximum
// over the shards, every shard's timings feed the stage histograms, and
// the worst shard level is the answer's.
func TestClusterDebugBlockIsStageMax(t *testing.T) {
	frames := [][]byte{
		index.AppendPartial(nil, &index.Resolution{Query: &index.QueryResult{StageNanos: [index.NumStages]int64{1, 20, 3, 40, 5, 60}}}, 0),
		index.AppendPartial(nil, &index.Resolution{Query: &index.QueryResult{StageNanos: [index.NumStages]int64{10, 2, 30, 4, 50, 6}}}, 2),
	}
	var urls []string
	for _, frame := range frames {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/query" {
				w.Header().Set("Content-Type", partialContentType)
				w.Write(frame)
				return
			}
			fmt.Fprint(w, `{"status": "ok"}`)
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	cluster, err := NewCluster(urls, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	coord := httptest.NewServer(cluster)
	defer coord.Close()

	code, body := postBody(t, coord.URL+"/v1/query?debug=1", clusterQuery)
	var got struct {
		Degraded int        `json:"degraded"`
		Debug    *debugJSON `json:"debug"`
	}
	if err := json.Unmarshal(body, &got); err != nil || code != http.StatusOK || got.Debug == nil {
		t.Fatalf("query = %d %s (err %v)", code, body, err)
	}
	want := newDebugJSON(&[index.NumStages]int64{10, 20, 30, 40, 50, 60})
	assertSameJSON(t, "debug block", got.Debug, want)
	if got.Debug.TotalNanos != 210 || got.Degraded != 2 {
		t.Errorf("total %d degraded %d, want 210 and 2", got.Debug.TotalNanos, got.Degraded)
	}

	resp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for s := 0; s < index.NumStages; s++ {
		line := fmt.Sprintf("sparker_cluster_stage_seconds_count{stage=%q} 2", index.Stage(s).String())
		if !strings.Contains(string(raw), line) {
			t.Errorf("missing %q in coordinator /metrics", line)
		}
	}
}

// TestClusterReusesShardConnections pins the default client's idle
// pool: eight concurrent clients reuse the coordinator's shard
// connections instead of dialling one per fan-out.
func TestClusterReusesShardConnections(t *testing.T) {
	const clients, perClient, shards = 8, 50, 3
	var dials atomic.Int64
	var urls []string
	for i := 0; i < shards; i++ {
		srv := httptest.NewUnstartedServer(NewHandler(index.New(false, equivCfg())))
		srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials.Add(1)
			}
		}
		srv.Start()
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	cluster, err := NewCluster(urls, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	coord := httptest.NewServer(cluster)
	defer coord.Close()
	for _, p := range clusterProfiles {
		if code, body := postBody(t, coord.URL+"/v1/upsert", p); code != http.StatusOK {
			t.Fatalf("upsert: %d %s", code, body)
		}
	}

	before := dials.Load()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := client.Post(coord.URL+"/v1/query", "application/json", strings.NewReader(clusterQuery))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query: %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Each shard needs at most one connection per concurrent client and
	// one for the prober; allow as many again for dials that raced an
	// idle connection's return.
	if n := dials.Load() - before; n > 2*shards*(clients+1) {
		t.Errorf("%d shard dials for %d fan-outs over %d shards, want at most %d", n, clients*perClient, shards, 2*shards*(clients+1))
	}
}
