// Serving: build the online entity index from a catalog, stand up the
// sparker-serve HTTP surface, and exercise query / upsert / stats end to
// end — the workflow of a production resolver answering point lookups
// instead of re-running the batch pipeline per request. The later
// sections are the operational walkthroughs: snapshot the index to
// disk, tear the process down, and warm-restart a new server from the
// file without re-indexing; then replicate a leader to a read-only
// follower over HTTP and kill the leader mid-stream; finally attach
// the durable write-ahead log, SIGKILL the leader mid-traffic, and
// restart it with its followers never re-bootstrapping; and last,
// front three shard processes with a scatter-gather coordinator,
// verify the merged ranking equals the single-node one, and kill a
// shard to watch answers degrade instead of fail.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sparker"
	"sparker/serve"
)

func main() {
	// 1. Build the index once from an existing clean-clean catalog.
	mk := func(id string, kvs ...[2]string) sparker.Profile {
		p := sparker.Profile{OriginalID: id}
		for _, kv := range kvs {
			p.Add(kv[0], kv[1])
		}
		return p
	}
	abt := []sparker.Profile{
		mk("a1", [2]string{"name", "Acme TurboBlend 5000 blender"},
			[2]string{"description", "powerful kitchen blender with turbo mode"}),
		mk("a2", [2]string{"name", "Zenix SoundWave speaker"},
			[2]string{"description", "portable bluetooth speaker, long battery"}),
		mk("a3", [2]string{"name", "Acme QuietCool fan"},
			[2]string{"description", "silent desk fan three speeds"}),
	}
	buy := []sparker.Profile{
		mk("b1", [2]string{"title", "TurboBlend 5000 by Acme (blender)"}),
		mk("b2", [2]string{"title", "Zenix SoundWave portable speaker"}),
		mk("b3", [2]string{"title", "Luxor desk lamp"}),
	}
	collection := sparker.NewCleanClean(abt, buy)

	idx, err := sparker.NewIndex(collection, sparker.DefaultIndexConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 2. Library-level point lookup: sub-millisecond, no batch re-run.
	query := mk("probe", [2]string{"name", "Acme TurboBlend 5000"})
	res := idx.Resolve(&query)
	fmt.Printf("library query: %d candidate(s), %d comparison(s) against %d profiles\n",
		len(res.Query.Candidates), res.Comparisons, idx.Size())
	for _, m := range res.Matches {
		p, _ := idx.Get(m.B)
		fmt.Printf("  match %s (score %.2f)\n", p.OriginalID, m.Score)
	}

	// 3. The same index over HTTP — exactly what sparker-serve serves.
	srv := httptest.NewServer(serve.NewHandler(idx))
	defer srv.Close()

	post := func(path, body string) map[string]any {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("POST %s: %s", path, raw)
		}
		var out map[string]any
		if err := json.Unmarshal(raw, &out); err != nil {
			log.Fatal(err)
		}
		return out
	}

	// Bulk-load two new source-B products.
	bulk := post("/v1/bulk?source=1",
		`{"id": "b4", "title": "Starlight projector lamp"}`+"\n"+
			`{"id": "b5", "title": "Acme TurboBlend 5000 refurbished blender"}`)
	fmt.Printf("bulk load: %v new profiles\n", bulk["upserted"])

	// Query: the refurbished blender now shows up as a second match.
	q := post("/v1/query", `{"id": "probe", "name": "Acme TurboBlend 5000 blender"}`)
	fmt.Printf("http query: %d candidate(s), %v posting(s) scanned\n",
		len(q["candidates"].([]any)), q["postings_scanned"])
	for _, m := range q["matches"].([]any) {
		mm := m.(map[string]any)
		fmt.Printf("  match %v (score %.2f)\n", mm["original_id"], mm["score"])
	}

	// Upsert replaces in place: b4 becomes a blender too.
	up := post("/v1/upsert?source=1", `{"id": "b4", "title": "Acme blender stand"}`)
	fmt.Printf("upsert b4: created=%v\n", up["created"])

	// Stats reflect everything that happened.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var snap sparker.IndexSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats: %d profiles, %d blocks across %d shards, %d queries, %d upserts\n",
		snap.Profiles, snap.Blocks, snap.Shards, snap.Queries, snap.Upserts)

	// 4. Observability: the same traffic left per-stage latency
	// histograms behind. ?debug=1 returns one query's breakdown inline,
	// and /metrics serves the Prometheus text exposition a scraper would
	// collect — count how many sparker_* families this little session
	// already produced.
	dbg := post("/v1/query?debug=1", `{"id": "probe", "name": "Acme TurboBlend 5000 blender"}`)
	if d, ok := dbg["debug"].(map[string]any); ok {
		stages := d["stages"].([]any)
		first := stages[0].(map[string]any)
		fmt.Printf("debug breakdown: %d stages, total %v ns (first: %v=%v ns)\n",
			len(stages), d["total_nanos"], first["stage"], first["nanos"])
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	expo, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	families := map[string]bool{}
	for _, line := range bytes.Split(expo, []byte("\n")) {
		if f, ok := bytes.CutPrefix(line, []byte("# TYPE ")); ok {
			families[string(bytes.Fields(f)[0])] = true
		}
	}
	fmt.Printf("prometheus scrape: %d metric families exposed on /metrics\n", len(families))

	// 5. Kill and restart: snapshot the index, "crash" the process
	// (drop the server and the in-memory index), then warm-restart from
	// the file. This is what `sparker-serve -snapshot idx.snap` does at
	// boot and on SIGTERM — restores without reading the input files.
	//
	// Snapshot format note: Save writes format version 5 (the profiles
	// and nothing derived from them; Load rebuilds the postings) and Load
	// reads exactly that version. A version-4 file from an older build
	// answers ErrIndexSnapshotVersion; sparker-serve then rebuilds from
	// its inputs.
	dir, err := os.MkdirTemp("", "sparker-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "idx.snap")

	st, err := sparker.SaveIndex(idx, snapPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved snapshot: %d bytes at %s\n", st.Bytes, st.Path)
	srv.Close() // the "kill": the old process and its index are gone

	restored, err := sparker.LoadIndex(snapPath, sparker.DefaultIndexConfig())
	if err != nil {
		log.Fatal(err)
	}
	srv2 := httptest.NewServer(serve.NewHandlerOptions(restored, serve.Options{SnapshotPath: snapPath}))
	defer srv2.Close()

	// The restored index answers immediately — same profiles, same
	// counters, no rebuild. Compare the pre-kill query against it.
	q2 := func() map[string]any {
		resp, err := http.Post(srv2.URL+"/v1/query", "application/json",
			bytes.NewBufferString(`{"id": "probe", "name": "Acme TurboBlend 5000 blender"}`))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		return out
	}()
	fmt.Printf("after restart: %d candidate(s), %d profiles served warm from disk\n",
		len(q2["candidates"].([]any)), restored.Size())

	rs := restored.Snapshot()
	fmt.Printf("restored stats: restored=%v, %d queries and %d upserts carried over\n",
		rs.Persist.Restored, rs.Queries, rs.Upserts)

	// A replica would instead load the same file read-only:
	replica, err := sparker.LoadIndex(snapPath, sparker.DefaultIndexConfig())
	if err != nil {
		log.Fatal(err)
	}
	replica.SetReadOnly(true)
	if _, _, err := replica.Upsert(sparker.Profile{OriginalID: "nope"}); err != nil {
		fmt.Printf("replica rejects writes: %v\n", err)
	}

	// 6. Overload behavior: budgets and load-shedding. A query can cap
	// its own work — ?max_comparisons=1 scores only the single
	// best-ranked candidate and marks the answer truncated. Larger
	// budgets only ever add matches (the candidates are ranked before
	// scoring), so a truncated answer is the best-first prefix of the
	// full one.
	capped := func() map[string]any {
		resp, err := http.Post(srv2.URL+"/v1/query?max_comparisons=1", "application/json",
			bytes.NewBufferString(`{"id": "probe", "name": "Acme TurboBlend 5000 blender"}`))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		return out
	}()
	fmt.Printf("budgeted query: %v comparison(s), truncated=%v at stage %q\n",
		capped["comparisons"], capped["truncated"], capped["truncated_stage"])

	// With -max-inflight (Options.MaxInFlight), over-limit requests shed
	// with 429 + Retry-After instead of queueing. Simulate saturation
	// with a one-slot gate and a scorer that parks the first query via
	// the fault-injection hook (IndexConfig.ScoreHook).
	entered := make(chan struct{})
	release := make(chan struct{})
	blocked := false
	shedCfg := sparker.DefaultIndexConfig()
	shedCfg.ScoreHook = func() {
		if !blocked { // queries run one at a time behind the 1-slot gate
			blocked = true
			close(entered)
			<-release
		}
	}
	shedIdx, err := sparker.NewIndex(collection, shedCfg)
	if err != nil {
		log.Fatal(err)
	}
	srv3 := httptest.NewServer(serve.NewHandlerOptions(shedIdx, serve.Options{MaxInFlight: 1}))
	defer srv3.Close()

	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		resp, err := http.Post(srv3.URL+"/v1/query", "application/json",
			bytes.NewBufferString(`{"id": "probe", "name": "Acme TurboBlend 5000 blender"}`))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
	}()
	<-entered // the slow query now holds the only admission slot

	resp2, err := http.Post(srv3.URL+"/v1/query", "application/json",
		bytes.NewBufferString(`{"id": "probe", "name": "Zenix SoundWave speaker"}`))
	if err != nil {
		log.Fatal(err)
	}
	shedBody, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	fmt.Printf("saturated server shed with %d (Retry-After %s): %s",
		resp2.StatusCode, resp2.Header.Get("Retry-After"), shedBody)

	close(release) // the slow query finishes, the gate drains
	<-slowDone

	// 7. Replication: a leader streams its op log to a read replica over
	// HTTP. This is what `sparker-serve -follow <leader-url>` wires up —
	// the follower bootstraps from GET /v1/snapshot, serves read-only, and
	// tails GET /v1/deltas. Build a leader whose index keeps an op log
	// (sparker-serve always enables it; embedders opt in via
	// IndexOpLogConfig):
	leaderCfg := sparker.DefaultIndexConfig()
	leaderCfg.OpLog = sparker.IndexOpLogConfig{Enabled: true}
	leaderIdx, err := sparker.NewIndex(collection, leaderCfg)
	if err != nil {
		log.Fatal(err)
	}
	leaderH := serve.NewHandlerOptions(leaderIdx, serve.Options{})
	leader := httptest.NewServer(leaderH)

	follower := serve.NewFollower(leader.URL, leaderCfg, serve.FollowerOptions{
		PollWait: 100 * time.Millisecond,
		Interval: 10 * time.Millisecond,
	})
	followerIdx, err := follower.Bootstrap(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	followerH := serve.NewHandlerOptions(followerIdx, serve.Options{Follower: follower})
	followerSrv := httptest.NewServer(followerH)
	defer followerSrv.Close()
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	go func() { _ = follower.Run(runCtx, followerH) }()
	fmt.Printf("follower bootstrapped: %d profiles at seq %d\n",
		followerIdx.Size(), followerIdx.Seq())

	// Write through the leader; the delta feed carries it to the
	// follower within a poll. Wait until the follower's applied sequence
	// number reaches the leader's (exactly what the CI smoke polls for).
	postTo := func(base, path, body string) {
		resp, err := http.Post(base+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
	}
	postTo(leader.URL, "/v1/upsert?source=1", `{"id": "b6", "title": "Acme TurboBlend 6000 blender"}`)
	for followerH.Index().Seq() < leaderIdx.Seq() {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("replicated: follower at seq %d, lag %.0fs\n",
		follower.Stats().AppliedSeq, follower.Stats().LagSeconds)

	// Both must answer byte-identically: the follower's index is the
	// same state at the same sequence number.
	ask := func(base string) []byte {
		resp, err := http.Post(base+"/v1/query", "application/json",
			bytes.NewBufferString(`{"id": "probe", "name": "Acme TurboBlend 6000"}`))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return raw
	}
	leaderAnswer, followerAnswer := ask(leader.URL), ask(followerSrv.URL)
	fmt.Printf("leader and follower answers identical: %v\n",
		bytes.Equal(leaderAnswer, followerAnswer))

	// Kill the leader mid-stream. The follower keeps serving the state
	// at its last applied sequence number — same answers, still ready —
	// and resumes tailing when a leader comes back.
	leader.Close()
	afterKill := ask(followerSrv.URL)
	fmt.Printf("after leader death: follower still answers identically: %v (seq %d)\n",
		bytes.Equal(leaderAnswer, afterKill), followerH.Index().Seq())

	// 8. Durability: the leader above kept its op log only in memory, so
	// a real crash would evict the window and force every follower
	// through a full re-bootstrap. A leader started with `-oplog-dir`
	// also appends each op to an on-disk segment file *before* applying
	// it (the write-ahead log); this walkthrough is the SIGKILL version
	// of section 5 — kill -9, so nothing gets to say goodbye.
	walDir := filepath.Join(dir, "oplog")
	durIdx, err := sparker.NewIndex(collection, leaderCfg)
	if err != nil {
		log.Fatal(err)
	}
	// fsync-always: every append reaches stable storage before the op
	// is acknowledged, so even a power cut loses nothing.
	walCfg := sparker.IndexWALConfig{Dir: walDir, Sync: sparker.WALSyncAlways}
	if _, err := durIdx.OpenWAL(walCfg); err != nil {
		log.Fatal(err)
	}
	durSnap := filepath.Join(dir, "durable.snap")
	if _, err := sparker.SaveIndex(durIdx, durSnap); err != nil {
		log.Fatal(err)
	}

	// A stable URL across the "restart": the handler behind the listener
	// is swappable, standing in for a port that outlives the process.
	var front atomic.Pointer[serve.Handler]
	front.Store(serve.NewHandlerOptions(durIdx, serve.Options{}))
	frontSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		front.Load().ServeHTTP(w, r)
	}))
	defer frontSrv.Close()

	tail := serve.NewFollower(frontSrv.URL, leaderCfg, serve.FollowerOptions{
		PollWait: 100 * time.Millisecond,
		Interval: 10 * time.Millisecond,
	})
	tailIdx, err := tail.Bootstrap(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	tailH := serve.NewHandlerOptions(tailIdx, serve.Options{Follower: tail})
	tailCtx, cancelTail := context.WithCancel(context.Background())
	defer cancelTail()
	go func() { _ = tail.Run(tailCtx, tailH) }()

	// Mid-traffic writes land on disk and replicate...
	postTo(frontSrv.URL, "/v1/upsert?source=1", `{"id": "b7", "title": "Acme QuietCool fan mk2"}`)
	postTo(frontSrv.URL, "/v1/upsert?source=1", `{"id": "b8", "title": "Zenix SoundWave mini speaker"}`)
	for tailH.Index().Seq() < durIdx.Seq() {
		time.Sleep(5 * time.Millisecond)
	}
	deadSeq := durIdx.Seq()

	// ...then kill -9: abandon the index without CloseWAL. No final
	// flush, no final snapshot — only the segments already on disk.
	durIdx = nil

	// Restart: restore the snapshot, then replay the log tail past it.
	// Recovery also re-retains the replayed frames in the in-memory
	// window, so the follower's next /v1/deltas poll is answered from
	// before the crash — no 410, no re-bootstrap.
	recovered, err := sparker.LoadIndex(durSnap, leaderCfg)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := recovered.OpenWAL(walCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after kill -9: replayed %d op(s) from the log, seq %d (pre-kill %d)\n",
		rec.Replayed, recovered.Seq(), deadSeq)
	front.Store(serve.NewHandlerOptions(recovered, serve.Options{}))

	// The follower keeps tailing across the restart as if nothing
	// happened: new writes flow, the resync counter stays at zero.
	postTo(frontSrv.URL, "/v1/upsert?source=1", `{"id": "b9", "title": "Luxor floor lamp"}`)
	for tailH.Index().Seq() < recovered.Seq() {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("follower caught up at seq %d with %d resync(s)\n",
		tail.Stats().AppliedSeq, tail.Stats().Resyncs)
	if err := recovered.CloseWAL(); err != nil {
		log.Fatal(err)
	}

	// 9. Cluster mode: a scatter-gather coordinator over shard
	// processes — what `sparker-serve -shards http://a,http://b` runs.
	// Writes hash-route to one shard by original profile ID; queries
	// fan out to every shard and the ranked partials merge
	// deterministically on global (original_id, source) identity.
	//
	// The equivalence config disables the knobs that depend on
	// shard-local collection statistics (meta-blocking's pruning,
	// purge/filter thresholds), so the sharded ranking is *exactly* the
	// single-node ranking. For sparker-serve these are the -config file
	// {"meta_blocking": false, "filter_ratio": 1, "purge_factor": 1, ...}.
	equivCfg := sparker.DefaultIndexConfig()
	equivCfg.MetaBlocking = false
	equivCfg.FilterRatio = 1
	equivCfg.PurgeFactor = 1

	var shardURLs []string
	var shardSrvs []*httptest.Server
	for i := 0; i < 3; i++ {
		s := httptest.NewServer(serve.NewHandler(sparker.NewEmptyIndex(false, equivCfg)))
		defer s.Close()
		shardSrvs = append(shardSrvs, s)
		shardURLs = append(shardURLs, s.URL)
	}
	clu, err := serve.NewCluster(shardURLs, serve.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer clu.Close()
	coord := httptest.NewServer(clu)
	defer coord.Close()

	// A single node holding the whole catalog, for comparison.
	single := httptest.NewServer(serve.NewHandler(sparker.NewEmptyIndex(false, equivCfg)))
	defer single.Close()

	catalog := []string{
		`{"id": "c1", "name": "acme turboblend 5000 blender"}`,
		`{"id": "c2", "name": "acme turboblend 6000 blender refurbished"}`,
		`{"id": "c3", "name": "zenix soundwave portable speaker"}`,
		`{"id": "c4", "name": "luxor desk lamp walnut"}`,
	}
	for _, row := range catalog {
		postTo(coord.URL, "/v1/upsert?source=1", row)
		postTo(single.URL, "/v1/upsert?source=1", row)
	}
	fmt.Printf("cluster: %d profiles hash-routed across %d shards (c1's home shard: %d)\n",
		len(catalog), len(shardURLs), serve.ShardFor("c1", len(shardURLs)))

	clusterQ := `{"id": "probe", "name": "acme turboblend 5000 blender"}`
	singleAnswer := askPath(single.URL, "/v1/query", clusterQ)
	merged := askPath(coord.URL, "/v1/query", clusterQ)
	var mergedResp, singleResp struct {
		Matches []struct {
			OriginalID string  `json:"original_id"`
			Score      float64 `json:"score"`
		} `json:"matches"`
		Cluster struct {
			Shards    int      `json:"shards"`
			Responded int      `json:"responded"`
			Degraded  bool     `json:"degraded"`
			Failed    []string `json:"failed"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(merged, &mergedResp); err != nil {
		log.Fatal(err)
	}
	if err := json.Unmarshal(singleAnswer, &singleResp); err != nil {
		log.Fatal(err)
	}
	sameRanking := len(mergedResp.Matches) == len(singleResp.Matches)
	for i := range mergedResp.Matches {
		if !sameRanking ||
			mergedResp.Matches[i].OriginalID != singleResp.Matches[i].OriginalID ||
			mergedResp.Matches[i].Score != singleResp.Matches[i].Score {
			sameRanking = false
			break
		}
	}
	fmt.Printf("scatter-gather: %d/%d shards responded, ranking identical to single node: %v\n",
		mergedResp.Cluster.Responded, mergedResp.Cluster.Shards, sameRanking)

	// Kill one shard: the coordinator answers 200 with the surviving
	// shards' merged results, marked degraded — never a 5xx. Only when
	// every shard is gone does a query fail.
	shardSrvs[0].Close()
	degraded := askPath(coord.URL, "/v1/query", clusterQ)
	if err := json.Unmarshal(degraded, &mergedResp); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after shard death: degraded=%v, %d/%d responded, %d failed shard(s)\n",
		mergedResp.Cluster.Degraded, mergedResp.Cluster.Responded,
		mergedResp.Cluster.Shards, len(mergedResp.Cluster.Failed))
}

// askPath POSTs body to base+path and returns the raw response.
func askPath(base, path, body string) []byte {
	resp, err := http.Post(base+path, "application/json", bytes.NewBufferString(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return raw
}
