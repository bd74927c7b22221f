package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"sparker/internal/index"
	"sparker/internal/profile"
	"sparker/serve"
)

// The layer probes: single-threaded, in-process calls into each
// layer's public functions on the seed's datasets. The benchmark
// contract wants every per-layer metric from every workload's traced
// run; a workload measures the layers it exercises on its live servers,
// and the probes supply the rest, alike on every workload. Allocation
// counts, which no server exposes, are runtime.MemStats deltas around
// each loop.

// probeOut is what one probe measured: the values and checks a traced
// run merges into its result, and the spans its trace adopts.
type probeOut struct {
	res *Result
	tr  *Trace
}

// probeMemo keeps this process's probes by kind, seed and dataset scale:
// an invocation that traces several workloads on one seed probes once.
var probeMemo = map[string]*probeOut{}

func (e *env) probe(kind string, k int, run func(pe *env, d *Dataset, tr *Trace) error) (*probeOut, error) {
	key := fmt.Sprintf("%s/%d/%d", kind, e.Seed, k)
	if out, ok := probeMemo[key]; ok {
		return out, nil
	}
	pe := &env{Options: e.Options, work: e.work, res: newResult(kind, e.Options)}
	d, err := pe.dataset("probe-"+kind, k)
	if err != nil {
		return nil, err
	}
	out := &probeOut{res: pe.res, tr: newTrace()}
	if err := run(pe, d, out.tr); err != nil {
		return nil, err
	}
	probeMemo[key] = out
	return out, nil
}

// addProbes gives the traced run every per-layer row it has not
// measured on live servers, the probes' output checks and their spans.
func (e *env) addProbes(tr *Trace) error {
	batch, err := e.probe("batch", e.k(batchK), probeBatchLayers)
	if err != nil {
		return err
	}
	serving, err := e.probe("serving", e.k(servingK), probeServingLayers)
	if err != nil {
		return err
	}
	for _, out := range []*probeOut{batch, serving} {
		for name, s := range out.res.Values {
			if _, live := e.res.Values[name]; !live {
				e.res.Values[name] = s
			}
		}
		for _, c := range out.res.Checks {
			e.res.check(c.Name, c.OK, "%s", c.Detail)
		}
		tr.adopt(out.tr)
	}
	return nil
}

// probeOps is the op count of the query loops.
const probeOps = 1500

// serveConfig is the index configuration of a default-flag
// sparker-serve.
func serveConfig() index.Config {
	cfg := index.DefaultConfig()
	cfg.OpLog.Enabled = true
	return cfg
}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// allocMeter measures heap allocations of the calling goroutine's loop.
type allocMeter struct{ before runtime.MemStats }

func startAllocs() *allocMeter {
	m := &allocMeter{}
	runtime.GC()
	runtime.ReadMemStats(&m.before)
	return m
}

// perOp returns allocations and bytes per op since startAllocs.
func (m *allocMeter) perOp(n int) (allocs, bytes float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-m.before.Mallocs) / float64(n),
		float64(after.TotalAlloc-m.before.TotalAlloc) / float64(n)
}

// selfCPU is the harness process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // never fails for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// answer is the part of a query response the harness reads.
type answer struct {
	Matches []struct {
		OriginalID string  `json:"original_id"`
		Score      float64 `json:"score"`
	} `json:"matches"`
	Candidates []struct {
		OriginalID string  `json:"original_id"`
		Weight     float64 `json:"weight"`
	} `json:"candidates"`
	PostingsScanned int  `json:"postings_scanned"`
	Comparisons     int  `json:"comparisons"`
	Degraded        int  `json:"degraded"`
	Truncated       bool `json:"truncated"`
	Cluster         *struct {
		Shards    int  `json:"shards"`
		Responded int  `json:"responded"`
		Degraded  bool `json:"degraded"`
	} `json:"cluster"`
	Debug *struct {
		Stages []struct {
			Stage string `json:"stage"`
			Nanos int64  `json:"nanos"`
		} `json:"stages"`
		TotalNanos int64 `json:"total_nanos"`
	} `json:"debug"`
}

func parseAnswer(body []byte) (*answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("bench: decoding a query response: %w", err)
	}
	return &a, nil
}

// sameMatches reports whether two answers list the same matches with
// the same scores in the same order.
func sameMatches(a, b *answer) bool {
	if len(a.Matches) != len(b.Matches) {
		return false
	}
	for i := range a.Matches {
		if a.Matches[i] != b.Matches[i] {
			return false
		}
	}
	return true
}

// serveOnce runs one request through a handler without a network.
func serveOnce(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// probeServingLayers measures the index, persistence, HTTP,
// replication and cluster layers on d.
func probeServingLayers(e *env, d *Dataset, tr *Trace) error {
	rng := rand.New(rand.NewSource(e.Seed))
	queries := newQueryStream(d, rng).take(probeOps)
	byOrig := map[string]*profile.Profile{}
	for i := range d.B {
		byOrig[d.B[i].OriginalID] = &d.B[i]
	}
	var x *index.Index
	var single *serve.Handler
	sections := []struct {
		name string
		run  func() error
	}{
		{"index", func() (err error) { x, err = probeIndex(e, d, queries, byOrig); return err }},
		{"persist", func() error { return probePersist(e, d, x) }},
		{"handler", func() (err error) { single, err = probeHandler(e, d, queries); return err }},
		{"replication", func() error { return probeReplication(e, d, queries) }},
		{"cluster", func() error { return probeCluster(e, d, queries, single) }},
	}
	for _, sec := range sections {
		var err error
		tr.time("probe."+sec.name, -1, -1, func() { err = sec.run() })
		if err != nil {
			return fmt.Errorf("probe %s: %w", sec.name, err)
		}
	}
	return nil
}

// probeIndex builds the index and runs the query loops against it.
func probeIndex(e *env, d *Dataset, queries []Op, byOrig map[string]*profile.Profile) (*index.Index, error) {
	t0 := time.Now()
	x, err := index.NewFromCollection(d.Collection, serveConfig())
	if err != nil {
		return nil, err
	}
	e.res.set("index.build_s", time.Since(t0).Seconds(), 1)

	for _, q := range queries[:len(queries)/10] { // warm the pooled scratch
		x.Resolve(byOrig[q.Key])
	}
	var stages [index.NumStages]int64
	var postings, comparisons int
	meter := startAllocs()
	for _, q := range queries {
		r := x.Resolve(byOrig[q.Key])
		for s, ns := range r.Query.StageNanos {
			stages[s] += ns
		}
		postings += r.Query.PostingsScanned
		comparisons += r.Comparisons
	}
	allocs, bytesPerOp := meter.perOp(len(queries))
	n := float64(len(queries))
	var total float64
	for s, ns := range stages {
		us := float64(ns) / n / 1e3
		total += us
		e.res.set("index.query."+index.Stage(s).String()+"_us", us, len(queries))
	}
	e.res.set("index.query.total_us", total, len(queries))
	e.res.set("index.query.postings_scanned", float64(postings)/n, len(queries))
	e.res.set("index.query.comparisons", float64(comparisons)/n, len(queries))
	e.res.set("index.query.postings_per_comparison", float64(postings)/float64(comparisons), len(queries))
	e.res.set("index.query.allocs", allocs, len(queries))
	e.res.set("index.query.bytes", bytesPerOp, len(queries))

	// Recall when every query may score only its best-ranked candidate.
	tp, truth := 0, 0
	for _, q := range queries {
		r := x.ResolveWithOptions(byOrig[q.Key], index.ResolveOptions{Budget: index.Budget{MaxComparisons: 1}})
		want := d.truthOfB[q.Key]
		truth += len(want)
		for _, m := range r.Matches {
			for _, a := range want {
				if d.Collection.Profiles[m.B].OriginalID == a {
					tp++
				}
			}
		}
	}
	e.res.set("index.recall_at_c1", float64(tp)/float64(truth), truth)
	return x, nil
}

// probeWrites are the upserts the persistence probe applies: half
// overwrite a stored A record with a note, half insert a new one.
func probeWrites(d *Dataset, rng *rand.Rand, n int, tag string) []profile.Profile {
	out := make([]profile.Profile, n)
	for i := range out {
		p := d.A[rng.Intn(len(d.A))]
		p.Attributes = append([]profile.KeyValue(nil), p.Attributes...)
		if i%2 == 0 {
			p.Add("note", d.A[rng.Intn(len(d.A))].Value("name"))
		} else {
			p.OriginalID = fmt.Sprintf("%s-%s-%d", p.OriginalID, tag, i)
		}
		out[i] = p
	}
	return out
}

// probePersist measures the write path with a WAL attached, full and
// delta saves, a load, and a WAL recovery — the sequence a durable
// leader goes through between a save and a restart.
func probePersist(e *env, d *Dataset, x *index.Index) error {
	rng := rand.New(rand.NewSource(e.Seed + 1))
	walCfg := index.WALConfig{Dir: filepath.Join(e.work, "probe-oplog"), Sync: index.WALSyncInterval}
	snap := filepath.Join(e.work, "probe.snap")
	if _, err := x.OpenWAL(walCfg); err != nil {
		return err
	}
	apply := func(ps []profile.Profile) error {
		for _, p := range ps {
			if _, _, err := x.Upsert(p); err != nil {
				return err
			}
		}
		return nil
	}

	writes := probeWrites(d, rng, 500, "w")
	meter := startAllocs()
	t0 := time.Now()
	if err := apply(writes); err != nil {
		return err
	}
	took := time.Since(t0)
	allocs, _ := meter.perOp(len(writes))
	e.res.set("index.upsert_us", float64(took.Microseconds())/float64(len(writes)), len(writes))
	e.res.set("index.upsert.allocs", allocs, len(writes))
	wal := x.Metrics().WALAppend.Snapshot()
	e.res.set("index.wal.append_us", float64(wal.Sum)/float64(wal.Count)/1e3, int(wal.Count))
	if st := x.Snapshot().WAL; st != nil {
		e.res.set("index.wal.bytes_per_op", float64(st.Bytes)/float64(st.Appended), int(st.Appended))
		e.res.set("index.wal.syncs", float64(st.Syncs), 0)
	}

	t0 = time.Now()
	st, err := x.Save(snap)
	if err != nil {
		return err
	}
	e.res.set("index.persist.save_s", time.Since(t0).Seconds(), 1)
	e.res.set("index.persist.snapshot_bytes", float64(st.Bytes), 0)

	if err := apply(probeWrites(d, rng, 100, "d")); err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := x.SaveDelta(snap); err != nil {
		return err
	}
	e.res.set("index.persist.save_delta_ms", ms(time.Since(t0)), 1)

	if err := apply(probeWrites(d, rng, 400, "t")); err != nil {
		return err
	}
	if err := x.CloseWAL(); err != nil {
		return err
	}

	meter = startAllocs()
	t0 = time.Now()
	y, err := index.Load(snap, serveConfig())
	if err != nil {
		return err
	}
	e.res.set("index.persist.load_s", time.Since(t0).Seconds(), 1)
	loadAllocs, _ := meter.perOp(1)
	e.res.set("index.persist.load_allocs", loadAllocs, 1)

	t0 = time.Now()
	rec, err := y.OpenWAL(walCfg)
	if err != nil {
		return err
	}
	e.res.set("index.wal.recovery_s", time.Since(t0).Seconds(), 1)
	e.res.set("index.wal.replayed_ops", float64(rec.Replayed), 0)
	e.res.check("probe: snapshot + WAL recovers every write", y.Seq() == x.Seq() && y.Size() == x.Size(),
		"recovered seq %d size %d, want seq %d size %d", y.Seq(), y.Size(), x.Seq(), x.Size())
	return y.CloseWAL()
}

// probeHandler measures serve.Handler around the index: handler wall
// clock with and without the index's own share, and the cost of a real
// loopback connection on top.
func probeHandler(e *env, d *Dataset, queries []Op) (*serve.Handler, error) {
	x, err := index.NewFromCollection(d.Collection, serveConfig())
	if err != nil {
		return nil, err
	}
	h := serve.NewHandlerOptions(x, serve.Options{Logger: quietLogger})
	for _, q := range queries[:len(queries)/10] {
		serveOnce(h, q.Path, q.Body)
	}

	handler := make([]float64, len(queries)) // us
	var respBytes int
	meter := startAllocs()
	for i, q := range queries {
		t0 := time.Now()
		rec := serveOnce(h, q.Path, q.Body)
		handler[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("probe: handler answered %d", rec.Code)
		}
		respBytes += rec.Body.Len()
	}
	allocs, _ := meter.perOp(len(queries))
	var handlerSum float64
	for _, us := range handler {
		handlerSum += us
	}
	n := float64(len(queries))
	e.res.set("serve.query.handler_us", handlerSum/n, len(queries))
	e.res.set("serve.query.allocs", allocs, len(queries))
	e.res.set("serve.query.response_bytes", float64(respBytes)/n, len(queries))

	// The same queries with ?debug=1 say how much of the handler the
	// index itself took.
	var indexNs int64
	for _, q := range queries {
		a, err := parseAnswer(serveOnce(h, q.Path+"&debug=1", q.Body).Body.Bytes())
		if err != nil {
			return nil, err
		}
		if a.Debug == nil {
			return nil, fmt.Errorf("probe: ?debug=1 returned no stage block")
		}
		indexNs += a.Debug.TotalNanos
	}
	e.res.set("serve.query.overhead_us", handlerSum/n-float64(indexNs)/n/1e3, len(queries))

	// One keep-alive connection over loopback: what the network stack
	// and net/http add to the handler.
	srv := httptest.NewServer(h)
	defer srv.Close()
	gen := newGenerator(srv.URL, 1)
	defer gen.close()
	wire, _ := gen.closed(queries[:len(queries)/2])
	trip := make([]float64, 0, len(wire))
	for i := range wire {
		if !wire[i].ok {
			return nil, fmt.Errorf("probe: loopback query failed")
		}
		trip = append(trip, float64((wire[i].done-wire[i].sent).Nanoseconds())/1e3)
	}
	e.res.set("serve.transport_us", median(trip)-median(handler), len(trip))

	// Upserts through the handler, after the query loops so that they
	// see the collection as built.
	rng := rand.New(rand.NewSource(e.Seed + 2))
	writes := probeWrites(d, rng, 300, "h")
	t0 := time.Now()
	for i := range writes {
		if rec := serveOnce(h, upsertPath, profileJSON(&writes[i])); rec.Code != http.StatusOK {
			return nil, fmt.Errorf("probe: upsert answered %d", rec.Code)
		}
	}
	e.res.set("serve.upsert.handler_us", float64(time.Since(t0).Microseconds())/float64(len(writes)), len(writes))

	// The cluster probe compares against an unwritten single node.
	fresh, err := index.NewFromCollection(d.Collection, serveConfig())
	if err != nil {
		return nil, err
	}
	return serve.NewHandlerOptions(fresh, serve.Options{Logger: quietLogger}), nil
}

// probeReplication runs a leader and a follower in process over a
// loopback listener: bootstrap time, per-write propagation lag, and
// whether the follower then answers like the leader.
func probeReplication(e *env, d *Dataset, queries []Op) error {
	xl, err := index.NewFromCollection(d.Collection, serveConfig())
	if err != nil {
		return err
	}
	leader := httptest.NewServer(serve.NewHandlerOptions(xl, serve.Options{Logger: quietLogger}))
	defer leader.Close()

	ctx, cancel := context.WithCancel(context.Background())
	f := serve.NewFollower(leader.URL, serveConfig(), serve.FollowerOptions{Logger: quietLogger})
	t0 := time.Now()
	xf, err := f.Bootstrap(ctx)
	if err != nil {
		cancel()
		return err
	}
	e.res.set("serve.replication.bootstrap_s", time.Since(t0).Seconds(), 1)
	hf := serve.NewHandlerOptions(xf, serve.Options{Logger: quietLogger, Follower: f})
	stopped := make(chan struct{})
	go func() {
		_ = f.Run(ctx, hf) // returns the context's error on cancel
		close(stopped)
	}()
	defer func() {
		cancel()
		<-stopped
	}()

	rng := rand.New(rand.NewSource(e.Seed + 3))
	var lags []float64
	for _, p := range probeWrites(d, rng, 300, "r") {
		if _, _, err := xl.Upsert(p); err != nil {
			return err
		}
		acked := time.Now()
		for hf.Index().Seq() < xl.Seq() {
			if time.Since(acked) > 5*time.Second {
				return fmt.Errorf("probe: follower stuck at seq %d, leader at %d", hf.Index().Seq(), xl.Seq())
			}
			time.Sleep(20 * time.Microsecond)
		}
		lags = append(lags, ms(time.Since(acked)))
	}
	sort.Float64s(lags)
	e.res.set("serve.replication.lag_ms_p50", quantile(lags, 0.5), len(lags))
	e.res.set("serve.replication.lag_ms_max", lags[len(lags)-1], len(lags))
	e.res.set("serve.replication.resyncs", float64(f.Stats().Resyncs), 0)

	same := 0
	sample := queries[:200]
	hl := leader.Config.Handler
	for _, q := range sample {
		if bytes.Equal(serveOnce(hl, q.Path, q.Body).Body.Bytes(), serveOnce(hf, q.Path, q.Body).Body.Bytes()) {
			same++
		}
	}
	e.res.set("serve.replication.answer_match_share", float64(same)/float64(len(sample)), len(sample))
	return nil
}

// timedShard wraps a shard handler and remembers how long its last
// request took; the probe is single-threaded above the fan-out, so one
// slot per shard is enough.
type timedShard struct {
	h      http.Handler
	lastNs atomic.Int64
}

func (t *timedShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.lastNs.Store(time.Since(t0).Nanoseconds())
}

// probeCluster runs a coordinator over three empty in-process shards:
// bulk load through the coordinator, then the query loop, with each
// shard's handler timed so that the slowest shard and the coordinator's
// own fan-out and merge separate.
func probeCluster(e *env, d *Dataset, queries []Op, single *serve.Handler) error {
	const shards = 3
	var timed [shards]*timedShard
	var urls []string
	for i := range timed {
		timed[i] = &timedShard{h: serve.NewHandlerOptions(index.New(true, serveConfig()), serve.Options{Logger: quietLogger})}
		srv := httptest.NewServer(timed[i])
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	cl, err := serve.NewCluster(urls, serve.ClusterOptions{Logger: quietLogger})
	if err != nil {
		return err
	}
	defer cl.Close()

	t0 := time.Now()
	if err := bulkLoad(d, func(path string, body []byte) error {
		if rec := serveOnce(cl, path, body); rec.Code != http.StatusOK {
			return fmt.Errorf("probe: coordinator bulk answered %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}); err != nil {
		return err
	}
	e.res.set("serve.cluster.bulk_load_s", time.Since(t0).Seconds(), 1)

	queries = queries[:len(queries)*2/3]
	for _, q := range queries[:len(queries)/10] {
		serveOnce(cl, q.Path, q.Body)
	}
	var handlerNs, slowestNs int64
	degraded, same := 0, 0
	bodies := make([][]byte, len(queries))
	cpu0 := selfCPU()
	meter := startAllocs()
	for i, q := range queries {
		t0 := time.Now()
		rec := serveOnce(cl, q.Path, q.Body)
		handlerNs += time.Since(t0).Nanoseconds()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("probe: coordinator query answered %d", rec.Code)
		}
		var slowest int64
		for _, t := range timed {
			if ns := t.lastNs.Load(); ns > slowest {
				slowest = ns
			}
		}
		slowestNs += slowest
		bodies[i] = rec.Body.Bytes()
	}
	allocs, _ := meter.perOp(len(queries))
	cpu := selfCPU() - cpu0
	for i, q := range queries {
		got, err := parseAnswer(bodies[i])
		if err != nil {
			return err
		}
		want, err := parseAnswer(serveOnce(single, q.Path, q.Body).Body.Bytes())
		if err != nil {
			return err
		}
		if got.Cluster == nil || got.Cluster.Degraded {
			degraded++
		}
		if sameMatches(got, want) {
			same++
		}
	}
	n := float64(len(queries))
	e.res.set("serve.cluster.handler_us", float64(handlerNs)/n/1e3, len(queries))
	e.res.set("serve.cluster.slowest_shard_us", float64(slowestNs)/n/1e3, len(queries))
	e.res.set("serve.cluster.fanout_merge_us", float64(handlerNs-slowestNs)/n/1e3, len(queries))
	e.res.set("serve.cluster.query.allocs", allocs, len(queries))
	e.res.set("serve.cluster.cpu_ms_per_op", ms(cpu)/n, len(queries))
	e.res.set("serve.cluster.degraded_share", float64(degraded)/n, len(queries))
	e.res.set("serve.cluster.answer_match_share", float64(same)/n, len(queries))
	return nil
}

// bulkBatch is the record count of one /v1/bulk call.
const bulkBatch = 500

// bulkLoad posts the whole collection through post in bulkBatch-record
// JSON-lines bodies: source A, then source B.
func bulkLoad(d *Dataset, post func(path string, body []byte) error) error {
	for src, ps := range [][]profile.Profile{d.A, d.B} {
		path := fmt.Sprintf("/v1/bulk?source=%d", src)
		for lo := 0; lo < len(ps); lo += bulkBatch {
			hi := lo + bulkBatch
			if hi > len(ps) {
				hi = len(ps)
			}
			var body bytes.Buffer
			for i := lo; i < hi; i++ {
				body.Write(profileJSON(&ps[i]))
			}
			if err := post(path, body.Bytes()); err != nil {
				return err
			}
		}
	}
	return nil
}
