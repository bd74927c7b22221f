package serve

// Fault-injection and overload tests for the admission gate and the
// degradation ladder. The index Config.ScoreHook is the injection
// point: a hook that blocks (or sleeps) per comparison turns any query
// into a slow query on demand, so the tests can hold the gate open,
// saturate it, and watch the server shed, degrade and recover —
// deterministically, without relying on real load.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparker/internal/index"
	"sparker/internal/profile"
)

// overloadIndex builds a dirty index with enough token overlap that
// every query below yields candidates to score — each comparison runs
// the injected hook.
func overloadIndex(t *testing.T, hook func()) *index.Index {
	t.Helper()
	cfg := index.DefaultConfig()
	cfg.ScoreHook = hook
	x := index.New(false, cfg)
	for i := 0; i < 48; i++ {
		p := profile.Profile{OriginalID: fmt.Sprintf("p%d", i)}
		p.Add("name", fmt.Sprintf("tok%d tok%d shared%d", i%12, (i/2)%12, i%4))
		p.Add("desc", fmt.Sprintf("word%d common", i%8))
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatalf("upsert: %v", err)
		}
	}
	return x
}

// queryBody is the wire form of the probe query: overlaps several
// token groups in overloadIndex, so candidates always exist.
const queryBody = `{"id":"q","name":"tok0 tok1 shared0","desc":"word0 common"}`

func postQuery(t *testing.T, client *http.Client, url string) *http.Response {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(queryBody))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeQuery(t *testing.T, resp *http.Response) queryResponse {
	t.Helper()
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decode query response: %v", err)
	}
	return qr
}

func getStats(t *testing.T, client *http.Client, base string) statsResponse {
	t.Helper()
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return st
}

// blockFirstComparison returns a hook that parks the first comparison
// it sees until release is closed, signalling entered once parked.
// Later comparisons (same or other queries) pass straight through, so
// exactly one query holds its admission slot.
func blockFirstComparison(entered chan<- struct{}, release <-chan struct{}) func() {
	var first atomic.Bool
	return func() {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
}

// TestAdmissionShedImmediate: with MaxInFlight=1 and no shed wait, a
// second request sheds instantly with 429 + Retry-After while the
// first holds the gate — and /readyz reports the saturation so a load
// balancer can drain the replica. After release everything recovers.
func TestAdmissionShedImmediate(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	x := overloadIndex(t, blockFirstComparison(entered, release))
	srv := httptest.NewServer(NewHandlerOptions(x, Options{MaxInFlight: 1}))
	defer srv.Close()
	client := srv.Client()

	firstDone := make(chan int, 1)
	go func() {
		resp := postQuery(t, client, srv.URL+"/v1/query")
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-entered // the first query is parked inside scoring, slot held

	resp := postQuery(t, client, srv.URL+"/v1/query")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response missing Retry-After header")
	}
	var body APIError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Err.Code != ErrCodeOverloaded {
		t.Fatalf("shed response body = %+v (err %v), want %q envelope", body, err, ErrCodeOverloaded)
	}
	if body.Err.RetryAfterSeconds < 1 {
		t.Fatalf("shed envelope retry_after_seconds = %d, want >= 1", body.Err.RetryAfterSeconds)
	}
	resp.Body.Close()

	ready, err := client.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated /readyz status = %d, want 503", ready.StatusCode)
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("blocked query finished with %d, want 200", code)
	}

	ready, err = client.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz after release: %v", err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Fatalf("recovered /readyz status = %d, want 200", ready.StatusCode)
	}

	st := getStats(t, client, srv.URL)
	if st.Admission.ShedFull != 1 {
		t.Fatalf("shed_full = %d, want 1", st.Admission.ShedFull)
	}
	if st.Admission.InFlight != 0 {
		t.Fatalf("in_flight after drain = %d, want 0", st.Admission.InFlight)
	}
}

// TestAdmissionBoundedWaitShed: with a shed wait configured, the
// over-limit request waits, times out, and sheds with 503.
func TestAdmissionBoundedWaitShed(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	x := overloadIndex(t, blockFirstComparison(entered, release))
	srv := httptest.NewServer(NewHandlerOptions(x, Options{MaxInFlight: 1, ShedWait: 20 * time.Millisecond}))
	defer srv.Close()
	client := srv.Client()

	firstDone := make(chan struct{})
	go func() {
		resp := postQuery(t, client, srv.URL+"/v1/query")
		resp.Body.Close()
		close(firstDone)
	}()
	<-entered

	start := time.Now()
	resp := postQuery(t, client, srv.URL+"/v1/query")
	waited := time.Since(start)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("waited query status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 shed response missing Retry-After header")
	}
	if waited < 20*time.Millisecond {
		t.Fatalf("shed after %v, want at least the 20ms bounded wait", waited)
	}

	close(release)
	<-firstDone
	if st := getStats(t, client, srv.URL); st.Admission.ShedTimeout != 1 {
		t.Fatalf("shed_timeout = %d, want 1", st.Admission.ShedTimeout)
	}
}

// TestDegradedQueryMarker: a query admitted while the gate is half
// occupied is served at ladder level 1 and says so in its response and
// in the admission counters.
func TestDegradedQueryMarker(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	x := overloadIndex(t, blockFirstComparison(entered, release))
	srv := httptest.NewServer(NewHandlerOptions(x, Options{MaxInFlight: 2}))
	defer srv.Close()
	client := srv.Client()

	firstDone := make(chan struct{})
	go func() {
		resp := postQuery(t, client, srv.URL+"/v1/query")
		resp.Body.Close()
		close(firstDone)
	}()
	<-entered // one of two slots held: the next arrival finds occupancy 1/2

	resp := postQuery(t, client, srv.URL+"/v1/query")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query status = %d, want 200", resp.StatusCode)
	}
	qr := decodeQuery(t, resp)
	if qr.Degraded != 1 {
		t.Fatalf("degraded level = %d, want 1", qr.Degraded)
	}

	close(release)
	<-firstDone
	if st := getStats(t, client, srv.URL); st.Admission.Degraded < 1 {
		t.Fatalf("degraded_queries = %d, want >= 1", st.Admission.Degraded)
	}
}

// TestDegradeLadder pins the one ladder's schedule, on the knobs both
// topologies feed it: the wall-clock budget capped at 200 ms and halved
// per level down to the 5 ms floor (an absent budget and an explicit
// unlimited one both get the cap imposed, a tighter one only ever
// shrinks, and one already under the floor is kept, never raised to it)
// and the comparison caps 1024/256/64. Level 0 touches nothing.
func TestDegradeLadder(t *testing.T) {
	type budget struct {
		ms  float64
		set bool
	}
	for _, tc := range []struct {
		name string
		in   budget
		want [4]budget // by level
	}{
		{"unset", budget{}, [4]budget{{}, {200, true}, {100, true}, {50, true}}},
		{"explicit unlimited", budget{0, true}, [4]budget{{0, true}, {200, true}, {100, true}, {50, true}}},
		{"20ms", budget{20, true}, [4]budget{{20, true}, {20, true}, {10, true}, {5, true}}},
		{"8ms", budget{8, true}, [4]budget{{8, true}, {8, true}, {5, true}, {5, true}}},
		{"2ms", budget{2, true}, [4]budget{{2, true}, {2, true}, {2, true}, {2, true}}},
		{"1s", budget{1000, true}, [4]budget{{1000, true}, {200, true}, {100, true}, {50, true}}},
	} {
		for level, want := range tc.want {
			p := QueryParams{BudgetMS: tc.in.ms, BudgetSet: tc.in.set}
			degrade(&p, level)
			if got := (budget{p.BudgetMS, p.BudgetSet}); got != want {
				t.Errorf("budget %s at level %d = %+v, want %+v", tc.name, level, got, want)
			}
			if want := [4]int{0, 1024, 256, 64}[level]; p.MaxComparisons != want || p.MaxComparisonsSet != (level > 0) {
				t.Errorf("budget %s at level %d: max_comparisons = %d (set %v), want %d",
					tc.name, level, p.MaxComparisons, p.MaxComparisonsSet, want)
			}
		}
	}

	// A cap tighter than the level's survives.
	p := QueryParams{MaxComparisons: 10, MaxComparisonsSet: true}
	degrade(&p, 2)
	if p.MaxComparisons != 10 {
		t.Errorf("level 2 loosened %+v", p)
	}

	// The server default fills in before the ladder, never after: at
	// level 1 a 20 ms default stays 20 ms, it is not replaced by the cap.
	f := frontend{defaultBudget: 20 * time.Millisecond}
	p = QueryParams{}
	f.throttle(&p, 1)
	if p.BudgetMS != 20 || !p.BudgetSet {
		t.Errorf("default 20ms at level 1 = %v ms (set %v), want 20", p.BudgetMS, p.BudgetSet)
	}
}

// TestOverloadBoundedNoLeak is the synthetic overload driver: a storm
// of concurrent queries against a small gate with a sleeping scorer.
// The server must keep answering (200/429/503, nothing else), hold the
// number of concurrently scoring queries at or under the gate bound,
// and return to its goroutine baseline once the storm passes.
func TestOverloadBoundedNoLeak(t *testing.T) {
	var scoring, peak atomic.Int64
	hook := func() {
		n := scoring.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		scoring.Add(-1)
	}
	const gate = 4
	x := overloadIndex(t, hook)
	srv := httptest.NewServer(NewHandlerOptions(x, Options{
		MaxInFlight:   gate,
		ShedWait:      time.Millisecond,
		DefaultBudget: 5 * time.Millisecond,
	}))
	defer srv.Close()
	// Keep-alives off so no idle-connection goroutines linger between
	// the baseline measurement and the post-storm check.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()

	postQuery(t, client, srv.URL+"/v1/query").Body.Close() // warm-up
	baseline := runtime.NumGoroutine()

	const drivers = 16
	const perDriver = 4
	statuses := make(chan int, drivers*perDriver)
	var wg sync.WaitGroup
	for i := 0; i < drivers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perDriver; j++ {
				resp, err := client.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(queryBody))
				if err != nil {
					statuses <- -1
					continue
				}
				resp.Body.Close()
				statuses <- resp.StatusCode
			}
		}()
	}
	wg.Wait()
	close(statuses)

	counts := map[int]int{}
	for code := range statuses {
		counts[code]++
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("overload storm produced status %d, want only 200/429/503 (counts %v)", code, counts)
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("overload storm produced no successful answers: %v", counts)
	}
	if p := peak.Load(); p > gate {
		t.Fatalf("peak concurrent scoring queries = %d, want <= gate %d", p, gate)
	}

	// The gate must fully drain and the goroutine count return to its
	// baseline — bounded retries tolerate connection teardown in flight.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := getStats(t, client, srv.URL)
		n := runtime.NumGoroutine()
		if st.Admission.InFlight == 0 && st.Admission.Waiting == 0 && n <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-storm state did not settle: in_flight=%d waiting=%d goroutines=%d (baseline %d)",
				st.Admission.InFlight, st.Admission.Waiting, n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBodyLimit413: request bodies beyond Options.MaxBodyBytes answer
// 413 with a JSON error naming the limit; small bodies still work.
func TestBodyLimit413(t *testing.T) {
	x := overloadIndex(t, nil)
	srv := httptest.NewServer(NewHandlerOptions(x, Options{MaxBodyBytes: 128}))
	defer srv.Close()
	client := srv.Client()

	big := fmt.Sprintf(`{"id":"huge","name":%q}`, strings.Repeat("x", 512))
	resp, err := client.Post(srv.URL+"/v1/upsert", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("POST /v1/upsert: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upsert status = %d, want 413", resp.StatusCode)
	}
	var body APIError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode 413 body: %v", err)
	}
	resp.Body.Close()
	if body.Err.Code != ErrCodePayloadTooLarge || !strings.Contains(body.Err.Message, "128 bytes") {
		t.Fatalf("413 error = %+v, want %q naming the configured limit", body.Err, ErrCodePayloadTooLarge)
	}

	resp, err = client.Post(srv.URL+"/v1/upsert", "application/json",
		bytes.NewReader([]byte(`{"id":"ok","name":"tok0 small"}`)))
	if err != nil {
		t.Fatalf("POST small /v1/upsert: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small upsert status = %d, want 200", resp.StatusCode)
	}
}

// TestHealthzReadyzIdle: liveness and readiness both answer 200 on an
// idle server, and reject non-GET methods.
func TestHealthzReadyzIdle(t *testing.T) {
	x := overloadIndex(t, nil)
	srv := httptest.NewServer(NewHandlerOptions(x, Options{MaxInFlight: 2}))
	defer srv.Close()
	client := srv.Client()

	for _, route := range []string{"/healthz", "/readyz"} {
		resp, err := client.Get(srv.URL + route)
		if err != nil {
			t.Fatalf("GET %s: %v", route, err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode %s: %v", route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
			t.Fatalf("%s = %d %v, want 200 ok", route, resp.StatusCode, body)
		}
		resp, err = client.Post(srv.URL+route, "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s status = %d, want 405", route, resp.StatusCode)
		}
	}
}

// TestQueryBudgetKnobBadValues: malformed budget knobs are client
// errors, not silently ignored.
func TestQueryBudgetKnobBadValues(t *testing.T) {
	x := overloadIndex(t, nil)
	srv := httptest.NewServer(NewHandler(x))
	defer srv.Close()
	client := srv.Client()

	for _, q := range []string{
		"budget_ms=nope", "budget_ms=-1",
		"max_comparisons=x", "max_comparisons=-2",
	} {
		resp := postQuery(t, client, srv.URL+"/v1/query?"+q)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestQueryMaxComparisonsTruncates: ?max_comparisons=1 answers the
// best-first prefix with the truncation markers set; the same query
// unlimited scores more candidates and carries no markers.
func TestQueryMaxComparisonsTruncates(t *testing.T) {
	x := overloadIndex(t, nil)
	srv := httptest.NewServer(NewHandler(x))
	defer srv.Close()
	client := srv.Client()

	full := decodeQuery(t, postQuery(t, client, srv.URL+"/v1/query"))
	if full.Truncated || full.TruncatedStage != "" {
		t.Fatalf("unlimited query marked truncated: %+v", full)
	}
	if full.Comparisons < 2 {
		t.Fatalf("unlimited query scored %d candidates, need >= 2 for the truncation test", full.Comparisons)
	}

	capped := decodeQuery(t, postQuery(t, client, srv.URL+"/v1/query?max_comparisons=1"))
	if !capped.Truncated || capped.TruncatedStage != "score" {
		t.Fatalf("capped query truncated=%v stage=%q, want true/score", capped.Truncated, capped.TruncatedStage)
	}
	if capped.Comparisons != 1 {
		t.Fatalf("capped query scored %d, want exactly 1", capped.Comparisons)
	}
	if len(capped.Candidates) == 0 {
		t.Fatalf("capped query returned no candidates; want the ranked list intact")
	}
}
