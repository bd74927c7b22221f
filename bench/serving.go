package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"sparker/internal/index"
	"sparker/internal/profile"
)

const (
	// servingK is the serving workloads' dataset scale: 10 865 profiles.
	servingK = 5
	// rounds is how often a timed serving run boots its topology. Each
	// round gets its share of the open-loop and saturation ops, and the
	// reported numbers are medians across rounds: a server process's
	// heap layout and GC phase shift its latencies by several percent
	// for its whole life, which no amount of traffic to one process
	// averages out.
	rounds = 5
	// restartsPerRound is how often each round kills and restarts the
	// process the generator talks to. Thirty restarts a run: with ten,
	// the stretches in which a restart takes a third longer (see
	// memoryProbe) moved the run's figure by a quarter.
	restartsPerRound = 6
	// nullEvery is how many traced ops go between two null round trips.
	nullEvery = 5
	// minNullTrips is the fewest null round trips whose mean the closure
	// check trusts.
	minNullTrips = 50
	// minClosure is the least share of the traced ops' time the trace
	// must account for.
	minClosure = 0.9
	// warmOps queries open the connections and fill the servers'
	// pooled buffers before anything is timed.
	warmOps = 200
	// sampleOps is the size of the fixed answer samples the output
	// checks compare.
	sampleOps = 200
	// restoredOps is how many sampled queries a restarted coordinator
	// must answer from all its shards before it counts as back.
	restoredOps = 50
	// satWindow is the window over which saturation throughput is
	// counted; sat_ops_per_s is the median window.
	satWindow = 250 * time.Millisecond
	// maxLateMs is the generator lateness beyond which an open-loop
	// phase no longer measured the server. It is held against the 90th
	// percentile of lateness, above the highest percentile of latency the
	// benchmark bounds: this sandbox stalls for 50 to 100 ms in every
	// ten seconds or so, which puts the 99th percentile of lateness over
	// the limit in one round in six and moves no reported number.
	maxLateMs = 1.0
)

// statsBody is the part of GET /v1/stats the harness reads, from index
// servers and the coordinator alike.
type statsBody struct {
	Profiles int   `json:"profiles"`
	Seq      int64 `json:"seq"`
	// Healthy is the coordinator's count of shards that answer.
	Healthy     int `json:"healthy"`
	Replication *struct {
		AppliedSeq int64   `json:"applied_seq"`
		LagSeconds float64 `json:"lag_seconds"`
		Resyncs    int64   `json:"resyncs"`
	} `json:"replication"`
}

func getStats(p *Proc) (*statsBody, error) {
	resp, err := http.Get(p.URL() + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: %s /v1/stats answered %s", p.Name, resp.Status)
	}
	var st statsBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("bench: decoding %s /v1/stats: %w", p.Name, err)
	}
	return &st, nil
}

// post sends one body outside any timed phase.
func post(url string, body []byte) ([]byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: POST %s answered %s: %s", url, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// spec is what distinguishes one serving workload from another.
type spec struct {
	// rate is the open-loop schedule in op/s; fullSatOps the closed-loop
	// op count of a fullSeconds run.
	rate, fullSatOps float64
	// boot brings the topology up from the generated files, attaches
	// the generator and returns how long that took: the set-up.
	boot func() (time.Duration, error)
	// afterRound runs the output checks that need the live topology.
	afterRound func() error
	// restored runs after each kill -9 restart of the target, inside the
	// restart's clock: it reads the target's state back and checks that
	// nothing acknowledged was lost.
	restored func() error
	// during, when not nil, runs alongside the traced phase until stop
	// closes.
	during func(stop <-chan struct{})
	// live sets the per-layer rows only this workload's topology
	// exercises from what its servers counted during the traced phase.
	live func(by map[*Proc]window)
}

// serving is the state the three serving workloads share.
type serving struct {
	e     *env
	d     *Dataset
	place *placement
	fl    *fleet
	// target receives the generator's traffic; nodes are the index
	// servers that answer its queries (the target itself, or the shards
	// behind a coordinator); procs are all processes, whose CPU, memory
	// and /metrics the traced run reads.
	target *Proc
	nodes  []*Proc
	procs  []*Proc
	gen    *generator
	// present holds the A records the target currently stores, as the
	// schedule has it: scoring walks the ops in due order.
	present map[string]bool
	// primary selects the op kind whose latency is the workload's
	// op_p50_ms / op_p75_ms.
	primary func(opKind) bool
	take    func(n int) ([]Op, error)
	warm    []Op
	q       quality
	// writes and inserts count the upserts the current target
	// acknowledged.
	writes, inserts int
	m               measurements
	// ref is checkAgainstIndex's in-process index, built once.
	ref *index.Index
}

// quality accumulates the answers' score against the ground truth.
type quality struct {
	queries, tp, returned, truth int
	degraded, truncated          int
	clusterShort                 int // coordinator answers missing a shard
}

// measurements accumulates the timed rounds' samples.
type measurements struct {
	setups     []float64 // s, one per round
	restarts   []float64 // s, one per kill -9 restart, scaled (see restartRound)
	rawStarts  []float64 // s, as the clock read them
	probes     []float64 // ms, every memoryProbe beside a restart
	p50s       []float64 // ms, the primary op's, one per round
	p75s       []float64
	p90s, p99s []float64
	worst      []float64 // ms, every round's p999
	queryP50s  []float64 // ms, one per round
	queryP75s  []float64
	queryP90s  []float64
	queryP99s  []float64
	rates      []float64 // op/s, one per satWindow
	late90     []float64 // ms, the dispatcher's lateness p90, one per round
	late99     []float64
	samples    int // primary-op latencies behind the percentiles
	sent, shed int
}

func newServing(e *env) (*serving, error) {
	d, err := e.dataset("serve", e.k(servingK))
	if err != nil {
		return nil, err
	}
	place, err := newPlacement()
	if err != nil {
		return nil, err
	}
	fl := newFleet(e.bin, filepath.Join(e.ResultsDir, "logs"), place)
	return &serving{e: e, d: d, place: place, fl: fl, present: map[string]bool{}}, nil
}

// attach points the generator at the booted topology.
func (s *serving) attach(target *Proc, nodes []*Proc, procs ...*Proc) {
	s.target, s.nodes, s.procs = target, nodes, procs
	s.gen = newGenerator(target.URL(), Conns())
}

// teardown stops the topology between rounds.
func (s *serving) teardown() {
	if s.gen != nil {
		s.gen.close()
		s.gen = nil
	}
	s.fl.stopAll()
}

// score folds one phase's answers into the quality totals, walking the
// ops in schedule order so that a query is held to the ground-truth
// pairs whose A side had been stored when it was due.
func (s *serving) score(ops []Op, res []opResult) error {
	for i := range ops {
		if !res[i].ok {
			continue
		}
		if ops[i].Kind.write() {
			s.writes++
			if ops[i].Kind == opInsert {
				s.inserts++
				s.present[ops[i].Key] = true
			}
			continue
		}
		a, err := parseAnswer(res[i].body)
		if err != nil {
			return err
		}
		s.q.queries++
		if a.Degraded > 0 {
			s.q.degraded++
		}
		if a.Truncated {
			s.q.truncated++
		}
		if a.Cluster != nil && (a.Cluster.Degraded || a.Cluster.Responded != a.Cluster.Shards) {
			s.q.clusterShort++
		}
		want := map[string]bool{}
		for _, orig := range s.d.truthOfB[ops[i].Key] {
			if s.present[orig] {
				want[orig] = true
			}
		}
		s.q.truth += len(want)
		s.q.returned += len(a.Matches)
		for _, m := range a.Matches {
			if want[m.OriginalID] {
				s.q.tp++
			}
		}
	}
	return nil
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// shedCount counts ops the admission gate refused.
func shedCount(res []opResult) int {
	n := 0
	for i := range res {
		if res[i].status == http.StatusTooManyRequests || res[i].status == http.StatusServiceUnavailable {
			n++
		}
	}
	return n
}

// warmUp sends the warm-up queries; they are neither timed nor scored.
func (s *serving) warmUp() error {
	res, _ := s.gen.closed(s.warm)
	if n := countFailed(res); n > 0 {
		return fmt.Errorf("%d of %d warm-up queries failed", n, len(res))
	}
	return nil
}

// windowRates appends the throughput of every full satWindow of a
// closed-loop phase, each timed from its first completion to its last;
// a phase shorter than one window yields its overall rate.
func windowRates(dst []float64, res []opResult, elapsed time.Duration) []float64 {
	full := int(elapsed / satWindow)
	if full < 1 {
		return append(dst, float64(len(res))/elapsed.Seconds())
	}
	type window struct {
		n           int
		first, last time.Duration
	}
	ws := make([]window, full)
	for i := range res {
		w := int(res[i].done / satWindow)
		if w >= full {
			continue
		}
		if ws[w].n == 0 || res[i].done < ws[w].first {
			ws[w].first = res[i].done
		}
		if res[i].done > ws[w].last {
			ws[w].last = res[i].done
		}
		ws[w].n++
	}
	for _, w := range ws {
		if w.n > 1 {
			dst = append(dst, float64(w.n-1)/(w.last-w.first).Seconds())
		}
	}
	return dst
}

// timedRound runs one round's untraced phases: open loop at a fixed
// rate, then a fixed op count closed loop.
func (s *serving) timedRound(rate float64, nOpen, nSat int) error {
	if err := s.warmUp(); err != nil {
		return err
	}
	openOps, err := s.take(nOpen)
	if err != nil {
		return err
	}
	satOps, err := s.take(nSat)
	if err != nil {
		return err
	}
	// The generator shares the machine with the servers: its own
	// collector stays off while the clock runs and catches up after.
	gc := debug.SetGCPercent(-1)
	openRes, _ := s.gen.open(openOps, rate)
	satRes, elapsed := s.gen.closed(satOps)
	debug.SetGCPercent(gc)

	m := &s.m
	isQuery := func(k opKind) bool { return k == opQuery }
	lat := latenciesMs(openOps, openRes, s.primary)
	qlat := latenciesMs(openOps, openRes, isQuery)
	m.p50s = append(m.p50s, quantile(lat, 0.5))
	m.p75s = append(m.p75s, quantile(lat, 0.75))
	m.p90s = append(m.p90s, quantile(lat, 0.9))
	m.p99s = append(m.p99s, quantile(lat, 0.99))
	m.worst = append(m.worst, quantile(lat, 0.999))
	m.queryP50s = append(m.queryP50s, quantile(qlat, 0.5))
	m.queryP75s = append(m.queryP75s, quantile(qlat, 0.75))
	m.queryP90s = append(m.queryP90s, quantile(qlat, 0.9))
	m.queryP99s = append(m.queryP99s, quantile(qlat, 0.99))
	m.samples += len(lat)
	late := latenessMs(openRes)
	m.late90 = append(m.late90, quantile(late, 0.9))
	m.late99 = append(m.late99, quantile(late, 0.99))
	m.rates = windowRates(m.rates, satRes, elapsed)
	m.sent += len(openOps) + len(satOps)
	m.shed += shedCount(openRes) + shedCount(satRes)
	s.e.res.Attempted += len(openOps) + len(satOps)
	s.e.res.Failed += countFailed(openRes) + countFailed(satRes)
	if err := s.score(openOps, openRes); err != nil {
		return err
	}
	if err := s.score(satOps, satRes); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

// report sets the timed run's metrics from the rounds' samples.
func (s *serving) report() {
	r, m := s.e.res, &s.m
	r.set("setup_s", median(m.setups), len(m.setups))
	// The lower quartile, not the median: what the probe does not follow
	// only ever adds to a restart, for up to most of a run's restarts.
	sort.Float64s(m.restarts)
	r.set("restart_s", quantile(m.restarts, 0.25), len(m.restarts))
	r.set("load.restart_s", median(m.rawStarts), len(m.rawStarts))
	r.set("load.probe_ms", median(m.probes), len(m.probes))
	r.set("op_p50_ms", median(m.p50s), m.samples)
	r.set("op_p75_ms", median(m.p75s), m.samples)
	r.set("load.op_p90_ms", median(m.p90s), m.samples)
	r.set("load.op_p99_ms", median(m.p99s), m.samples)
	r.set("sat_ops_per_s", median(m.rates), len(m.rates))
	r.set("recall", share(s.q.tp, s.q.truth), s.q.truth)
	r.set("precision", share(s.q.tp, s.q.returned), s.q.returned)
	r.set("query_p50_ms", median(m.queryP50s), s.q.queries)
	r.set("query_p75_ms", median(m.queryP75s), s.q.queries)
	r.set("load.query_p90_ms", median(m.queryP90s), s.q.queries)
	r.set("load.query_p99_ms", median(m.queryP99s), s.q.queries)
	sort.Float64s(m.worst)
	r.set("load.op_p999_ms", m.worst[len(m.worst)-1], m.samples)
	// Every latency above is a median across rounds, so one round's
	// stall does not condemn the run; most rounds running late does.
	s.reportValidity(median(m.late90), median(m.late99), m.shed, m.sent)
	s.reportDegradation()
}

// reportValidity sets the generator's lateness and the shed share, and
// marks the run invalid when either says the phase did not measure the
// servers.
func (s *serving) reportValidity(late90, late99 float64, shed, sent int) {
	r := s.e.res
	r.set("load.late_ms_p90", late90, sent)
	r.set("load.late_ms_p99", late99, sent)
	if late90 > maxLateMs {
		r.Invalid = append(r.Invalid, fmt.Sprintf("load.late_ms_p90 = %.3f ms > %.0f ms: the generator, not the server, set the open-loop latencies", late90, maxLateMs))
	}
	r.set("serve.shed_share", share(shed, sent), sent)
	if shed > 0 {
		r.Invalid = append(r.Invalid, fmt.Sprintf("the servers shed %d ops: the load is mis-sized for this machine", shed))
	}
}

// reportDegradation sets the shares of answers served degraded or
// truncated.
func (s *serving) reportDegradation() {
	s.e.res.set("serve.degraded_share", share(s.q.degraded, s.q.queries), s.q.queries)
	s.e.res.set("serve.truncated_share", share(s.q.truncated, s.q.queries), s.q.queries)
}

// finish stops the fleet and fails the workload on any server error
// line.
func (s *serving) finish() error {
	s.teardown()
	lines, err := s.fl.errorLines()
	if err != nil {
		return err
	}
	s.e.res.check("no server log line at level=ERROR", len(lines) == 0, "%s", strings.Join(lines, "; "))
	return nil
}

// run executes a serving workload: the traced run, or rounds of boot,
// open loop, saturation and output checks.
func (s *serving) run(sp spec) (err error) {
	defer s.fl.stopAll()
	if err := s.place.pinGenerator(); err != nil {
		return err
	}
	defer func() {
		if back := s.place.unpin(); err == nil {
			err = back
		}
	}()
	if s.e.Trace {
		if _, err := sp.boot(); err != nil {
			return err
		}
		return s.traced(sp)
	}
	nOpen, nSat := s.e.scaled(sp.rate*20/rounds), s.e.scaled(sp.fullSatOps/rounds)
	for round := 0; round < rounds; round++ {
		s.teardown()
		took, err := sp.boot()
		if err != nil {
			return err
		}
		s.m.setups = append(s.m.setups, took.Seconds())
		if err := s.timedRound(sp.rate, nOpen, nSat); err != nil {
			return err
		}
		if err := sp.afterRound(); err != nil {
			return err
		}
		if err := s.restartRound(sp); err != nil {
			return err
		}
	}
	s.report()
	return s.finish()
}

// restartRound is a round's kill -9 restarts of the target. A restart
// is a burst of memory-bound work (parse or decode, build the index,
// replay the op log) on the servers' cores, and those cores change
// speed for such work by a third for seconds at a time (see
// memoryProbe), so every restart has a probe before and after it on
// the same cores and is reported as it would have taken on a machine
// that runs the probe in nominalProbe. The faster of the two probes
// counts: a stall of the sandbox that lands on a probe only ever
// lengthens it.
func (s *serving) restartRound(sp spec) error {
	var took, probes []float64
	probe := func() error {
		return s.place.onServers(func() error {
			probes = append(probes, ms(memoryProbe()))
			return nil
		})
	}
	for i := 0; i < restartsPerRound; i++ {
		if err := probe(); err != nil {
			return err
		}
		d, err := s.restartTarget(sp)
		if err != nil {
			return err
		}
		took = append(took, d.Seconds())
	}
	if err := probe(); err != nil {
		return err
	}
	for i, d := range took {
		s.m.restarts = append(s.m.restarts, d*ms(nominalProbe)/min(probes[i], probes[i+1]))
	}
	s.m.rawStarts = append(s.m.rawStarts, took...)
	s.m.probes = append(s.m.probes, probes...)
	return nil
}

// restartTarget kills the process the generator talks to with SIGKILL,
// starts it again with the flags and port it had, and times how long it
// takes to be ready with the state it had.
func (s *serving) restartTarget(sp spec) (time.Duration, error) {
	t0 := time.Now()
	s.target.kill9()
	if err := s.fl.restart(s.target); err != nil {
		return 0, err
	}
	if err := waitReady(s.target, time.Minute); err != nil {
		return 0, err
	}
	if err := sp.restored(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// usage sums the CPU and peak memory of the workload's processes.
func (s *serving) usage() (procUsage, error) {
	var sum procUsage
	for _, p := range s.procs {
		u, err := readUsage(p.pid())
		if err != nil {
			return sum, err
		}
		sum.cpu += u.cpu
		sum.rssPeak += u.rssPeak
	}
	return sum, nil
}

// traced is the serving workloads' traced run: the open phase once
// plain and once with ?debug=1 and client spans, bracketed by readings
// of every server's /metrics and /proc; then the output checks; then,
// for the rows this topology does not exercise, the layer probes.
func (s *serving) traced(sp spec) error {
	r := s.e.res
	if err := s.warmUp(); err != nil {
		return err
	}
	n := s.e.scaled(sp.rate * 20 / 2)
	plainOps, err := s.take(n)
	if err != nil {
		return err
	}
	plainRes, _ := s.gen.open(plainOps, sp.rate)
	tracedOps, err := s.take(n)
	if err != nil {
		return err
	}

	tr := newTrace()
	counted0, err := scrapeAll(s.procs)
	if err != nil {
		return err
	}
	before, err := s.usage()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var side sync.WaitGroup
	if sp.during != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			sp.during(stop)
		}()
	}
	// Every fifth traced op is followed by a null round trip, which
	// meets the servers in the state the ops around it do; the rate
	// rises by as much, so the ops keep theirs.
	var mixed []Op
	for i, op := range tracedOps {
		mixed = append(mixed, op)
		if i%nullEvery == nullEvery-1 {
			mixed = append(mixed, Op{Kind: opNull, Path: nullPath})
		}
	}
	s.gen.traced = true
	mixedRes, start := s.gen.open(mixed, sp.rate*(1+1.0/nullEvery))
	s.gen.traced = false
	var tracedRes, nullRes []opResult
	for i := range mixed {
		if mixed[i].Kind == opNull {
			nullRes = append(nullRes, mixedRes[i])
		} else {
			tracedRes = append(tracedRes, mixedRes[i])
		}
	}
	close(stop)
	side.Wait()
	after, err := s.usage()
	if err != nil {
		return err
	}
	counted1, err := scrapeAll(s.procs)
	if err != nil {
		return err
	}
	by := make(map[*Proc]window, len(s.procs))
	for _, p := range s.procs {
		by[p] = window{counted0[p], counted1[p]}
	}
	transport, err := nullTransport(nullRes, by[s.target])
	if err != nil {
		return err
	}

	// Client spans per op. The server reports its index stages as
	// durations, not positions: they are laid end to end from the instant
	// the request was written.
	base := int64(start.Sub(tr.epoch))
	var answered []covered
	for i := range tracedRes {
		o := &tracedRes[i]
		at := func(d time.Duration) int64 { return base + int64(d) }
		root := tr.add(Span{Name: "op", StartNs: at(o.due), EndNs: at(o.done), Parent: -1, Op: i})
		tr.add(Span{Name: "load.wait", StartNs: at(o.due), EndNs: at(o.sent), Parent: root, Op: i})
		trip := tr.add(Span{Name: "http.roundtrip", StartNs: at(o.sent), EndNs: at(o.done), Parent: root, Op: i})
		if !o.ok {
			continue
		}
		tr.add(Span{Name: "client.send", StartNs: at(o.sent), EndNs: at(o.wrote), Parent: trip, Op: i})
		await := tr.add(Span{Name: "client.await", StartNs: at(o.wrote), EndNs: at(o.firstByte), Parent: trip, Op: i})
		tr.add(Span{Name: "client.read", StartNs: at(o.firstByte), EndNs: at(o.done), Parent: trip, Op: i})
		answered = append(answered, covered{whole: o.done - o.due, client: (o.wrote - o.due) + (o.done - o.firstByte)})
		if tracedOps[i].Kind != opQuery {
			continue
		}
		a, err := parseAnswer(o.body)
		if err != nil {
			return err
		}
		if a.Debug == nil {
			return fmt.Errorf("?debug=1 returned no stage block")
		}
		stage := at(o.wrote)
		for _, st := range a.Debug.Stages {
			tr.add(Span{Name: "index." + st.Stage, StartNs: stage, EndNs: stage + st.Nanos, Parent: await, Op: i, Placed: true})
			stage += st.Nanos
		}
	}

	// Closure: the share of the ops' time that an independent clock
	// accounts for. The harness times the wait for a connection, the
	// send and the read; the target times its own handlers; the null
	// round trips give what the kernel's loopback and net/http's
	// connection handling cost around any handler. None of the three
	// sees the others, so time that hides between them (a queue before
	// the handler's clock starts, say) shows as a closure below 1. The
	// slowest hundredth of the ops is left out: a stall of the sandbox is
	// nothing a layer accounts for.
	sort.Slice(answered, func(i, j int) bool { return answered[i].whole < answered[j].whole })
	kept := answered[:(len(answered)*99+99)/100]
	var client, whole time.Duration
	for _, c := range kept {
		client += c.client
		whole += c.whole
	}
	front := by[s.target]
	handled := front.delta("sparker_http_request_seconds_sum"+routeLabel("/v1/query")) +
		front.delta("sparker_http_request_seconds_sum"+routeLabel("/v1/upsert"))
	perOp := handled/float64(len(answered)) + transport.Seconds()
	closure := (client.Seconds() + perOp*float64(len(kept))) / whole.Seconds()
	r.set("trace.closure_share", closure, len(kept))
	r.set("serve.transport_us", float64(transport)/1e3, len(nullRes))
	// A handful of null round trips says little about the transport: a
	// run as short as the smoke test's reports its closure without being
	// held to the floor.
	if len(nullRes) >= minNullTrips {
		r.check("op closure at least 0.9", closure >= minClosure,
			"the harness's, the target's and the null round trips' clocks cover %.3f of the traced ops' time", closure)
	}

	plain := latenciesMs(plainOps, plainRes, s.primary)
	traced := latenciesMs(tracedOps, tracedRes, s.primary)
	sent := len(plainOps) + len(tracedOps)
	failed := countFailed(plainRes) + countFailed(tracedRes)
	r.Attempted += sent
	r.Failed += failed
	r.set("load.sent", float64(sent), 0)
	r.set("load.ok", float64(sent-failed), 0)
	r.set("load.failed", float64(failed), 0)
	r.set("trace.overhead_share", quantile(traced, 0.5)/quantile(plain, 0.5)-1, len(traced))
	r.set("proc.cpu_ms_per_op", ms(after.cpu-before.cpu)/float64(len(tracedOps)), len(tracedOps))
	r.set("proc.rss_peak_mb", after.rssPeak, len(s.procs))
	late := latenessMs(tracedRes)
	s.reportValidity(quantile(late, 0.9), quantile(late, 0.99), shedCount(plainRes)+shedCount(tracedRes), sent)
	if err := s.score(plainOps, plainRes); err != nil {
		return err
	}
	if err := s.score(tracedOps, tracedRes); err != nil {
		return err
	}
	s.reportDegradation()
	s.liveQueryRows(by, plainOps, plainRes)
	if err := sp.afterRound(); err != nil {
		return err
	}
	if sp.live != nil {
		sp.live(by)
	}

	// The layer probes run once the servers are gone, so that they have
	// the machine to themselves.
	if err := s.finish(); err != nil {
		return err
	}
	if err := s.place.unpin(); err != nil {
		return err
	}
	if err := s.e.addProbes(tr); err != nil {
		return err
	}
	return tr.write(s.e.tracePath())
}

// covered is one traced op: how long it took from its due time, and how
// much of that the harness's own clocks name (the wait for a connection,
// the send, the read).
type covered struct{ whole, client time.Duration }

// nullTransport is what a round trip cost around the handler during the
// traced phase: the null round trips' mean time from request written to
// first response byte (without the slowest hundredth, as for the ops),
// less their handler's own mean as the target counted it.
func nullTransport(res []opResult, target window) (time.Duration, error) {
	if len(res) == 0 { // a phase of fewer than nullEvery ops
		return 0, nil
	}
	if failed := countFailed(res); failed > 0 {
		return 0, fmt.Errorf("%d of %d null round trips failed", failed, len(res))
	}
	await := make([]float64, len(res)) // ms
	for i := range res {
		await[i] = ms(res[i].firstByte - res[i].wrote)
	}
	sort.Float64s(await)
	kept := await[:(len(await)*99+99)/100]
	var sum float64
	for _, v := range kept {
		sum += v
	}
	handler, _ := target.mean("sparker_http_request_seconds", routeLabel("/healthz"))
	return time.Duration((sum/float64(len(kept))/1e3 - handler) * float64(time.Second)), nil
}

// liveQueryRows sets the query path's per-layer rows from what the
// index nodes and the target counted during the traced phase (means per
// node call: a coordinator's query is three), and from the plain
// phase's answers.
func (s *serving) liveQueryRows(by map[*Proc]window, ops []Op, res []opResult) {
	r := s.e.res
	nodes := window{counters{}, counters{}}
	for _, p := range s.nodes {
		for k, v := range by[p].before {
			nodes.before[k] += v
		}
		for k, v := range by[p].after {
			nodes.after[k] += v
		}
	}
	var total float64
	calls := 0
	for st := 0; st < index.NumStages; st++ {
		stage := index.Stage(st).String()
		sec, n := nodes.mean("sparker_query_stage_seconds", `{stage="`+stage+`"}`)
		r.set("index.query."+stage+"_us", sec*1e6, n)
		total += sec * 1e6
		if n > calls {
			calls = n
		}
	}
	r.set("index.query.total_us", total, calls)
	handler, n := nodes.mean("sparker_http_request_seconds", routeLabel("/v1/query"))
	r.set("serve.query.handler_us", handler*1e6, n)
	r.set("serve.query.overhead_us", handler*1e6-total, n)

	var postings, comparisons, bytes, queries int
	for i := range res {
		if !res[i].ok || ops[i].Kind != opQuery {
			continue
		}
		a, err := parseAnswer(res[i].body)
		if err != nil {
			continue // score has already refused the run for it
		}
		queries++
		postings += a.PostingsScanned
		comparisons += a.Comparisons
		bytes += len(res[i].body)
	}
	r.set("index.query.postings_scanned", float64(postings)/float64(queries), queries)
	r.set("index.query.comparisons", float64(comparisons)/float64(queries), queries)
	r.set("index.query.postings_per_comparison", float64(postings)/float64(comparisons), queries)
	r.set("serve.query.response_bytes", float64(bytes)/float64(queries), queries)
}

// readOnlyStream wires a query-only op stream over a fully stored A.
func (s *serving) readOnlyStream() {
	qs := newQueryStream(s.d, s.e.rng)
	s.warm = qs.take(warmOps)
	s.take = func(n int) ([]Op, error) { return qs.take(n), nil }
	s.primary = func(k opKind) bool { return k == opQuery }
	for i := range s.d.A {
		s.present[s.d.A[i].OriginalID] = true
	}
}

// runServeRead is the serve-read workload: one default-flag
// sparker-serve over both CSV files, queried with every B record.
func runServeRead(e *env) error {
	s, err := newServing(e)
	if err != nil {
		return err
	}
	s.readOnlyStream()
	return s.run(spec{
		rate: 500, fullSatOps: 20000,
		boot: func() (time.Duration, error) {
			t0 := time.Now()
			p, err := s.fl.start("serve-read-node", "-a", s.d.PathA, "-b", s.d.PathB)
			if err != nil {
				return 0, err
			}
			if err := waitReady(p, time.Minute); err != nil {
				return 0, err
			}
			s.attach(p, []*Proc{p}, p)
			return time.Since(t0), nil
		},
		afterRound: func() error {
			same, first, err := s.sameAsIndex(true)
			e.res.check("server answers equal in-process index.Resolve", same == sampleOps,
				"%d of %d sampled answers differ (first: query %s)", sampleOps-same, sampleOps, first)
			return err
		},
		// A node without a snapshot comes back by reading the CSVs again.
		restored: func() error {
			st, err := getStats(s.target)
			if err != nil {
				return err
			}
			want := len(s.d.Collection.Profiles)
			e.res.check("every kill -9 restart brings the collection back", st.Profiles == want,
				"%d profiles after a restart, want %d", st.Profiles, want)
			return nil
		},
	})
}

// sameAsIndex asks the target a fixed query sample and counts the
// answers equal to index.Resolve on the same collection in process:
// the matches with their scores and, when whole is set, the candidates
// with their weights. It also returns the first query that differs.
func (s *serving) sameAsIndex(whole bool) (same int, first string, err error) {
	if s.ref == nil {
		if s.ref, err = index.NewFromCollection(s.d.Collection, serveConfig()); err != nil {
			return 0, "", err
		}
	}
	byOrig := map[string]*profile.Profile{}
	for i := range s.d.B {
		byOrig[s.d.B[i].OriginalID] = &s.d.B[i]
	}
	profiles := s.d.Collection.Profiles
	for _, q := range s.warm[:sampleOps] {
		body, err := post(s.target.URL()+q.Path, q.Body)
		if err != nil {
			return 0, "", err
		}
		got, err := parseAnswer(body)
		if err != nil {
			return 0, "", err
		}
		want := s.ref.Resolve(byOrig[q.Key])
		ok := len(got.Matches) == len(want.Matches)
		for i := 0; ok && i < len(want.Matches); i++ {
			ok = got.Matches[i].OriginalID == profiles[want.Matches[i].B].OriginalID &&
				got.Matches[i].Score == want.Matches[i].Score
		}
		if whole {
			ok = ok && len(got.Candidates) == len(want.Query.Candidates)
			for i := 0; ok && i < len(want.Query.Candidates); i++ {
				c := want.Query.Candidates[i]
				ok = got.Candidates[i].OriginalID == profiles[c.ID].OriginalID && got.Candidates[i].Weight == c.Weight
			}
		}
		if ok {
			same++
		} else if first == "" {
			first = q.Key
		}
	}
	return same, first, nil
}

// runClusterRead is the cluster-read workload: three empty shards
// behind a coordinator, the collection bulk-loaded through it, then
// serve-read's query stream.
func runClusterRead(e *env) error {
	s, err := newServing(e)
	if err != nil {
		return err
	}
	s.readOnlyStream()
	var bulkLoaded time.Duration
	var matchShare float64
	return s.run(spec{
		rate: 100, fullSatOps: 6000,
		boot: func() (time.Duration, error) {
			t0 := time.Now()
			var shards []*Proc
			var urls []string
			for i := 0; i < 3; i++ {
				p, err := s.fl.start(fmt.Sprintf("cluster-read-shard%d", i))
				if err != nil {
					return 0, err
				}
				shards = append(shards, p)
				urls = append(urls, p.URL())
			}
			for _, p := range shards {
				if err := waitReady(p, time.Minute); err != nil {
					return 0, err
				}
			}
			coord, err := s.fl.start("cluster-read-coordinator", "-shards", strings.Join(urls, ","))
			if err != nil {
				return 0, err
			}
			if err := waitReady(coord, time.Minute); err != nil {
				return 0, err
			}
			t1 := time.Now()
			err = bulkLoad(s.d, func(path string, body []byte) error {
				_, err := post(coord.URL()+path, body)
				return err
			})
			if err != nil {
				return 0, err
			}
			bulkLoaded = time.Since(t1)
			s.attach(coord, shards, append(shards, coord)...)
			return time.Since(t0), nil
		},
		afterRound: func() error {
			e.res.check("every coordinator answer had all three shards", s.q.clusterShort == 0,
				"%d of %d answers were degraded", s.q.clusterShort, s.q.queries)
			if !e.Trace {
				return nil
			}
			same, _, err := s.sameAsIndex(false)
			matchShare = share(same, sampleOps)
			return err
		},
		// The coordinator holds no state of its own, so its answers are all
		// there is to verify: it is back when it has found its shards
		// again and answered a fixed sample of queries from all three.
		restored: func() error {
			st, err := getStats(s.target)
			if err != nil {
				return err
			}
			whole := 0
			for _, q := range s.warm[:restoredOps] {
				body, err := post(s.target.URL()+q.Path, q.Body)
				if err != nil {
					return err
				}
				a, err := parseAnswer(body)
				if err != nil {
					return err
				}
				if a.Cluster != nil && a.Cluster.Responded == 3 {
					whole++
				}
			}
			e.res.check("every kill -9 restart of the coordinator finds all three shards",
				st.Healthy == 3 && whole == restoredOps,
				"%d shards healthy after a restart, %d of %d answers from all three", st.Healthy, whole, restoredOps)
			return nil
		},
		live: func(by map[*Proc]window) {
			handler, n := by[s.target].mean("sparker_http_request_seconds", routeLabel("/v1/query"))
			// The slowest shard of each query is not told apart from
			// outside; the shard slowest on average stands in for it.
			var slowest float64
			for _, p := range s.nodes {
				if sec, _ := by[p].mean("sparker_http_request_seconds", routeLabel("/v1/query")); sec > slowest {
					slowest = sec
				}
			}
			e.res.set("serve.cluster.handler_us", handler*1e6, n)
			e.res.set("serve.cluster.slowest_shard_us", slowest*1e6, n)
			e.res.set("serve.cluster.fanout_merge_us", (handler-slowest)*1e6, n)
			e.res.set("serve.cluster.cpu_ms_per_op", e.res.Values["proc.cpu_ms_per_op"].Value, n)
			e.res.set("serve.cluster.bulk_load_s", bulkLoaded.Seconds(), 1)
			e.res.set("serve.cluster.degraded_share", share(s.q.clusterShort, s.q.queries), s.q.queries)
			e.res.set("serve.cluster.answer_match_share", matchShare, sampleOps)
		},
	})
}

// runServeMixed is the serve-mixed workload: a durable leader with one
// follower, a stream of queries, inserts and overwrites, and kill -9
// restarts of the leader.
func runServeMixed(e *env) error {
	s, err := newServing(e)
	if err != nil {
		return err
	}
	stream := newMixedStream(s.d, e.rng)
	s.warm = stream.queries.take(warmOps)
	s.take = stream.take
	s.primary = opKind.write
	bootA := filepath.Join(e.work, "a-boot.csv")
	if err := writeCSV(bootA, stream.bootA()); err != nil {
		return err
	}

	var leader, follower *Proc
	var boot *statsBody // the leader's state before any traffic
	var bootstrapped time.Duration
	var acked int64 // what the leader acknowledged in this round: its seq
	var stored int  // and its profile count
	var lags []float64
	var matchShare float64
	round := 0
	return s.run(spec{
		rate: 400, fullSatOps: 24000,
		// Bring-up: leader from B and a third of A, one full snapshot,
		// then a follower bootstrapped from it. Every round starts from
		// the same state in fresh directories.
		boot: func() (time.Duration, error) {
			round++
			dir := filepath.Join(e.work, fmt.Sprintf("round%d", round))
			s.present = map[string]bool{}
			for _, p := range stream.bootA() {
				s.present[p.OriginalID] = true
			}
			s.writes, s.inserts = 0, 0
			stream.rewind()
			t0 := time.Now()
			var err error
			leader, err = s.fl.start("serve-mixed-leader",
				"-a", bootA, "-b", s.d.PathB,
				"-snapshot", filepath.Join(dir, "idx.snap"),
				"-oplog-dir", filepath.Join(dir, "oplog"), "-oplog-fsync", "interval")
			if err != nil {
				return 0, err
			}
			if err := waitReady(leader, time.Minute); err != nil {
				return 0, err
			}
			if _, err := post(leader.URL()+"/v1/snapshot/save", nil); err != nil {
				return 0, err
			}
			t1 := time.Now()
			follower, err = s.fl.start("serve-mixed-follower", "-follow", leader.URL())
			if err != nil {
				return 0, err
			}
			if err := waitReady(follower, time.Minute); err != nil {
				return 0, err
			}
			took := time.Since(t0)
			bootstrapped = time.Since(t1)
			s.attach(leader, []*Proc{leader}, leader, follower)
			boot, err = getStats(leader)
			return took, err
		},
		// Follower lag at 10 Hz: its /v1/stats locks only the follower.
		during: func(stop <-chan struct{}) {
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			sample := func() {
				if st, err := getStats(follower); err == nil && st.Replication != nil {
					lags = append(lags, st.Replication.LagSeconds*1e3)
				}
			}
			for {
				select {
				case <-stop:
					sample() // the shortest phase still gets one
					return
				case <-tick.C:
					sample()
				}
			}
		},
		// What the leader acknowledged is what it and its follower must
		// hold: after catch-up, and after every restart.
		afterRound: func() error {
			acked, stored = boot.Seq+int64(s.writes), boot.Profiles+s.inserts
			caught, err := awaitFollower(follower, acked)
			if err != nil {
				return err
			}
			e.res.set("live.replication.catchup_ms", ms(caught), 1)
			same := 0
			for _, q := range s.warm[:sampleOps] {
				a, err := post(leader.URL()+q.Path, q.Body)
				if err != nil {
					return err
				}
				b, err := post(follower.URL()+q.Path, q.Body)
				if err != nil {
					return err
				}
				if bytes.Equal(a, b) {
					same++
				}
			}
			matchShare = share(same, sampleOps)
			e.res.check("follower answers byte-identical to leader", same == sampleOps, "%d of %d sampled answers differ", sampleOps-same, sampleOps)
			return nil
		},
		// A durable leader comes back from its snapshot and op log.
		restored: func() error {
			st, err := getStats(leader)
			if err != nil {
				return err
			}
			e.res.check("every kill -9 restart recovers seq and profile count", st.Seq == acked && st.Profiles == stored,
				"seq %d profiles %d, want seq %d profiles %d", st.Seq, st.Profiles, acked, stored)
			// A follower that had to bootstrap again would show here.
			if st, err := getStats(follower); err == nil && st.Replication != nil {
				e.res.set("live.replication.resyncs", float64(st.Replication.Resyncs), 0)
			}
			return nil
		},
		live: func(by map[*Proc]window) {
			w := by[leader]
			w.setMeanUs(e.res, "index.upsert_us", "sparker_upsert_seconds", "")
			w.setMeanUs(e.res, "index.wal.append_us", "sparker_wal_append_seconds", "")
			w.setMeanUs(e.res, "serve.upsert.handler_us", "sparker_http_request_seconds", routeLabel("/v1/upsert"))
			appended := w.delta("sparker_wal_appends_total")
			e.res.set("index.wal.bytes_per_op", w.delta("sparker_wal_bytes")/appended, int(appended))
			e.res.set("index.wal.syncs", w.delta("sparker_wal_syncs_total"), 0)
			// The one full save of the bring-up, as the leader timed it.
			e.res.set("index.persist.save_s", w.before["sparker_snapshot_save_seconds_sum"], int(w.before["sparker_snapshot_save_seconds_count"]))
			e.res.set("index.persist.snapshot_bytes", w.before["sparker_snapshot_bytes"], 0)
			sort.Float64s(lags)
			e.res.set("serve.replication.bootstrap_s", bootstrapped.Seconds(), 1)
			e.res.set("serve.replication.lag_ms_p50", quantile(lags, 0.5), len(lags))
			e.res.set("serve.replication.lag_ms_max", quantile(lags, 1), len(lags))
			e.res.set("serve.replication.resyncs", by[follower].after["sparker_replication_resyncs_total"], 0)
			e.res.set("serve.replication.answer_match_share", matchShare, sampleOps)
		},
	})
}

// awaitFollower waits until the follower has applied seq and returns
// how long that took.
func awaitFollower(follower *Proc, seq int64) (time.Duration, error) {
	t0 := time.Now()
	for time.Since(t0) < 30*time.Second {
		st, err := getStats(follower)
		if err != nil {
			return 0, err
		}
		if st.Replication != nil && st.Replication.AppliedSeq >= seq {
			return time.Since(t0), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("follower did not reach seq %d within 30 s", seq)
}
