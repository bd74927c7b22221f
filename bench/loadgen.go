package bench

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Conns is the generator's connection count: min(nproc, 4) keep-alive
// connections from one process, each with one worker.
func Conns() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// opResult is what the generator keeps of one op. Times are offsets
// from the phase start.
type opResult struct {
	due      time.Duration // when the schedule wanted the op sent (closed loop: when it was taken)
	released time.Duration // when the dispatcher handed it to a worker
	sent     time.Duration // when a worker started the request
	// wrote and firstByte are set on traced phases only: when the request
	// had been written to the connection, and when the first byte of the
	// response arrived.
	wrote, firstByte time.Duration
	done             time.Duration // when the response body was fully read
	status           int           // HTTP status, 0 on a transport error
	ok               bool          // 2xx and no transport error
	body             []byte        // response body of an ok op
}

// latency is timed from the instant the op was due, so time spent
// waiting for the generator or a free connection counts.
func (r *opResult) latency() time.Duration { return r.done - r.due }

// generator drives one target over a fixed set of connections.
type generator struct {
	base   string
	client *http.Client
	conns  int
	// traced makes every op ask for the server's stage block ("&debug=1";
	// every op path already carries a query string) and record when its
	// request was written and its response began.
	traced bool
}

func newGenerator(base string, conns int) *generator {
	return &generator{
		base:  base,
		conns: conns,
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
		},
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// do sends one op and reads the whole response.
func (g *generator) do(op *Op, start time.Time, r *opResult) {
	r.sent = time.Since(start)
	url := g.base + op.Path
	if g.traced {
		url += "&debug=1"
	}
	method := http.MethodPost
	if op.Kind == opNull {
		method = http.MethodGet
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(op.Body))
	if err != nil {
		return // a malformed URL: the op counts as failed
	}
	req.Header.Set("Content-Type", "application/json")
	if g.traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { r.wrote = time.Since(start) },
			GotFirstResponseByte: func() { r.firstByte = time.Since(start) },
		}))
	}
	resp, err := g.client.Do(req)
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.ok = err == nil && resp.StatusCode/100 == 2
	}
	r.done = time.Since(start)
}

// open runs the ops open loop: one dispatcher releases op i at
// start + i/rate whatever the workers are doing, and the workers drain
// the released ops over the generator's connections. It returns the
// results and the instant the schedule began.
func (g *generator) open(ops []Op, rate float64) ([]opResult, time.Time) {
	res := make([]opResult, len(ops))
	released := make(chan int, len(ops)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range released {
				g.do(&ops[i], start, &res[i])
			}
		}()
	}
	interval := float64(time.Second) / rate
	for i := range ops {
		res[i].due = time.Duration(float64(i) * interval)
		sleepUntil(start.Add(res[i].due))
		res[i].released = time.Since(start)
		released <- i
	}
	close(released)
	wg.Wait()
	return res, start
}

// sleepUntil blocks in nanosleep(2) until t. time.Sleep would park the
// goroutine on the runtime's timers, which an idle process serves from
// epoll_wait at millisecond granularity: a 2 ms schedule would run
// about 1 ms late on every op.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}

// closed runs a fixed op count closed loop: each connection sends its
// next op as soon as the previous one completed. It returns the wall
// clock the whole count took.
func (g *generator) closed(ops []Op) ([]opResult, time.Duration) {
	res := make([]opResult, len(ops))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(ops) {
					return
				}
				res[i].due = time.Since(start)
				res[i].released = res[i].due
				g.do(&ops[i], start, &res[i])
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// quantile returns the q-quantile of sorted values by the nearest-rank
// rule, NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latenciesMs collects the sorted latencies (ms, from due time) of the
// ok ops keep selects.
func latenciesMs(ops []Op, res []opResult, keep func(opKind) bool) []float64 {
	var out []float64
	for i := range res {
		if res[i].ok && keep(ops[i].Kind) {
			out = append(out, ms(res[i].latency()))
		}
	}
	sort.Float64s(out)
	return out
}

// latenessMs is how late the dispatcher released each op (sorted, ms).
func latenessMs(res []opResult) []float64 {
	out := make([]float64, len(res))
	for i := range res {
		out[i] = ms(res[i].released - res[i].due)
	}
	sort.Float64s(out)
	return out
}

func countFailed(res []opResult) int {
	n := 0
	for i := range res {
		if !res[i].ok {
			n++
		}
	}
	return n
}
