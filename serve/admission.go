package serve

// Admission control and graceful degradation: the front door of the
// serving tier. A bounded semaphore caps in-flight work on the
// expensive routes (/v1/query, /v1/upsert, /v1/bulk); an over-limit
// request waits at most Options.ShedWait for a slot (bounded by its own
// context) and is otherwise shed with 429 (gate full, no wait
// configured) or 503 (wait expired) plus Retry-After — the server
// answers fast instead of queueing without bound. Admitted queries
// carry a degradation level derived from gate occupancy; the ladder
// (degrade below) tightens their budget and comparison cap so a loaded
// server keeps answering with cheaper, truncated best-first results.
// The gate and the ladder are the same on a single node and on the
// shard coordinator: both reach them through frontend.handleGated.

import (
	"context"
	"net/http"
	"time"

	"sparker/internal/obs"
)

// admission is the concurrency gate: a buffered-channel semaphore plus
// the shed accounting. Nil disables admission entirely (the pre-gate
// behaviour).
type admission struct {
	sem      chan struct{}
	shedWait time.Duration

	waiting     obs.Gauge
	shedFull    obs.Counter
	shedTimeout obs.Counter
}

func newAdmission(maxInFlight int, shedWait time.Duration) *admission {
	if maxInFlight <= 0 {
		return nil
	}
	return &admission{sem: make(chan struct{}, maxInFlight), shedWait: shedWait}
}

// inFlight returns the currently admitted request count (0 on a nil gate).
func (a *admission) inFlight() int {
	if a == nil {
		return 0
	}
	return len(a.sem)
}

// capacity returns the configured in-flight bound (0 on a nil gate).
func (a *admission) capacity() int {
	if a == nil {
		return 0
	}
	return cap(a.sem)
}

// saturated reports a gate with no free slot — the "shedding hard"
// signal /readyz drains replicas on. A nil gate is never saturated.
func (a *admission) saturated() bool {
	return a != nil && len(a.sem) == cap(a.sem)
}

// acquire claims a slot, waiting at most shedWait while ctx lives. It
// returns the release func and the degradation level on admission, or
// a non-zero HTTP status (429 or 503) when the request is shed.
func (a *admission) acquire(ctx context.Context) (release func(), level, status int) {
	if a == nil {
		return func() {}, 0, 0
	}
	release = func() { <-a.sem }
	// The level reads occupancy *before* self: the load this request
	// found on arrival, not the load it created.
	found := len(a.sem)
	select {
	case a.sem <- struct{}{}:
		return release, levelFor(found, cap(a.sem), false), 0
	default:
	}
	if a.shedWait <= 0 {
		a.shedFull.Inc()
		return nil, 0, http.StatusTooManyRequests
	}
	a.waiting.Add(1)
	defer a.waiting.Add(-1)
	t := time.NewTimer(a.shedWait)
	defer t.Stop()
	select {
	case a.sem <- struct{}{}:
		return release, levelFor(cap(a.sem), cap(a.sem), true), 0
	case <-t.C:
		a.shedTimeout.Inc()
		return nil, 0, http.StatusServiceUnavailable
	case <-ctx.Done():
		// The client gave up first; the status is moot but the slot
		// must not leak, so shed like a timeout.
		a.shedTimeout.Inc()
		return nil, 0, http.StatusServiceUnavailable
	}
}

// levelFor maps gate occupancy onto the degradation ladder: 0 below
// half-full (healthy), 1 at half, 2 at three-quarters, 3 when the
// request had to wait for a slot (the gate was full on arrival).
func levelFor(occupied, capacity int, waited bool) int {
	switch {
	case waited:
		return 3
	case 4*occupied >= 3*capacity:
		return 2
	case 2*occupied >= capacity:
		return 1
	}
	return 0
}

// The degradation ladder's budget schedule. A request that carries no
// budget at all gets one imposed under pressure — degradation must
// bound work even for clients that never asked for a bound.
const (
	// degradedBudgetCap is the widest wall-clock budget a degraded
	// query may spend; each level above 1 halves it.
	degradedBudgetCap = 200 * time.Millisecond
	// degradedBudgetFloor is the narrowest budget degradation imposes —
	// tight, but never so tight that every answer is empty.
	degradedBudgetFloor = 5 * time.Millisecond
)

// degradedMaxComparisons caps scored candidates per level (level 1..3);
// level 0 leaves the request's own cap untouched.
var degradedMaxComparisons = [4]int{0, 1024, 256, 64}

// degrade is the degradation ladder, the only one: it tightens a
// query's knobs per the admission level, after the server's default
// budget has been applied (see frontend.throttle), and is used verbatim
// by the single node (before the knobs become resolve options) and the
// coordinator (before the per-shard budget split). Each level halves the
// wall-clock budget from degradedBudgetCap and caps comparisons tighter.
// Both an absent budget and an explicit unlimited one (0) get the cap
// imposed. degradedBudgetFloor bounds only what degradation imposes: a
// request that arrived with a budget never leaves with a looser one.
func degrade(p *QueryParams, level int) {
	if level <= 0 {
		return
	}
	arrived := time.Duration(p.BudgetMS * float64(time.Millisecond))
	budget := arrived
	if budget == 0 || budget > degradedBudgetCap {
		budget = degradedBudgetCap
	}
	budget = max(budget>>uint(level-1), degradedBudgetFloor)
	if arrived > 0 {
		budget = min(budget, arrived)
	}
	p.BudgetMS, p.BudgetSet = float64(budget)/float64(time.Millisecond), true
	if lim := degradedMaxComparisons[level]; p.MaxComparisons == 0 || p.MaxComparisons > lim {
		p.MaxComparisons, p.MaxComparisonsSet = lim, true
	}
}
