package index

// Per-request resolution budgets: the serving-path analogue of
// progressive meta-blocking (internal/metablocking/progressive.go).
// Candidates are already ranked best-first by weigh, so bounding the
// work of one resolution — by wall-clock deadline, by comparison count,
// or both — yields the best-first *prefix* of the full answer instead
// of an all-or-nothing answer under unbounded latency. A loaded server
// tightens budgets and keeps answering; an unlimited budget is the
// exact pre-budget behaviour, bitwise-identical results and identical
// allocations (every budget check is gated on a non-zero field).

import (
	"time"

	"sparker/internal/obs"
)

// Budget bounds the work one resolution may spend. The zero value is
// unlimited and leaves the query path exactly as without budgets.
type Budget struct {
	// MaxComparisons caps the candidates Resolve scores (0 = unlimited).
	// Candidates are scored in rank order, so a cap keeps the
	// highest-weighted ones — the best-first prefix.
	MaxComparisons int
	// Deadline is a monotonic obs.Now() timestamp (nanoseconds) after
	// which the resolution stops early at the next stage or comparison
	// boundary (0 = no deadline). Build it with DeadlineIn; it is
	// process-local and must not be persisted or sent over the wire.
	Deadline int64
}

// DeadlineIn returns a Budget deadline d from now on the monotonic
// clock the query path checks against. Non-positive durations produce
// an already-expired deadline (every stage truncates immediately).
func DeadlineIn(d time.Duration) int64 { return obs.Now() + int64(d) }

// expired reports whether the deadline has passed. Free when no
// deadline is set: the clock is only read behind the non-zero check.
func (b Budget) expired() bool { return b.Deadline != 0 && obs.Now() >= b.Deadline }

// ResolveOptions carries the per-request overrides of one resolution.
// The zero value means unlimited work.
type ResolveOptions struct {
	// Budget bounds this resolution's work (see Budget).
	Budget Budget
}

// truncate records a budget trip. The first trip wins: TruncatedStage
// names the stage that was running when the budget first ran out.
func (r *QueryResult) truncate(s Stage) {
	if !r.Truncated {
		r.Truncated = true
		r.TruncatedStage = s.String()
	}
}

// weighCheckInterval is how many candidates the weigh loop ranks
// between deadline checks: coarse enough that the clock reads vanish
// against the ranking work, fine enough that weigh overshoots a
// deadline by microseconds, not milliseconds.
const weighCheckInterval = 64
