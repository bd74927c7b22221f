// Package obs is the dependency-free, allocation-free metrics core of
// the serving path: atomic counters and gauges, fixed-bucket log2
// latency histograms (bucket index via bits.Len64 — one shift-free
// instruction, no float math), and a stage clock that slices one
// request into contiguous per-stage durations with a single monotonic
// read per boundary. Nothing here allocates after construction, takes a
// lock, or imports anything heavier than sync/atomic, so the query hot
// path can record into it without moving its allocs/op — the same
// discipline as the flat neighbourhood kernel, applied to telemetry.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (last snapshot size, queue
// depth, ...).
type Gauge struct{ v atomic.Int64 }

// Store sets the value.
func (g *Gauge) Store(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// NumBuckets is the fixed bucket count of Histogram: bucket 0 holds
// exact zeros, bucket i holds values in [2^(i-1), 2^i), and the last
// bucket absorbs everything at or above 2^(NumBuckets-2) — about 2.4
// hours when the unit is nanoseconds, far past any duration the serving
// path can produce.
const NumBuckets = 44

// bucketOf maps a value onto its log2 bucket. Negative values (a clock
// stepping backwards) clamp to bucket 0 rather than corrupting the
// index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(v))
	if idx >= NumBuckets {
		idx = NumBuckets - 1
	}
	return idx
}

// Histogram is a fixed-bucket log2 histogram: concurrent Observe calls
// are three atomic adds, no locks, no allocation. The zero value is
// ready to use. Log2 buckets trade fine resolution for a universally
// safe layout — every positive int64 lands somewhere, and latency
// analysis cares about orders of magnitude, not microsecond edges.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot reads the histogram's current state. Concurrent writers may
// land between the bucket reads, so the snapshot is only approximately
// consistent — exact once writers quiesce, which is what tests and
// scrapes rely on.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     int64
}

// BucketUpper returns the inclusive upper bound of bucket i (the
// Prometheus `le` value): 0 for bucket 0, 2^i - 1 for the rest, +Inf
// for the final overflow bucket.
func BucketUpper(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i) - 1)
}

// Quantile estimates the q-quantile (q in [0, 1]) as the upper bound of
// the bucket holding the q·Count-th observation — an overestimate by at
// most 2x, the log2 resolution. Returns 0 on an empty histogram.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= target {
			if i >= NumBuckets-1 {
				// The overflow bucket has no finite upper bound; the mean of
				// what landed there is the least-wrong single number.
				return float64(s.Sum) / float64(s.Count)
			}
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// epoch anchors Now: time.Since on a monotonic base compiles down to one
// nanotime read and never allocates.
var epoch = time.Now()

// Now returns monotonic nanoseconds since process start — the timestamp
// currency of every duration in this package.
func Now() int64 { return int64(time.Since(epoch)) }

// StageClock slices one request into contiguous per-stage durations:
// Start opens the window and each Tick charges the time since the
// previous boundary to one stage slot, so N stages cost N+1 monotonic
// reads total. A clock that was never started ticks as a no-op — the
// hot path carries one branch, not a nil check per call site, when
// metrics are disabled. StageClock is a plain value (stack-allocated at
// the call site), the per-query analogue of the pooled pair
// accumulator: reused storage, zero steady-state allocation.
type StageClock struct {
	last    int64
	running bool
}

// Start opens the timing window.
func (c *StageClock) Start() {
	c.running = true
	c.last = Now()
}

// Tick adds the time since the previous boundary to nanos[stage] and
// advances the boundary. No-op on a clock that was never started.
func (c *StageClock) Tick(nanos []int64, stage int) {
	if !c.running {
		return
	}
	now := Now()
	nanos[stage] += now - c.last
	c.last = now
}
