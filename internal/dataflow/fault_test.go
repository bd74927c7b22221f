package dataflow

import (
	"strings"
	"testing"
)

func TestFaultInjectionRecovers(t *testing.T) {
	// A 30% attempt-failure rate with 3 attempts per task makes every task
	// overwhelmingly likely to finish; the cap makes it certain eventually.
	ctx := NewContext(
		WithParallelism(4),
		WithMaxTaskAttempts(5),
		WithFaultInjection(0.3, 7, 20),
	)
	defer ctx.Close()

	partials, err := MapRanges(ctx, 1000, 16, sumRanges(intsUpTo(1000)))
	if err != nil {
		t.Fatalf("job failed despite retries: %v", err)
	}
	sum := 0
	for _, s := range partials {
		sum += s
	}
	if sum != 999*1000/2 {
		t.Fatalf("sum=%d: retried tasks must produce identical results", sum)
	}
	m := ctx.Metrics()
	if m.TasksFailed == 0 {
		t.Fatal("fault injector never fired; test is vacuous")
	}
	if m.TasksRetried == 0 {
		t.Fatal("no retries recorded")
	}
}

func TestFaultInjectionExhaustsAttempts(t *testing.T) {
	// 100% failure rate with no cap: the job must fail with a task error.
	ctx := NewContext(
		WithParallelism(2),
		WithMaxTaskAttempts(2),
		WithFaultInjection(1.0, 1, 0),
	)
	defer ctx.Close()

	_, err := MapRanges(ctx, 10, 2, copyRanges(intsUpTo(10)))
	if err == nil {
		t.Fatal("want failure when every attempt is killed")
	}
	if !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := ctx.Metrics().TasksFailed; got < 2 {
		t.Fatalf("failed tasks=%d", got)
	}
}

func TestFaultCapLimitsInjection(t *testing.T) {
	ctx := NewContext(
		WithParallelism(2),
		WithMaxTaskAttempts(10),
		WithFaultInjection(1.0, 3, 4), // fail only the first 4 attempts overall
	)
	defer ctx.Close()

	got, err := MapRanges(ctx, 100, 8, copyRanges(intsUpTo(100)))
	if err != nil {
		t.Fatalf("job should succeed once cap is reached: %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("count=%d", len(got))
	}
	if got := ctx.Metrics().TasksFailed; got != 4 {
		t.Fatalf("injected failures=%d, want exactly 4", got)
	}
}

// TestShuffleSurvivesFaults runs a keyed exchange the way the pipeline's
// drivers do — each task combines its range's records per key, the
// driver meters the combined records and merges them — under a fault
// injector: no record is lost or counted twice.
func TestShuffleSurvivesFaults(t *testing.T) {
	ctx := NewContext(
		WithParallelism(4),
		WithMaxTaskAttempts(6),
		WithFaultInjection(0.25, 11, 30),
	)
	defer ctx.Close()

	type record struct{ key, count int }
	combined, err := MapRanges(ctx, 500, 8, func(lo, hi int) ([]record, error) {
		counts := map[int]int{}
		for i := lo; i < hi; i++ {
			counts[i%13]++
		}
		out := make([]record, 0, len(counts))
		for k, c := range counts {
			out = append(out, record{k, c})
		}
		return out, nil
	})
	if err != nil {
		t.Fatalf("shuffle job failed: %v", err)
	}
	ctx.AddShuffleRecords(len(combined))
	counts := map[int]int{}
	for _, r := range combined {
		counts[r.key] += r.count
	}
	total := 0
	for _, v := range counts {
		total += v
	}
	if total != 500 || len(counts) != 13 {
		t.Fatalf("records lost or duplicated under faults: total=%d keys=%d", total, len(counts))
	}
	m := ctx.Metrics()
	if m.TasksFailed == 0 {
		t.Fatal("fault injector never fired; test is vacuous")
	}
	if m.ShuffleRecords != int64(len(combined)) || len(combined) > 8*13 {
		t.Fatalf("shuffled %d records for %d combined ones (at most %d)", m.ShuffleRecords, len(combined), 8*13)
	}
}
