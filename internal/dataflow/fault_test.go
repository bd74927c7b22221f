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

	r := Parallelize(ctx, intsUpTo(1000), 16)
	add := func(a, b int) int { return a + b }
	sum, err := Aggregate(Map(r, func(x int) int { return x }), func() int { return 0 }, add, add)
	if err != nil {
		t.Fatalf("job failed despite retries: %v", err)
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

	r := Parallelize(ctx, intsUpTo(10), 2)
	_, err := r.Collect()
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

	r := Parallelize(ctx, intsUpTo(100), 8)
	n, err := r.Count()
	if err != nil {
		t.Fatalf("job should succeed once cap is reached: %v", err)
	}
	if n != 100 {
		t.Fatalf("count=%d", n)
	}
	if got := ctx.Metrics().TasksFailed; got != 4 {
		t.Fatalf("injected failures=%d, want exactly 4", got)
	}
}

func TestShuffleSurvivesFaults(t *testing.T) {
	ctx := NewContext(
		WithParallelism(4),
		WithMaxTaskAttempts(6),
		WithFaultInjection(0.25, 11, 30),
	)
	defer ctx.Close()

	var pairs []KV[int, int]
	for i := 0; i < 500; i++ {
		pairs = append(pairs, KV[int, int]{Key: i % 13, Value: 1})
	}
	r := Parallelize(ctx, pairs, 8)
	counts, err := CollectAsMap(ReduceByKey(r, func(a, b int) int { return a + b }, 4))
	if err != nil {
		t.Fatalf("shuffle job failed: %v", err)
	}
	total := 0
	for _, v := range counts {
		total += v
	}
	if total != 500 {
		t.Fatalf("records lost or duplicated under faults: total=%d", total)
	}
}
