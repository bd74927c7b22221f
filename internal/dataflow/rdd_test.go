package dataflow

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func newTestContext(t testing.TB, workers int) *Context {
	t.Helper()
	ctx := NewContext(WithParallelism(workers))
	t.Cleanup(ctx.Close)
	return ctx
}

func intsUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	ctx := newTestContext(t, 4)
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		data := intsUpTo(n)
		rdd := Parallelize(ctx, data, 8)
		got, err := rdd.Collect()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: got %d elements", n, len(got))
		}
		if n > 0 && !reflect.DeepEqual(got, data) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestParallelizePartitionCountClamped(t *testing.T) {
	ctx := newTestContext(t, 4)
	r := Parallelize(ctx, []int{1, 2, 3}, 100)
	if r.NumPartitions() > 3 {
		t.Fatalf("partitions=%d, want <=3", r.NumPartitions())
	}
	empty := Parallelize[int](ctx, nil, 5)
	if empty.NumPartitions() != 1 {
		t.Fatalf("empty partitions=%d, want 1", empty.NumPartitions())
	}
}

func TestMapFilterPipeline(t *testing.T) {
	ctx := newTestContext(t, 4)
	r := Parallelize(ctx, intsUpTo(100), 7)
	sq := Map(r, func(x int) int { return x * x })
	even := Filter(sq, func(x int) bool { return x%2 == 0 })
	got, err := even.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := 0; i < 100; i++ {
		if (i*i)%2 == 0 {
			want = append(want, i*i)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got[:5], want[:5])
	}
}

func TestFlatMap(t *testing.T) {
	ctx := newTestContext(t, 2)
	r := Parallelize(ctx, []string{"a b", "c", ""}, 2)
	words := FlatMap(r, func(s string) []string {
		if s == "" {
			return nil
		}
		var out []string
		start := 0
		for i := 0; i <= len(s); i++ {
			if i == len(s) || s[i] == ' ' {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
		return out
	})
	got, err := words.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestAggregate(t *testing.T) {
	ctx := newTestContext(t, 4)
	r := Parallelize(ctx, intsUpTo(50), 5)
	type stats struct {
		n   int
		sum int
	}
	got, err := Aggregate(r,
		func() stats { return stats{} },
		func(a stats, v int) stats { return stats{a.n + 1, a.sum + v} },
		func(a, b stats) stats { return stats{a.n + b.n, a.sum + b.sum} })
	if err != nil {
		t.Fatal(err)
	}
	if got.n != 50 || got.sum != 1225 {
		t.Fatalf("got %+v", got)
	}
}

func TestPersistComputesOnce(t *testing.T) {
	ctx := newTestContext(t, 4)
	var calls atomic.Int64
	r := Parallelize(ctx, intsUpTo(10), 2)
	counted := Map(r, func(x int) int {
		calls.Add(1)
		return x
	}).Persist()
	if _, err := counted.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, err := counted.Count(); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 10 {
		t.Fatalf("map ran %d times, want 10 (cached)", got)
	}
}

func TestErrorPropagatesFromTask(t *testing.T) {
	ctx := newTestContext(t, 2)
	r := Parallelize(ctx, intsUpTo(10), 2)
	boom := errors.New("boom")
	bad := MapPartitions(r, func(in []int) ([]int, error) {
		if len(in) > 0 && in[0] == 0 {
			return nil, boom
		}
		return in, nil
	})
	_, err := bad.Collect()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err=%v, want wrapped boom", err)
	}
}

func TestPanicInTaskBecomesError(t *testing.T) {
	ctx := newTestContext(t, 2)
	r := Parallelize(ctx, intsUpTo(4), 2)
	bad := Map(r, func(x int) int {
		if x == 2 {
			panic("kaboom")
		}
		return x
	})
	if _, err := bad.Collect(); err == nil {
		t.Fatal("want panic converted to error")
	}
}

func TestResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	var reference []int
	for _, workers := range []int{1, 2, 4, 8} {
		ctx := NewContext(WithParallelism(workers))
		r := Parallelize(ctx, intsUpTo(500), workers*2)
		sq := Map(r, func(x int) int { return x * 3 })
		odd := Filter(sq, func(x int) bool { return x%2 == 1 })
		got, err := odd.Collect()
		ctx.Close()
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = got
			continue
		}
		if !reflect.DeepEqual(got, reference) {
			t.Fatalf("workers=%d produced different output", workers)
		}
	}
}

func TestQuickMapIdentityPreservesData(t *testing.T) {
	ctx := newTestContext(t, 4)
	f := func(data []int32, parts uint8) bool {
		np := int(parts%7) + 1
		r := Parallelize(ctx, data, np)
		got, err := Map(r, func(x int32) int32 { return x }).Collect()
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountMatchesLen(t *testing.T) {
	ctx := newTestContext(t, 3)
	f := func(data []string) bool {
		r := Parallelize(ctx, data, 4)
		n, err := r.Count()
		return err == nil && n == int64(len(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestContextClosedRejectsJobs(t *testing.T) {
	ctx := NewContext(WithParallelism(2))
	r := Parallelize(ctx, intsUpTo(4), 2)
	ctx.Close()
	if _, err := r.Collect(); err == nil {
		t.Fatal("want error after Close")
	}
}

func TestMetricsCountTasks(t *testing.T) {
	ctx := newTestContext(t, 2)
	r := Parallelize(ctx, intsUpTo(16), 4)
	if _, err := Map(r, func(x int) int { return x }).Collect(); err != nil {
		t.Fatal(err)
	}
	m := ctx.Metrics()
	if m.TasksLaunched != 4 {
		t.Fatalf("tasks=%d want 4", m.TasksLaunched)
	}
	if m.JobsRun != 1 || m.StagesRun != 1 {
		t.Fatalf("jobs=%d stages=%d", m.JobsRun, m.StagesRun)
	}
	ctx.ResetMetrics()
	if ctx.Metrics().TasksLaunched != 0 {
		t.Fatal("reset failed")
	}
}

func ExampleMap() {
	ctx := NewContext(WithParallelism(2))
	defer ctx.Close()
	r := Parallelize(ctx, []int{1, 2, 3}, 2)
	doubled, _ := Map(r, func(x int) int { return 2 * x }).Collect()
	fmt.Println(doubled)
	// Output: [2 4 6]
}
