package dataflow

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"sparker/internal/kernel"
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

// copyRanges is the identity job over data: each task returns its range.
func copyRanges[T any](data []T) func(lo, hi int) ([]T, error) {
	return func(lo, hi int) ([]T, error) { return data[lo:hi], nil }
}

// sumRanges is a job whose tasks each emit their range's sum.
func sumRanges(data []int) func(lo, hi int) ([]int, error) {
	return func(lo, hi int) ([]int, error) {
		s := 0
		for _, x := range data[lo:hi] {
			s += x
		}
		return []int{s}, nil
	}
}

func TestMapRangesRoundTrip(t *testing.T) {
	ctx := newTestContext(t, 4)
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		data := intsUpTo(n)
		got, err := MapRanges(ctx, n, 8, copyRanges(data))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, data) {
			t.Fatalf("n=%d: round trip mismatch: got %d elements", n, len(got))
		}
	}
}

// Any data, any parts (the default included): the identity job returns
// the data unchanged.
func TestQuickMapIdentityPreservesData(t *testing.T) {
	ctx := newTestContext(t, 4)
	f := func(data []int32, parts int8) bool {
		got, err := MapRanges(ctx, len(data), int(parts), copyRanges(data))
		return err == nil && (len(data) == 0 || reflect.DeepEqual(got, data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A job that emits one record per input element outputs exactly as many
// records as there are elements, for any data and parts.
func TestQuickCountMatchesLen(t *testing.T) {
	ctx := newTestContext(t, 3)
	f := func(data []string, parts int8) bool {
		got, err := MapRanges(ctx, len(data), int(parts), func(lo, hi int) ([]int, error) {
			out := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				out = append(out, i)
			}
			return out, nil
		})
		return err == nil && len(got) == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMapRangesPartsClamped pins the range cut: parts is clamped to
// [1, n], a non-positive parts means one range per executor, the ranges
// are kernel.ForRanges's, and each one is exactly one task.
func TestMapRangesPartsClamped(t *testing.T) {
	const workers = 4
	ctx := newTestContext(t, workers)
	for _, tc := range []struct{ n, parts, want int }{
		{3, 100, 3}, {0, 5, 1}, {0, 0, 1}, {10, 0, workers}, {10, -1, workers},
		{2, 0, 2}, {10, 3, 3}, {1, 1, 1}, {1000, 7, 7},
	} {
		ctx.ResetMetrics()
		got, err := MapRanges(ctx, tc.n, tc.parts, func(lo, hi int) ([][2]int, error) {
			return [][2]int{{lo, hi}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := [][2]int{{0, 0}}
		if tc.n > 0 {
			want = make([][2]int, tc.want)
			kernel.ForRanges(tc.n, tc.want, func(r, lo, hi int) { want[r] = [2]int{lo, hi} })
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d parts=%d: ranges %v, want %v", tc.n, tc.parts, got, want)
		}
		if m := ctx.Metrics(); m.TasksLaunched != int64(tc.want) || m.JobsRun != 1 || m.StagesRun != 1 {
			t.Errorf("n=%d parts=%d: %d tasks in %d jobs and %d stages, want %d in 1 and 1",
				tc.n, tc.parts, m.TasksLaunched, m.JobsRun, m.StagesRun, tc.want)
		}
	}
}

func TestErrorPropagatesFromTask(t *testing.T) {
	ctx := newTestContext(t, 2)
	data := intsUpTo(10)
	boom := errors.New("boom")
	_, err := MapRanges(ctx, len(data), 2, func(lo, hi int) ([]int, error) {
		if lo == 0 {
			return nil, boom
		}
		return data[lo:hi], nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err=%v, want wrapped boom", err)
	}
}

func TestPanicInTaskBecomesError(t *testing.T) {
	ctx := newTestContext(t, 2)
	data := intsUpTo(4)
	_, err := MapRanges(ctx, len(data), 2, func(lo, hi int) ([]int, error) {
		for _, x := range data[lo:hi] {
			if x == 2 {
				panic("kaboom")
			}
		}
		return data[lo:hi], nil
	})
	if err == nil {
		t.Fatal("want panic converted to error")
	}
}

func TestResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	data := intsUpTo(500)
	oddTriples := func(lo, hi int) ([]int, error) {
		var out []int
		for _, x := range data[lo:hi] {
			if x*3%2 == 1 {
				out = append(out, x*3)
			}
		}
		return out, nil
	}
	var reference []int
	for _, workers := range []int{1, 2, 4, 8} {
		ctx := NewContext(WithParallelism(workers))
		got, err := MapRanges(ctx, len(data), workers*2, oddTriples)
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

func TestContextClosedRejectsJobs(t *testing.T) {
	ctx := NewContext(WithParallelism(2))
	ctx.Close()
	if _, err := MapRanges(ctx, 4, 2, copyRanges(intsUpTo(4))); err == nil {
		t.Fatal("want error after Close")
	}
}

// TestCloseDuringJobDoesNotPanic closes the context while a job still
// has 63 tasks to run: the job finishes on its own executors and the
// next job is refused.
func TestCloseDuringJobDoesNotPanic(t *testing.T) {
	ctx := NewContext(WithParallelism(1))
	data := intsUpTo(64)
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var got []int
	var err error
	go func() {
		defer close(done)
		got, err = MapRanges(ctx, len(data), len(data), func(lo, hi int) ([]int, error) {
			if lo == 0 {
				close(started)
				<-release
			}
			return data[lo:hi], nil
		})
	}()
	<-started
	ctx.Close()
	close(release)
	<-done
	if err != nil || !reflect.DeepEqual(got, data) {
		t.Fatalf("job running at Close: %d records, err %v; want all %d", len(got), err, len(data))
	}
	if _, err := MapRanges(ctx, len(data), 1, copyRanges(data)); err == nil {
		t.Fatal("want the job after Close refused")
	}
}

func TestMetricsCountTasks(t *testing.T) {
	ctx := newTestContext(t, 2)
	if _, err := MapRanges(ctx, 16, 4, copyRanges(intsUpTo(16))); err != nil {
		t.Fatal(err)
	}
	m := ctx.Metrics()
	if m.TasksLaunched != 4 {
		t.Fatalf("tasks=%d want 4", m.TasksLaunched)
	}
	if m.JobsRun != 1 || m.StagesRun != 1 {
		t.Fatalf("jobs=%d stages=%d", m.JobsRun, m.StagesRun)
	}
	if m.RecordsProcessed != 16 || m.ShuffleRecords != 0 {
		t.Fatalf("records processed=%d shuffled=%d, want 16 and 0", m.RecordsProcessed, m.ShuffleRecords)
	}
	ctx.ResetMetrics()
	if ctx.Metrics().TasksLaunched != 0 {
		t.Fatal("reset failed")
	}
}

// TestShuffleMetricsRecorded checks the meter: a job moves no record
// through a shuffle unless its driver says so, and what it says adds up.
func TestShuffleMetricsRecorded(t *testing.T) {
	ctx := newTestContext(t, 2)
	partials, err := MapRanges(ctx, 10, 2, sumRanges(intsUpTo(10)))
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Metrics().ShuffleRecords; got != 0 {
		t.Fatalf("a job shuffled %d records on its own", got)
	}
	ctx.AddShuffleRecords(len(partials))
	ctx.AddShuffleRecords(3)
	if got := ctx.Metrics().ShuffleRecords; got != 5 {
		t.Fatalf("shuffle records=%d, want 5", got)
	}
}

func TestBroadcastVisibleInTasks(t *testing.T) {
	ctx := newTestContext(t, 4)
	lookup := NewBroadcast(ctx, map[int]string{1: "one", 2: "two"})
	data := []int{1, 2, 1}
	named, err := MapRanges(ctx, len(data), 2, func(lo, hi int) ([]string, error) {
		var out []string
		for _, x := range data[lo:hi] {
			out = append(out, lookup.Value()[x])
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(named, []string{"one", "two", "one"}) {
		t.Fatalf("got %v", named)
	}
	if ctx.Metrics().BroadcastsBuilt != 1 {
		t.Fatal("broadcast not counted")
	}
}

func ExampleMapRanges() {
	ctx := NewContext(WithParallelism(2))
	defer ctx.Close()
	data := []int{1, 2, 3}
	doubled, _ := MapRanges(ctx, len(data), 2, func(lo, hi int) ([]int, error) {
		out := make([]int, 0, hi-lo)
		for _, x := range data[lo:hi] {
			out = append(out, 2*x)
		}
		return out, nil
	})
	fmt.Println(doubled)
	// Output: [2 4 6]
}
