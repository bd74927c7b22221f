package dataflow

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func sortKVs[V any](kvs []KV[string, V]) {
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
}

func TestReduceByKeyWordCount(t *testing.T) {
	ctx := newTestContext(t, 4)
	words := []string{"a", "b", "a", "c", "b", "a"}
	r := Parallelize(ctx, words, 3)
	pairs := Map(r, func(w string) KV[string, int] { return KV[string, int]{Key: w, Value: 1} })
	counts := ReduceByKey(pairs, func(a, b int) int { return a + b }, 4)
	got, err := counts.Collect()
	if err != nil {
		t.Fatal(err)
	}
	sortKVs(got)
	want := []KV[string, int]{{"a", 3}, {"b", 2}, {"c", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestGroupByKeyGroupsAllValues(t *testing.T) {
	ctx := newTestContext(t, 4)
	pairs := []KV[string, int]{{"x", 1}, {"y", 2}, {"x", 3}, {"x", 5}}
	r := Parallelize(ctx, pairs, 2)
	grouped, err := GroupByKey(r, 3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	m := map[string][]int{}
	for _, kv := range grouped {
		vs := append([]int(nil), kv.Value...)
		sort.Ints(vs)
		m[kv.Key] = vs
	}
	want := map[string][]int{"x": {1, 3, 5}, "y": {2}}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("got %v", m)
	}
}

func TestGroupByKeyEachKeyInOnePartition(t *testing.T) {
	ctx := newTestContext(t, 4)
	var pairs []KV[int, int]
	for i := 0; i < 200; i++ {
		pairs = append(pairs, KV[int, int]{Key: i % 10, Value: i})
	}
	r := Parallelize(ctx, pairs, 8)
	grouped := GroupByKey(r, 4)
	perPart, err := collectPartitions(grouped)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for p, part := range perPart {
		for _, kv := range part {
			if prev, ok := seen[kv.Key]; ok && prev != p {
				t.Fatalf("key %d appears in partitions %d and %d", kv.Key, prev, p)
			}
			seen[kv.Key] = p
			if len(kv.Value) != 20 {
				t.Fatalf("key %d has %d values, want 20", kv.Key, len(kv.Value))
			}
		}
	}
	if len(seen) != 10 {
		t.Fatalf("saw %d keys", len(seen))
	}
}

func TestPartitionByPlacesEqualKeysTogether(t *testing.T) {
	ctx := newTestContext(t, 4)
	var pairs []KV[string, int]
	for i := 0; i < 100; i++ {
		pairs = append(pairs, KV[string, int]{Key: string(rune('a' + i%5)), Value: i})
	}
	r := partitionBy(Parallelize(ctx, pairs, 7), 3)
	perPart, err := collectPartitions(r)
	if err != nil {
		t.Fatal(err)
	}
	where := map[string]int{}
	total := 0
	for p, part := range perPart {
		total += len(part)
		for _, kv := range part {
			if prev, ok := where[kv.Key]; ok && prev != p {
				t.Fatalf("key %q split across partitions", kv.Key)
			}
			where[kv.Key] = p
		}
	}
	if total != 100 {
		t.Fatalf("records lost in shuffle: %d", total)
	}
}

func TestShuffleMetricsRecorded(t *testing.T) {
	ctx := newTestContext(t, 2)
	r := Parallelize(ctx, []KV[string, int]{{"a", 1}, {"b", 2}, {"a", 3}}, 2)
	if _, err := GroupByKey(r, 2).Collect(); err != nil {
		t.Fatal(err)
	}
	if ctx.Metrics().ShuffleRecords == 0 {
		t.Fatal("shuffle records not counted")
	}
}

func TestReduceByKeyMapSideCombineShufflesFewerRecords(t *testing.T) {
	// 1000 records with 4 keys in 2 partitions: map-side combine must shuffle
	// at most 8 records, while GroupByKey shuffles all 1000.
	var pairs []KV[int, int]
	for i := 0; i < 1000; i++ {
		pairs = append(pairs, KV[int, int]{Key: i % 4, Value: 1})
	}

	ctx1 := NewContext(WithParallelism(2))
	r1 := Parallelize(ctx1, pairs, 2)
	if _, err := ReduceByKey(r1, func(a, b int) int { return a + b }, 2).Collect(); err != nil {
		t.Fatal(err)
	}
	reduceShuffle := ctx1.Metrics().ShuffleRecords
	ctx1.Close()

	ctx2 := NewContext(WithParallelism(2))
	r2 := Parallelize(ctx2, pairs, 2)
	if _, err := GroupByKey(r2, 2).Collect(); err != nil {
		t.Fatal(err)
	}
	groupShuffle := ctx2.Metrics().ShuffleRecords
	ctx2.Close()

	if reduceShuffle > 8 {
		t.Fatalf("reduceByKey shuffled %d records, want <=8", reduceShuffle)
	}
	if groupShuffle != 1000 {
		t.Fatalf("groupByKey shuffled %d records, want 1000", groupShuffle)
	}
}

func TestQuickReduceByKeyMatchesSequential(t *testing.T) {
	ctx := newTestContext(t, 4)
	f := func(keys []uint8, vals []int8) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		pairs := make([]KV[uint8, int64], n)
		want := map[uint8]int64{}
		for i := 0; i < n; i++ {
			pairs[i] = KV[uint8, int64]{Key: keys[i], Value: int64(vals[i])}
			want[keys[i]] += int64(vals[i])
		}
		r := Parallelize(ctx, pairs, 4)
		got, err := CollectAsMap(ReduceByKey(r, func(a, b int64) int64 { return a + b }, 3))
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastVisibleInTasks(t *testing.T) {
	ctx := newTestContext(t, 4)
	lookup := NewBroadcast(ctx, map[int]string{1: "one", 2: "two"})
	r := Parallelize(ctx, []int{1, 2, 1}, 2)
	named, err := Map(r, func(x int) string { return lookup.Value()[x] }).Collect()
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
