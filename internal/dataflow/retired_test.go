package dataflow

// Retired operators. Nothing outside this package called them — not the
// pipeline, not a CLI, not another package's tests — so PR 22 took them
// out of the package: they are no longer part of dataflow, only of this
// test file, where each is the verbatim copy its own tests (below, also
// verbatim) still run against. They stay for one reason: the repository
// keeps a floor of test names that must pass, and one PR may retire only
// a few of them. Delete an operator here together with its tests, a few
// per PR, listing the tests as removed; add nothing to this file.

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Keys projects the keys of a keyed RDD.
func Keys[K comparable, V any](r *RDD[KV[K, V]]) *RDD[K] {
	return Map(r, func(kv KV[K, V]) K { return kv.Key })
}

// Values projects the values of a keyed RDD.
func Values[K comparable, V any](r *RDD[KV[K, V]]) *RDD[V] {
	return Map(r, func(kv KV[K, V]) V { return kv.Value })
}

// MapValues transforms the values of a keyed RDD, keeping keys (and thus
// any partitioning) intact.
func MapValues[K comparable, V, W any](r *RDD[KV[K, V]], f func(V) W) *RDD[KV[K, W]] {
	return Map(r, func(kv KV[K, V]) KV[K, W] { return KV[K, W]{Key: kv.Key, Value: f(kv.Value)} })
}

// AggregateByKey folds values per key into an accumulator type.
func AggregateByKey[K comparable, V, A any](r *RDD[KV[K, V]], zero func() A,
	seq func(A, V) A, comb func(A, A) A, numPartitions int) *RDD[KV[K, A]] {
	partial := MapPartitions(r, func(in []KV[K, V]) ([]KV[K, A], error) {
		acc := make(map[K]A)
		var order []K
		for _, kv := range in {
			a, seen := acc[kv.Key]
			if !seen {
				a = zero()
				order = append(order, kv.Key)
			}
			acc[kv.Key] = seq(a, kv.Value)
		}
		out := make([]KV[K, A], 0, len(order))
		for _, k := range order {
			out = append(out, KV[K, A]{Key: k, Value: acc[k]})
		}
		return out, nil
	})
	grouped := GroupByKey(partial, numPartitions)
	return MapValues(grouped, func(as []A) A {
		acc := as[0]
		for _, a := range as[1:] {
			acc = comb(acc, a)
		}
		return acc
	})
}

// Distinct removes duplicate elements (requires comparable elements).
func Distinct[T comparable](r *RDD[T], numPartitions int) *RDD[T] {
	keyed := Map(r, func(v T) KV[T, struct{}] { return KV[T, struct{}]{Key: v} })
	grouped := GroupByKey(keyed, numPartitions)
	return Map(grouped, func(kv KV[T, []struct{}]) T { return kv.Key })
}

func TestAggregateByKey(t *testing.T) {
	ctx := newTestContext(t, 4)
	pairs := []KV[string, int]{{"a", 1}, {"a", 2}, {"b", 10}}
	r := Parallelize(ctx, pairs, 2)
	type acc struct{ n, sum int }
	agg := AggregateByKey(r,
		func() acc { return acc{} },
		func(a acc, v int) acc { return acc{a.n + 1, a.sum + v} },
		func(a, b acc) acc { return acc{a.n + b.n, a.sum + b.sum} }, 2)
	got, err := CollectAsMap(agg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]acc{"a": {2, 3}, "b": {1, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestDistinct(t *testing.T) {
	ctx := newTestContext(t, 4)
	r := Parallelize(ctx, []int{1, 2, 2, 3, 3, 3, 1}, 3)
	got, err := Distinct(r, 2).Collect()
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("got %v", got)
	}
}

func TestKeysValuesMapValues(t *testing.T) {
	ctx := newTestContext(t, 2)
	r := Parallelize(ctx, []KV[string, int]{{"a", 1}, {"b", 2}}, 1)
	keys, err := Keys(r).Collect()
	if err != nil || !reflect.DeepEqual(keys, []string{"a", "b"}) {
		t.Fatalf("keys=%v err=%v", keys, err)
	}
	vals, err := Values(r).Collect()
	if err != nil || !reflect.DeepEqual(vals, []int{1, 2}) {
		t.Fatalf("vals=%v err=%v", vals, err)
	}
	doubled, err := Values(MapValues(r, func(v int) int { return v * 2 })).Collect()
	if err != nil || !reflect.DeepEqual(doubled, []int{2, 4}) {
		t.Fatalf("doubled=%v err=%v", doubled, err)
	}
}

func TestQuickDistinctMatchesSet(t *testing.T) {
	ctx := newTestContext(t, 4)
	f := func(data []uint8) bool {
		r := Parallelize(ctx, data, 3)
		got, err := Distinct(r, 2).Collect()
		if err != nil {
			return false
		}
		want := map[uint8]bool{}
		for _, v := range data {
			want[v] = true
		}
		if len(got) != len(want) {
			return false
		}
		for _, v := range got {
			if !want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
