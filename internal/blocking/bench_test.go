package blocking

import (
	"runtime"
	"sync"
	"testing"

	"sparker/internal/datagen"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// Batch blocking pipeline benchmarks, flat/parallel vs the retained map
// references of reference_test.go, on the same ~10k-profile synthetic
// collection the serving benchmarks use. These feed the CI hot-path
// artifact (BENCH_hotpath.json); the "reference" sub-benchmarks keep the
// before numbers honest across commits.

var (
	batchOnce sync.Once
	batchCol  *profile.Collection
)

func batchBenchCollection(b *testing.B) *profile.Collection {
	b.Helper()
	batchOnce.Do(func() {
		cfg := datagen.AbtBuy()
		cfg.CoreEntities = 4500
		cfg.AOnly = 400
		cfg.BDup = 400
		batchCol = datagen.Generate(cfg).Collection
	})
	return batchCol
}

func BenchmarkTokenBlocking(b *testing.B) {
	c := batchBenchCollection(b)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TokenBlocking(c, Options{})
		}
	})
	b.Run("flat-1worker", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TokenBlocking(c, Options{})
		}
	})
	// The blocking stage alone, from a corpus the pass has already built.
	b.Run("corpus", func(b *testing.B) {
		cp := tokenize.NewCorpus(c, tokenize.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			TokenBlockingCorpus(cp, Options{})
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refTokenBlocking(c, Options{})
		}
	})
}

func BenchmarkBlockFilter(b *testing.B) {
	c := batchBenchCollection(b)
	purged := PurgeBySize(TokenBlocking(c, Options{}), 0.5)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Filter(purged, 0.8)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refFilter(purged, 0.8)
		}
	})
}

func BenchmarkBuildIndex(b *testing.B) {
	c := batchBenchCollection(b)
	filtered := Filter(PurgeBySize(TokenBlocking(c, Options{}), 0.5), 0.8)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BuildIndex(filtered)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refBuildIndex(filtered)
		}
	})
}

func BenchmarkDistinctPairs(b *testing.B) {
	c := batchBenchCollection(b)
	filtered := Filter(PurgeBySize(TokenBlocking(c, Options{}), 0.5), 0.8)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			filtered.DistinctPairs()
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refDistinctPairs(filtered)
		}
	})
}

// BenchmarkBatchBlocking times the whole batch build end to end
// (TokenBlocking → Purge → Filter → BuildIndex → DistinctPairs), the
// pipeline a Session or sparker-serve boot reruns from scratch.
func BenchmarkBatchBlocking(b *testing.B) {
	c := batchBenchCollection(b)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			filtered := Filter(PurgeBySize(TokenBlocking(c, Options{}), 0.5), 0.8)
			BuildIndex(filtered)
			filtered.DistinctPairs()
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			filtered := refFilter(PurgeBySize(refTokenBlocking(c, Options{}), 0.5), 0.8)
			refBuildIndex(filtered)
			refDistinctPairs(filtered)
		}
	})
}
