package sparker_test

// One benchmark per table/figure of the paper (experiments E1–E9, see
// the internal/experiments package doc and its section banners), plus
// the design-choice ablations and micro-benchmarks of the hot paths
// (README "Performance"). cmd/sparker-bench prints the experiment
// tables; these benchmarks time the same code paths under testing.B so
// that
//
//	go test -bench=. -benchmem
//
// tracks the cost of every experiment.

import (
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sparker"
	"sparker/internal/blocking"
	"sparker/internal/clustering"
	"sparker/internal/dataflow"
	"sparker/internal/datagen"
	"sparker/internal/experiments"
	"sparker/internal/index"
	"sparker/internal/looseschema"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/obs"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

var (
	benchOnce sync.Once
	benchData *experiments.Dataset
)

// benchDataset memoises the default SynthAbtBuy benchmark across benches.
func benchDataset(b *testing.B) *experiments.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		d, err := experiments.LoadSynthAbtBuy(datagen.AbtBuy())
		if err != nil {
			b.Fatal(err)
		}
		benchData = d
	})
	return benchData
}

// BenchmarkE1Figure1Toy regenerates Figure 1(c).
func BenchmarkE1Figure1Toy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		edges := experiments.Figure1Toy()
		if len(edges) != 6 {
			b.Fatalf("edges: %d", len(edges))
		}
	}
}

// BenchmarkE2Figure2Toy regenerates Figure 2(c).
func BenchmarkE2Figure2Toy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		edges := experiments.Figure2Toy()
		retained := 0
		for _, e := range edges {
			if e.Retained {
				retained++
			}
		}
		if retained != 2 {
			b.Fatalf("retained: %d", retained)
		}
	}
}

// BenchmarkE3ThresholdSweep regenerates the Figure 6(a,b) sweep.
func BenchmarkE3ThresholdSweep(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.ThresholdSweep(d, []float64{1.0, 0.3})
		if rows[1].Comparisons >= rows[0].Comparisons {
			b.Fatal("loose schema did not reduce comparisons")
		}
	}
}

// BenchmarkE4ManualEdit regenerates the Figure 6(c,d) edit.
func BenchmarkE4ManualEdit(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ManualEdit(d)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.NewlyLost) == 0 {
			b.Fatal("split lost nothing")
		}
	}
}

// BenchmarkE5EntropyMetaBlocking regenerates Figure 6(e).
func BenchmarkE5EntropyMetaBlocking(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.EntropyMetaBlocking(d)
		if rows[2].Candidates >= rows[0].Candidates {
			b.Fatal("meta-blocking did not reduce candidates")
		}
	}
}

// BenchmarkE6Scalability sweeps executor counts over the distributed
// blocker + broadcast meta-blocker.
func BenchmarkE6Scalability(b *testing.B) {
	d := benchDataset(b)
	part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	opts := blocking.Options{Clustering: part}
	for _, executors := range []int{1, 2, 4, 8} {
		b.Run(benchName("executors", executors), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := dataflow.NewContext(dataflow.WithParallelism(executors))
				raw, err := blocking.DistributedTokenBlocking(ctx, d.Collection, opts, 2*executors)
				if err != nil {
					b.Fatal(err)
				}
				filtered := blocking.Filter(blocking.PurgeBySize(raw, 0.5), 0.8)
				idx := blocking.BuildIndex(filtered)
				if _, err := metablocking.RunDistributed(ctx, idx, metablocking.Options{
					Scheme: metablocking.CBS, Pruning: metablocking.BlastPruning, Entropy: part,
				}, 2*executors); err != nil {
					b.Fatal(err)
				}
				ctx.Close()
			}
		})
	}
}

// BenchmarkE7BroadcastVsNaive compares the two distributed meta-blocking
// plans.
func BenchmarkE7BroadcastVsNaive(b *testing.B) {
	d := benchDataset(b)
	part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	opts := blocking.Options{Clustering: part}
	filtered := blocking.Filter(blocking.PurgeBySize(blocking.TokenBlocking(d.Collection, opts), 0.5), 0.8)
	idx := blocking.BuildIndex(filtered)
	mo := metablocking.Options{Scheme: metablocking.CBS, Pruning: metablocking.WEP}

	b.Run("broadcast-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := dataflow.NewContext(dataflow.WithParallelism(4))
			if _, err := metablocking.RunDistributed(ctx, idx, mo, 8); err != nil {
				b.Fatal(err)
			}
			ctx.Close()
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := dataflow.NewContext(dataflow.WithParallelism(4))
			if _, err := metablocking.RunNaiveDistributed(ctx, idx, mo, 8); err != nil {
				b.Fatal(err)
			}
			ctx.Close()
		}
	})
}

// BenchmarkE8EndToEnd times the full default pipeline.
func BenchmarkE8EndToEnd(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EndToEnd(d, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8EndToEndScaled2 times one sequential Resolve alone (no
// evaluation) on the twice-scaled benchmark, the collection the
// batch-resolve workload of the end-to-end harness runs; its allocs/op
// and B/op are the pass's whole memory bill.
func BenchmarkE8EndToEndScaled2(b *testing.B) {
	c := datagen.Generate(datagen.AbtBuy().Scaled(2)).Collection
	pipeline := sparker.NewPipeline(sparker.DefaultConfig(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Resolve(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Sampling times the debug-sample construction.
func BenchmarkE9Sampling(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.SamplingExperiment(d, []int{20}, 10)
		if rows[0].MatchingPairs == 0 {
			b.Fatal("sample lost all matches")
		}
	}
}

// BenchmarkE10Progressive times the progressive schedulers (full
// schedule construction).
func BenchmarkE10Progressive(b *testing.B) {
	d := benchDataset(b)
	part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	filtered := blocking.Filter(blocking.PurgeBySize(
		blocking.TokenBlocking(d.Collection, blocking.Options{Clustering: part}), 0.5), 0.8)
	idx := blocking.BuildIndex(filtered)
	mo := metablocking.Options{Scheme: metablocking.ARCS, Entropy: part}
	for _, s := range []metablocking.ScheduleStrategy{metablocking.GlobalTop, metablocking.ProfileScheduling} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				metablocking.Schedule(idx, mo, s, 0)
			}
		})
	}
}

// BenchmarkE11Bibliographic times the end-to-end pipeline on the second
// benchmark family.
func BenchmarkE11Bibliographic(b *testing.B) {
	bib, err := experiments.LoadBibliographic(datagen.BibDefault())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EndToEnd(bib, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSchemes times meta-blocking per weight scheme
// (Blast pruning, entropy on), the experiments.AblationSchemes table.
func BenchmarkAblationSchemes(b *testing.B) {
	d := benchDataset(b)
	part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	filtered := blocking.Filter(blocking.PurgeBySize(
		blocking.TokenBlocking(d.Collection, blocking.Options{Clustering: part}), 0.5), 0.8)
	idx := blocking.BuildIndex(filtered)
	for _, s := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.EJS, metablocking.ARCS} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				metablocking.Run(idx, metablocking.Options{Scheme: s, Pruning: metablocking.BlastPruning, Entropy: part})
			}
		})
	}
}

// BenchmarkAblationPruning times meta-blocking per pruning rule.
func BenchmarkAblationPruning(b *testing.B) {
	d := benchDataset(b)
	part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	filtered := blocking.Filter(blocking.PurgeBySize(
		blocking.TokenBlocking(d.Collection, blocking.Options{Clustering: part}), 0.5), 0.8)
	idx := blocking.BuildIndex(filtered)
	for _, p := range []metablocking.Pruning{metablocking.WEP, metablocking.WNP, metablocking.CNP, metablocking.BlastPruning} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				metablocking.Run(idx, metablocking.Options{Scheme: metablocking.CBS, Pruning: p, Entropy: part})
			}
		})
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkMetablockingSequential times the in-process flat-kernel
// meta-blocker, Run, per weight scheme (Blast pruning, entropy on). Run
// maps each pass over one range per GOMAXPROCS worker, so this times it
// on GOMAXPROCS workers; the name predates that and is kept so the CI
// gate still finds its baseline row. Together with BenchmarkIndexQuery it
// feeds the CI hot-path artifact (BENCH_hotpath.json); allocs/op is the
// number the flat neighbourhood kernel is accountable for.
func BenchmarkMetablockingSequential(b *testing.B) {
	d := benchDataset(b)
	part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	filtered := blocking.Filter(blocking.PurgeBySize(
		blocking.TokenBlocking(d.Collection, blocking.Options{Clustering: part}), 0.5), 0.8)
	idx := blocking.BuildIndex(filtered)
	for _, s := range []metablocking.Scheme{metablocking.CBS, metablocking.JS, metablocking.EJS} {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				metablocking.Run(idx, metablocking.Options{Scheme: s, Pruning: metablocking.BlastPruning, Entropy: part})
			}
		})
	}
}

// BenchmarkMetablockingDistributed times the broadcast-join meta-blocker
// with the per-task pooled scratches.
func BenchmarkMetablockingDistributed(b *testing.B) {
	d := benchDataset(b)
	part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	filtered := blocking.Filter(blocking.PurgeBySize(
		blocking.TokenBlocking(d.Collection, blocking.Options{Clustering: part}), 0.5), 0.8)
	idx := blocking.BuildIndex(filtered)
	ctx := dataflow.NewContext(dataflow.WithParallelism(4))
	defer ctx.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metablocking.RunDistributed(ctx, idx, metablocking.Options{
			Scheme: metablocking.CBS, Pruning: metablocking.WNP, Entropy: part,
		}, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenBlocking times block construction, tokenisation included.
// The flat-vs-reference comparison lives in internal/blocking's
// BenchmarkTokenBlocking/BenchmarkBatchBlocking (same CI artifact).
func BenchmarkTokenBlocking(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocking.TokenBlocking(d.Collection, blocking.Options{})
	}
}

// BenchmarkBlockPurgeFilter times purging + CSR filtering.
func BenchmarkBlockPurgeFilter(b *testing.B) {
	d := benchDataset(b)
	raw := blocking.TokenBlocking(d.Collection, blocking.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocking.Filter(blocking.PurgeBySize(raw, 0.5), 0.8)
	}
}

// BenchmarkAttributePartitioning times the LSH loose-schema generator.
func BenchmarkAttributePartitioning(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	}
}

// singleP runs the rest of a single-goroutine benchmark on one P and
// returns the undo. The tokenizer workspace is leased from a sync.Pool,
// whose fast slot is per P: every migration of the benchmark goroutine
// is a pool miss that re-interns the whole vocabulary, which moves
// allocs/op by tens of percent from run to run and past the CI gate.
func singleP() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// BenchmarkMatching times candidate scoring with Jaccard: one
// preparation of the collection plus a merge per candidate pair.
func BenchmarkMatching(b *testing.B) {
	defer singleP()()
	d := benchDataset(b)
	cfg := sparker.DefaultConfig()
	res, err := sparker.NewPipeline(cfg, nil).RunBlocker(d.Collection)
	if err != nil {
		b.Fatal(err)
	}
	measure := matching.JaccardMeasure(tokenize.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.MatchPairs(d.Collection, res.Candidates, measure, 0.3)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(res.Candidates)), "ns/pair")
}

// BenchmarkMatchingPrepare times the preparation alone (a corpus of the
// collection, then each profile's sorted distinct token IDs): the fixed
// cost BenchmarkMatching amortises over its candidate pairs.
func BenchmarkMatchingPrepare(b *testing.B) {
	defer singleP()()
	d := benchDataset(b)
	measure := matching.JaccardMeasure(tokenize.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure.Prepare(d.Collection)
	}
}

// BenchmarkConnectedComponents times the sequential clusterer.
func BenchmarkConnectedComponents(b *testing.B) {
	d := benchDataset(b)
	cfg := sparker.DefaultConfig()
	pipeline := sparker.NewPipeline(cfg, nil)
	res, err := pipeline.RunBlocker(d.Collection)
	if err != nil {
		b.Fatal(err)
	}
	matches, err := pipeline.RunMatcher(d.Collection, res.Candidates)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clustering.ConnectedComponents(matches)
	}
}

// --- online index benchmarks (the serving workload) ---

var (
	idxBenchOnce sync.Once
	idxBenchCol  *profile.Collection
)

// indexBenchCollection memoises a ~10k-profile synthetic collection for
// the serving benchmarks.
func indexBenchCollection(b *testing.B) *profile.Collection {
	b.Helper()
	idxBenchOnce.Do(func() {
		cfg := datagen.AbtBuy()
		cfg.CoreEntities = 4500
		cfg.AOnly = 400
		cfg.BDup = 400
		idxBenchCol = datagen.Generate(cfg).Collection
	})
	return idxBenchCol
}

// BenchmarkIndexQuery times concurrent point lookups against the online
// index per shard count. The reported comparisons/op and postings/op
// metrics show the per-query work staying bounded by the candidate
// blocks, orders of magnitude below the collection size.
func BenchmarkIndexQuery(b *testing.B) {
	c := indexBenchCollection(b)
	for _, shards := range []int{1, 4, 16} {
		cfg := index.DefaultConfig()
		cfg.Shards = shards
		idx, err := index.NewFromCollection(c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("shards", shards), func(b *testing.B) {
			var comparisons, postings, next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1)) % c.Size()
					r := idx.Resolve(c.Get(profile.ID(i)))
					comparisons.Add(int64(r.Comparisons))
					postings.Add(int64(r.Query.PostingsScanned))
				}
			})
			b.ReportMetric(float64(comparisons.Load())/float64(b.N), "comparisons/op")
			b.ReportMetric(float64(postings.Load())/float64(b.N), "postings/op")
		})
	}
}

// BenchmarkIndexQueryBare is BenchmarkIndexQuery at 16 shards with the
// metrics layer disabled (Config.DisableMetrics). The delta against
// BenchmarkIndexQuery/shards-16 is the full cost of per-stage
// instrumentation — it should be nanoseconds of monotonic reads and
// atomic adds per query, and exactly zero extra allocs/op.
func BenchmarkIndexQueryBare(b *testing.B) {
	c := indexBenchCollection(b)
	cfg := index.DefaultConfig()
	cfg.Shards = 16
	cfg.DisableMetrics = true
	idx, err := index.NewFromCollection(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) % c.Size()
			idx.Resolve(c.Get(profile.ID(i)))
		}
	})
}

// BenchmarkIndexQueryBudget times budgeted resolution against the
// budget=∞ baseline at 16 shards. The "unlimited" case runs the exact
// pre-budget path (zero-value Budget adds only dead branches — ns/op
// and allocs/op must match BenchmarkIndexQuery/shards-16); the capped
// cases show resolution cost dropping with MaxComparisons, the lever
// the serving tier's degradation ladder pulls under load.
func BenchmarkIndexQueryBudget(b *testing.B) {
	c := indexBenchCollection(b)
	cfg := index.DefaultConfig()
	cfg.Shards = 16
	idx, err := index.NewFromCollection(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opts index.ResolveOptions
	}{
		{"unlimited", index.ResolveOptions{}},
		{"cap-4", index.ResolveOptions{Budget: index.Budget{MaxComparisons: 4}}},
		{"cap-1", index.ResolveOptions{Budget: index.Budget{MaxComparisons: 1}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var comparisons, next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1)) % c.Size()
					r := idx.ResolveWithOptions(c.Get(profile.ID(i)), bc.opts)
					comparisons.Add(int64(r.Comparisons))
				}
			})
			b.ReportMetric(float64(comparisons.Load())/float64(b.N), "comparisons/op")
		})
	}
}

// BenchmarkObsHistogram times the hot-path cost of one histogram
// observation under full contention — every goroutine hammering the
// same histogram, the worst case for the atomic bucket counters. The
// bar is single-digit nanoseconds and zero allocs.
func BenchmarkObsHistogram(b *testing.B) {
	var h obs.Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = (v * 2654435761) % (1 << 30) // cycle across buckets
		}
	})
	if h.Snapshot().Count == 0 {
		b.Fatal("no observations recorded")
	}
}

// BenchmarkIndexUpsert times incremental replacement upserts (constant
// index size) per shard count.
func BenchmarkIndexUpsert(b *testing.B) {
	c := indexBenchCollection(b)
	for _, shards := range []int{1, 4, 16} {
		b.Run(benchName("shards", shards), func(b *testing.B) {
			cfg := index.DefaultConfig()
			cfg.Shards = shards
			idx, err := index.NewFromCollection(c, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Same (source, original ID): exercises the replace path,
				// keeping the index size constant across iterations.
				if _, _, err := idx.Upsert(c.Profiles[i%c.Size()]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexSave times writing a durable snapshot of the ~10k
// profile serving index (encode + fsync + atomic rename); together with
// BenchmarkIndexLoad it puts the cost of a warm restart into the CI
// hot-path artifact (BENCH_hotpath.json).
func BenchmarkIndexSave(b *testing.B) {
	c := indexBenchCollection(b)
	idx, err := index.NewFromCollection(c, index.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.snap")
	b.ReportAllocs()
	b.ResetTimer()
	var st index.PersistState
	for i := 0; i < b.N; i++ {
		if st, err = idx.Save(path); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Bytes), "snapshot_bytes")
}

// BenchmarkIndexBuild times NewFromCollection over the serving benchmark
// collection: the index a sparker-serve node builds from its input files
// at a cold start, where BenchmarkIndexLoad is the restart from a
// snapshot. heap_B/profile is the live heap the built index holds.
func BenchmarkIndexBuild(b *testing.B) {
	c := indexBenchCollection(b)
	cfg := index.DefaultConfig()
	build := func() *index.Index {
		x, err := index.NewFromCollection(c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if x.Size() != c.Size() {
			b.Fatalf("built %d profiles, want %d", x.Size(), c.Size())
		}
		return x
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
	reportHeapPerProfile(b, build)
}

// reportHeapPerProfile reports, as heap_B/profile, the live heap one
// index made by build holds per indexed profile: the heap with the index
// alive, less the heap before it was made, each read after two GCs (the
// second frees what the first left in sync.Pool victim caches). Called
// after the timed loop, it builds one extra index with the timer stopped.
func reportHeapPerProfile(b *testing.B, build func() *index.Index) {
	b.StopTimer()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	b.ReportMetric(float64(live)/float64(x.Size()), "heap_B/profile")
	runtime.KeepAlive(x)
}

// BenchmarkIndexLoad times restoring a fully queryable index from the
// snapshot — the work a sparker-serve restart pays instead of reading
// its input files: a decode of the profile records plus the build
// BenchmarkIndexBuild times. heap_B/profile is the live heap the
// restored index holds, the snapshot-sized string its decoded strings
// share included.
func BenchmarkIndexLoad(b *testing.B) {
	c := indexBenchCollection(b)
	cfg := index.DefaultConfig()
	idx, err := index.NewFromCollection(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.snap")
	if _, err := idx.Save(path); err != nil {
		b.Fatal(err)
	}
	load := func() *index.Index {
		x, err := index.Load(path, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if x.Size() != c.Size() {
			b.Fatalf("loaded %d profiles, want %d", x.Size(), c.Size())
		}
		return x
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
	reportHeapPerProfile(b, load)
}

// BenchmarkWALAppend times the durable-upsert path — tokenize, frame,
// append to the on-disk op log, apply — under each fsync policy. The
// spread between never/interval and always is the price of zero data
// loss on power failure: one disk sync per acknowledged write.
func BenchmarkWALAppend(b *testing.B) {
	c := indexBenchCollection(b)
	for _, bench := range []struct {
		name string
		sync index.WALSyncPolicy
	}{
		{"never", index.WALSyncNever},
		{"interval", index.WALSyncInterval},
		{"always", index.WALSyncAlways},
	} {
		b.Run(bench.name, func(b *testing.B) {
			cfg := index.DefaultConfig()
			cfg.OpLog.Enabled = true
			idx, err := index.NewFromCollection(c, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := idx.OpenWAL(index.WALConfig{Dir: b.TempDir(), Sync: bench.sync}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Replacement upserts: constant index size, one WAL
				// frame per iteration.
				if _, _, err := idx.Upsert(c.Profiles[i%c.Size()]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := idx.CloseWAL(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkWALReplay times a crash restart end to end: Load of the
// ~10k-profile snapshot, then OpenWAL replaying a 2 000-op tail of
// inserts and overwrites through the one write path — what a kill -9'd
// sparker-serve leader pays before it answers again, and (minus the
// file reads) what a follower bootstrap plus catch-up pays.
func BenchmarkWALReplay(b *testing.B) {
	c := indexBenchCollection(b)
	cfg := index.DefaultConfig()
	cfg.OpLog.Enabled = true
	idx, err := index.NewFromCollection(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	snap := filepath.Join(dir, "bench.snap")
	walCfg := index.WALConfig{Dir: filepath.Join(dir, "oplog"), Sync: index.WALSyncNever}
	if _, err := idx.OpenWAL(walCfg); err != nil {
		b.Fatal(err)
	}
	if _, err := idx.Save(snap); err != nil {
		b.Fatal(err)
	}
	const tail = 2000
	for i := 0; i < tail; i++ {
		p := c.Profiles[(i*7)%c.Size()]
		if i%2 == 1 { // every other op inserts a profile the snapshot lacks
			p.OriginalID = "replay-" + p.OriginalID
		}
		if _, _, err := idx.Upsert(p); err != nil {
			b.Fatal(err)
		}
	}
	if err := idx.CloseWAL(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var replayed int64
	for i := 0; i < b.N; i++ {
		x, err := index.Load(snap, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := x.OpenWAL(walCfg)
		if err != nil {
			b.Fatal(err)
		}
		replayed = rec.Replayed
		if err := x.CloseWAL(); err != nil {
			b.Fatal(err)
		}
	}
	if replayed != tail {
		b.Fatalf("replayed %d ops, want %d", replayed, tail)
	}
	b.ReportMetric(float64(replayed), "replayed_ops")
}

func benchName(prefix string, n int) string {
	digits := ""
	if n == 0 {
		digits = "0"
	}
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return prefix + "-" + digits
}
