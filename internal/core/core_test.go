package core

import (
	"reflect"
	"runtime"
	"testing"

	"sparker/internal/dataflow"
	"sparker/internal/datagen"
	"sparker/internal/evaluation"
	"sparker/internal/looseschema"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

func smallDataset() *datagen.Dataset {
	cfg := datagen.AbtBuy()
	cfg.CoreEntities = 150
	cfg.AOnly = 12
	cfg.BDup = 14
	return datagen.Generate(cfg)
}

func groundTruth(t *testing.T, ds *datagen.Dataset) *evaluation.GroundTruth {
	t.Helper()
	gt, err := evaluation.FromOriginalIDs(ds.Collection, ds.GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	return gt
}

func TestDefaultPipelineEndToEnd(t *testing.T) {
	ds := smallDataset()
	gt := groundTruth(t, ds)
	p := NewPipeline(DefaultConfig(), nil)
	res, err := p.Resolve(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocker == nil || len(res.Blocker.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if len(res.Matches) == 0 || len(res.Entities) == 0 {
		t.Fatal("no matches or entities")
	}
	reports := res.Evaluate(ds.Collection, gt)
	if len(reports) != 3 {
		t.Fatalf("reports: %v", reports)
	}
	blockRecall := reports[0].Metrics.Recall
	if blockRecall < 0.85 {
		t.Fatalf("blocking recall %f too low", blockRecall)
	}
	clusterF1 := reports[2].Metrics.F1
	if clusterF1 < 0.7 {
		t.Fatalf("final F1 %f too low", clusterF1)
	}
	// Meta-blocking must beat exhaustive comparison by a wide margin.
	if rr := reports[0].Metrics.ReductionRatio; rr < 0.9 {
		t.Fatalf("reduction ratio %f", rr)
	}
}

func TestSchemaAgnosticBaseline(t *testing.T) {
	ds := smallDataset()
	gt := groundTruth(t, ds)
	p := NewPipeline(SchemaAgnosticConfig(), nil)
	res, err := p.Resolve(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}
	m := evaluation.EvaluatePairs(res.Blocker.Candidates, gt, ds.Collection.MaxComparisons())
	if m.Recall < 0.8 {
		t.Fatalf("schema-agnostic recall %f", m.Recall)
	}
	if res.Blocker.Partitioning != nil {
		t.Fatal("schema-agnostic config must not partition attributes")
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	ds := smallDataset()
	cfg := DefaultConfig()

	seqRes, err := NewPipeline(cfg, nil).Resolve(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}

	ctx := dataflow.NewContext(dataflow.WithParallelism(4))
	defer ctx.Close()
	distRes, err := NewPipeline(cfg, ctx).Resolve(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(seqRes.Blocker.Candidates, distRes.Blocker.Candidates) {
		t.Fatalf("candidates differ: %d vs %d", len(seqRes.Blocker.Candidates), len(distRes.Blocker.Candidates))
	}
	if !reflect.DeepEqual(seqRes.Matches, distRes.Matches) {
		t.Fatalf("matches differ: %d vs %d", len(seqRes.Matches), len(distRes.Matches))
	}
	// Entity IDs may be numbered differently; compare as partitions.
	if !samePartition(seqRes, distRes) {
		t.Fatal("entity partitions differ")
	}
}

// TestResolveIndependentOfWorkerCount holds the in-process Resolve to
// one answer whatever GOMAXPROCS is: blocking and meta-blocking map
// their passes over one range per worker, and the candidates and the
// entity set must not depend on how many there are.
func TestResolveIndependentOfWorkerCount(t *testing.T) {
	ds := smallDataset()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want *Result
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := NewPipeline(DefaultConfig(), nil).Resolve(ds.Collection)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want.Blocker.Candidates, got.Blocker.Candidates) {
			t.Fatalf("GOMAXPROCS=%d: candidates differ: %d vs %d", procs, len(got.Blocker.Candidates), len(want.Blocker.Candidates))
		}
		if !samePartition(want, got) {
			t.Fatalf("GOMAXPROCS=%d: entity partitions differ", procs)
		}
	}
}

// TestBlockerReusesItsCorpus: the blocker's corpus is the one every
// later stage of the pass reads — a rerun from the same result keeps it,
// and a collection or tokenizer it does not tokenise gets a new one.
func TestBlockerReusesItsCorpus(t *testing.T) {
	ds := smallDataset()
	p := NewPipeline(DefaultConfig(), nil)
	res, err := p.RunBlocker(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}
	cp := res.corpus
	if cp == nil || cp.Collection != ds.Collection {
		t.Fatal("the blocker kept no corpus of its collection")
	}
	if p.corpusOf(ds.Collection, res) != cp {
		t.Fatal("a rerun from the blocker's result tokenised the collection again")
	}
	if p.corpusOf(smallDataset().Collection, res) == cp {
		t.Fatal("another collection reused the corpus")
	}
	strict := DefaultConfig()
	strict.Tokenizer.MinLength = 3
	if NewPipeline(strict, nil).corpusOf(ds.Collection, res) == cp {
		t.Fatal("another tokenizer reused the corpus")
	}
}

func samePartition(a, b *Result) bool {
	key := func(r *Result) map[profile.ID]profile.ID {
		rep := map[profile.ID]profile.ID{}
		for _, e := range r.Entities {
			minID := e.Profiles[0]
			for _, p := range e.Profiles {
				rep[p] = minID
			}
		}
		return rep
	}
	return reflect.DeepEqual(key(a), key(b))
}

func TestMetaBlockingDisabled(t *testing.T) {
	ds := smallDataset()
	cfg := DefaultConfig()
	cfg.MetaBlocking = false
	res, err := NewPipeline(cfg, nil).RunBlocker(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != nil {
		t.Fatal("edges produced with meta-blocking disabled")
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}

	cfgMB := DefaultConfig()
	resMB, err := NewPipeline(cfgMB, nil).RunBlocker(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if len(resMB.Candidates) >= len(res.Candidates) {
		t.Fatalf("meta-blocking did not reduce candidates: %d vs %d",
			len(resMB.Candidates), len(res.Candidates))
	}
}

func TestEntropyRequiresLooseSchema(t *testing.T) {
	ds := smallDataset()
	cfg := DefaultConfig()
	cfg.LooseSchema = false
	cfg.UseEntropy = true
	if _, err := NewPipeline(cfg, nil).RunBlocker(ds.Collection); err == nil {
		t.Fatal("want error: entropy without loose schema")
	}
}

func TestUnknownMeasureAndClusterer(t *testing.T) {
	ds := smallDataset()
	cfg := DefaultConfig()
	cfg.Measure = "bogus"
	if _, err := NewPipeline(cfg, nil).Resolve(ds.Collection); err == nil {
		t.Fatal("want measure error")
	}
	cfg = DefaultConfig()
	cfg.Clusterer = "bogus"
	if _, err := NewPipeline(cfg, nil).Resolve(ds.Collection); err == nil {
		t.Fatal("want clusterer error")
	}
}

func TestAllMeasuresRun(t *testing.T) {
	ds := smallDataset()
	for _, m := range []MeasureKind{MeasureJaccard, MeasureDice, MeasureCosineTFIDF} {
		cfg := DefaultConfig()
		cfg.Measure = m
		if _, err := NewPipeline(cfg, nil).Resolve(ds.Collection); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestAllClusterersRun(t *testing.T) {
	ds := smallDataset()
	for _, cl := range []ClusterAlgorithm{ClusterConnectedComponents, ClusterCenter, ClusterMergeCenter, ClusterUniqueMapping} {
		cfg := DefaultConfig()
		cfg.Clusterer = cl
		res, err := NewPipeline(cfg, nil).Resolve(ds.Collection)
		if err != nil {
			t.Fatalf("%s: %v", cl, err)
		}
		if len(res.Entities) == 0 {
			t.Fatalf("%s: no entities", cl)
		}
	}
}

// TestManualPartitionEdit follows the Figure 6(c,d) supervised flow: the
// user splits names from descriptions, reruns the blocker, and loses
// pairs that the automatic partitioning kept.
func TestManualPartitionEdit(t *testing.T) {
	ds := smallDataset()
	gt := groundTruth(t, ds)
	cfg := DefaultConfig()
	cfg.MetaBlocking = false
	p := NewPipeline(cfg, nil)

	auto, err := p.RunBlocker(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}
	lostAuto := evaluation.LostPairs(auto.Candidates, gt)

	edited := auto.Partitioning.Clone()
	nc := edited.NewCluster()
	if err := edited.MoveAttribute("0:description", nc); err != nil {
		t.Fatal(err)
	}
	if err := edited.MoveAttribute("1:short_descr", nc); err != nil {
		t.Fatal(err)
	}
	looseschema.ComputeEntropies(edited, auto.AttributeProfiles)

	manual := &BlockerResult{Partitioning: edited, AttributeProfiles: auto.AttributeProfiles}
	manual, err = p.RunBlockerWithPartitioning(ds.Collection, manual)
	if err != nil {
		t.Fatal(err)
	}
	lostManual := evaluation.LostPairs(manual.Candidates, gt)
	if len(lostManual) <= len(lostAuto) {
		t.Fatalf("manual split lost %d pairs, auto lost %d; expected the split to hurt",
			len(lostManual), len(lostAuto))
	}

	// The drill-down explanation: under the automatic partitioning the
	// lost pairs shared (only) name/description keys.
	opts := auto.BlockingOptions(cfg)
	for _, pair := range lostManual[:min(3, len(lostManual))] {
		keys := evaluation.SharedKeys(ds.Collection, opts, pair.A, pair.B)
		if len(keys) == 0 {
			t.Fatalf("lost pair %v shares no keys under the automatic partitioning", pair)
		}
	}
}

func TestEntropyShrinksCandidates(t *testing.T) {
	ds := smallDataset()
	gt := groundTruth(t, ds)

	run := func(useEntropy bool) ([]int, float64) {
		cfg := DefaultConfig()
		cfg.UseEntropy = useEntropy
		res, err := NewPipeline(cfg, nil).RunBlocker(ds.Collection)
		if err != nil {
			t.Fatal(err)
		}
		m := evaluation.EvaluatePairs(res.Candidates, gt, ds.Collection.MaxComparisons())
		return []int{len(res.Candidates)}, m.Recall
	}
	plain, recallPlain := run(false)
	entropy, recallEntropy := run(true)
	if entropy[0] > plain[0] {
		t.Fatalf("entropy increased candidates: %d vs %d", entropy[0], plain[0])
	}
	if recallEntropy < recallPlain-0.02 {
		t.Fatalf("entropy hurt recall: %f vs %f", recallEntropy, recallPlain)
	}
}

func TestBlockerStagesMonotone(t *testing.T) {
	ds := smallDataset()
	res, err := NewPipeline(DefaultConfig(), nil).RunBlocker(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if res.Purged.TotalComparisons() > res.Raw.TotalComparisons() {
		t.Fatal("purging increased comparisons")
	}
	if res.Filtered.TotalComparisons() > res.Purged.TotalComparisons() {
		t.Fatal("filtering increased comparisons")
	}
	if int64(len(res.Candidates)) > res.Filtered.TotalComparisons() {
		t.Fatal("meta-blocking produced more candidates than comparisons")
	}
}

func TestPruningVariants(t *testing.T) {
	ds := smallDataset()
	for _, pr := range []metablocking.Pruning{metablocking.WEP, metablocking.WNP, metablocking.CNP, metablocking.BlastPruning} {
		cfg := DefaultConfig()
		cfg.Pruning = pr
		res, err := NewPipeline(cfg, nil).RunBlocker(ds.Collection)
		if err != nil {
			t.Fatalf("%v: %v", pr, err)
		}
		if len(res.Candidates) == 0 {
			t.Fatalf("%v: no candidates", pr)
		}
	}
}

func TestDirtyERPipeline(t *testing.T) {
	ds := datagen.GenerateDirty(120, 3)
	gt := groundTruth(t, ds)
	cfg := DefaultConfig()
	// Dirty ER with a single schema: loose schema has nothing to split, so
	// run schema-agnostically.
	cfg.LooseSchema = false
	cfg.UseEntropy = false
	res, err := NewPipeline(cfg, nil).Resolve(ds.Collection)
	if err != nil {
		t.Fatal(err)
	}
	reports := res.Evaluate(ds.Collection, gt)
	if reports[0].Metrics.Recall < 0.7 {
		t.Fatalf("dirty blocking recall %f", reports[0].Metrics.Recall)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
