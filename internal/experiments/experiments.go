// Package experiments regenerates every table and figure of the paper's
// evaluation (the Figure 6 demo walkthrough, the Figure 1/2 toys, and the
// scalability claims delegated to the technical report). Each experiment
// returns structured rows; cmd/sparker-bench renders them as tables and
// bench_test.go wraps them as testing.B benchmarks. The experiment
// index is this file's section banners:
//
//	E1/E2  Figure 1 and Figure 2 toys
//	E3     Figure 6(a,b): the LSH threshold sweep
//	E4     Figure 6(c,d): manual partition edit, lost-pair drill-down
//	E5     Figure 6(e): meta-blocking with entropy
//	E6     scalability: executor sweep over the distributed blocker
//	E7     broadcast-join meta-blocking vs naive edge materialisation
//	E8     end-to-end pipeline (Figures 3 and 5); since the matcher
//	       scores from bags prepared once per collection and Blast
//	       meta-blocking no longer sorts neighbourhoods, one pass is
//	       dominated by neighbourhood materialisation, not by
//	       tokenisation (README "Performance", "Matching")
//	E9     debug-sample representativeness (Section 3)
//
// followed by the weight-scheme and pruning-rule ablations.
package experiments

import (
	"fmt"
	"time"

	"sparker/internal/blocking"
	"sparker/internal/clustering"
	"sparker/internal/core"
	"sparker/internal/dataflow"
	"sparker/internal/datagen"
	"sparker/internal/evaluation"
	"sparker/internal/looseschema"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
	"sparker/internal/sampling"
	"sparker/internal/tokenize"
)

// Dataset bundles a generated benchmark with its resolved ground truth.
type Dataset struct {
	Name       string
	Collection *profile.Collection
	GT         *evaluation.GroundTruth
}

// LoadSynthAbtBuy generates the default benchmark and resolves its ground
// truth.
func LoadSynthAbtBuy(cfg datagen.Config) (*Dataset, error) {
	ds := datagen.Generate(cfg)
	gt, err := evaluation.FromOriginalIDs(ds.Collection, ds.GroundTruth)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Dataset{Name: "SynthAbtBuy", Collection: ds.Collection, GT: gt}, nil
}

// LoadBibliographic generates the bibliographic benchmark (the "different
// datasets" of the demo) and resolves its ground truth.
func LoadBibliographic(cfg datagen.BibConfig) (*Dataset, error) {
	ds := datagen.GenerateBibliographic(cfg)
	gt, err := evaluation.FromOriginalIDs(ds.Collection, ds.GroundTruth)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Dataset{Name: "SynthDblpScholar", Collection: ds.Collection, GT: gt}, nil
}

// ---------------------------------------------------------------------------
// E1 / E2 — Figure 1 and Figure 2 toys.

// ToyEdge is one weighted edge of the toy meta-blocking graphs.
type ToyEdge struct {
	A, B     string // original profile IDs (p1..p4)
	Weight   float64
	Retained bool
}

// figureProfiles builds the four bibliographic profiles of Figure 1(a).
func figureProfiles() *profile.Collection {
	mk := func(id string, kvs ...[2]string) profile.Profile {
		p := profile.Profile{OriginalID: id}
		for _, kv := range kvs {
			p.Add(kv[0], kv[1])
		}
		return p
	}
	return profile.NewDirty([]profile.Profile{
		mk("p1", [2]string{"name", "Blast"}, [2]string{"authors", "G. Simonini"},
			[2]string{"abstract", "how to improve meta-blocking"}),
		mk("p2", [2]string{"name", "SparkER"}, [2]string{"authors", "L. Gagliardelli"},
			[2]string{"abstract", "Simonini et al proposed blocking"}),
		mk("p3", [2]string{"title", "Blast: loosely schema blocking"},
			[2]string{"author", "Giovanni Simonini"}, [2]string{"year", "2016"}),
		mk("p4", [2]string{"title", "SparkER: parallel Blast"},
			[2]string{"author", "Luca Gagliardelli"}, [2]string{"year", "2017"}),
	})
}

// figure2Clustering is the loose schema of Figure 2(a) with the entropies
// printed in the figure.
type figure2Clustering struct{}

func (figure2Clustering) ClusterOf(_ int, attribute string) int {
	switch attribute {
	case "name", "title", "abstract":
		return 1
	case "authors", "author":
		return 2
	}
	return 0
}

func (figure2Clustering) EntropyOf(cluster int) float64 {
	switch cluster {
	case 1:
		return 0.4
	case 2:
		return 0.8
	}
	return 0
}

// runToy executes the toy meta-blocking and labels every edge of the full
// graph with its retention decision.
func runToy(clustered bool) []ToyEdge {
	c := figureProfiles()
	opts := blocking.Options{}
	mbOpts := metablocking.Options{Scheme: metablocking.CBS, Pruning: metablocking.WEP}
	if clustered {
		opts.Clustering = figure2Clustering{}
		mbOpts.Entropy = figure2Clustering{}
	}
	blocks := blocking.TokenBlocking(c, opts)
	idx := blocking.BuildIndex(blocks)
	retained := map[blocking.Pair]bool{}
	for _, e := range metablocking.Run(idx, mbOpts) {
		retained[blocking.Pair{A: e.A, B: e.B}] = true
	}
	// Weights of the unpruned graph via CEP with an unbounded budget.
	all := metablocking.Run(idx, metablocking.Options{
		Scheme: mbOpts.Scheme, Pruning: metablocking.CEP, TopK: 1 << 30, Entropy: mbOpts.Entropy,
	})
	var out []ToyEdge
	for _, e := range all {
		out = append(out, ToyEdge{
			A:        c.Get(e.A).OriginalID,
			B:        c.Get(e.B).OriginalID,
			Weight:   e.Weight,
			Retained: retained[blocking.Pair{A: e.A, B: e.B}],
		})
	}
	return out
}

// Figure1Toy regenerates Figure 1(c): CBS weights and average pruning.
func Figure1Toy() []ToyEdge { return runToy(false) }

// Figure2Toy regenerates Figure 2(c): entropy-weighted meta-blocking.
func Figure2Toy() []ToyEdge { return runToy(true) }

// ---------------------------------------------------------------------------
// E3 — Figure 6(a,b): the LSH threshold sweep.

// SweepRow is one line of the Figure 6 blocking panel: the partition
// layout and the post-purging block statistics the demo GUI displays.
type SweepRow struct {
	Threshold   float64
	Clusters    int // excluding the blob when it is empty
	BlobSize    int // attributes left in the blob
	Blocks      int
	Comparisons int64 // ||B||: candidate pairs in the blocks
	Recall      float64
	Precision   float64
	LostPairs   int
}

// sweepAt evaluates one partitioning against the dataset.
func sweepAt(d *Dataset, part *looseschema.Partitioning, threshold float64) SweepRow {
	opts := blocking.Options{Clustering: part}
	purged := blocking.PurgeBySize(blocking.TokenBlocking(d.Collection, opts), 0.5)
	pairs := purged.DistinctPairs()
	m := evaluation.EvaluatePairs(pairs, d.GT, d.Collection.MaxComparisons())
	clusters := 0
	for k, attrs := range part.Clusters {
		if k != looseschema.BlobCluster && len(attrs) > 0 {
			clusters++
		}
	}
	return SweepRow{
		Threshold:   threshold,
		Clusters:    clusters,
		BlobSize:    len(part.Clusters[looseschema.BlobCluster]),
		Blocks:      purged.NumBlocks(),
		Comparisons: purged.TotalComparisons(),
		Recall:      m.Recall,
		Precision:   m.Precision,
		LostPairs:   m.FalseNegatives,
	}
}

// ThresholdSweep regenerates the Figure 6(a,b) walkthrough: the attribute
// partitioning and blocking quality at each LSH threshold.
func ThresholdSweep(d *Dataset, thresholds []float64) []SweepRow {
	out := make([]SweepRow, 0, len(thresholds))
	for _, th := range thresholds {
		part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: th})
		out = append(out, sweepAt(d, part, th))
	}
	return out
}

// ---------------------------------------------------------------------------
// E4 — Figure 6(c,d): manual partition edit and lost-pair drill-down.

// LostPairExplanation is one row of the Figure 6(d) debug panel.
type LostPairExplanation struct {
	AOriginal, BOriginal string
	// SharedKeysBefore are the blocking keys the pair shared under the
	// automatic partitioning (what the manual edit severed).
	SharedKeysBefore []string
}

// ManualEditResult compares the automatic threshold-0.3 partitioning with
// the user's split of names from descriptions.
type ManualEditResult struct {
	Auto, Edited SweepRow
	NewlyLost    []LostPairExplanation
}

// ManualEdit regenerates Figure 6(c,d).
func ManualEdit(d *Dataset) (*ManualEditResult, error) {
	auto := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	autoRow := sweepAt(d, auto, 0.3)

	edited := auto.Clone()
	nc := edited.NewCluster()
	for _, attr := range []string{"0:description", "1:short_descr"} {
		if err := edited.MoveAttribute(attr, nc); err != nil {
			return nil, fmt.Errorf("experiments: manual edit: %w", err)
		}
	}
	aps := looseschema.ExtractAttributeProfiles(d.Collection, tokenize.Options{})
	looseschema.ComputeEntropies(edited, aps)
	editedRow := sweepAt(d, edited, 0.3)

	// Lost pairs under the edit that the automatic partitioning kept,
	// explained by the keys they shared before the split.
	autoPairs := blocking.PurgeBySize(blocking.TokenBlocking(d.Collection, blocking.Options{Clustering: auto}), 0.5).DistinctPairs()
	editedPairs := blocking.PurgeBySize(blocking.TokenBlocking(d.Collection, blocking.Options{Clustering: edited}), 0.5).DistinctPairs()
	lostAuto := map[blocking.Pair]bool{}
	for _, p := range evaluation.LostPairs(autoPairs, d.GT) {
		lostAuto[p] = true
	}
	res := &ManualEditResult{Auto: autoRow, Edited: editedRow}
	for _, p := range evaluation.LostPairs(editedPairs, d.GT) {
		if lostAuto[p] {
			continue
		}
		res.NewlyLost = append(res.NewlyLost, LostPairExplanation{
			AOriginal:        d.Collection.Get(p.A).OriginalID,
			BOriginal:        d.Collection.Get(p.B).OriginalID,
			SharedKeysBefore: evaluation.SharedKeys(d.Collection, blocking.Options{Clustering: auto}, p.A, p.B),
		})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// E5 — Figure 6(e): meta-blocking with entropy.

// MetaRow is one line of the meta-blocking comparison table.
type MetaRow struct {
	Name       string
	Candidates int
	Recall     float64
	Precision  float64
}

// EntropyMetaBlocking regenerates Figure 6(e): candidate counts and
// quality for blocking only, meta-blocking, and entropy meta-blocking on
// the threshold-0.3 partitioning.
func EntropyMetaBlocking(d *Dataset) []MetaRow {
	part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	opts := blocking.Options{Clustering: part}
	purged := blocking.PurgeBySize(blocking.TokenBlocking(d.Collection, opts), 0.5)
	filtered := blocking.Filter(purged, blocking.DefaultFilterRatio)
	idx := blocking.BuildIndex(filtered)

	rows := []MetaRow{evalPairs("blocking only (Fig 6b)", purged.DistinctPairs(), d)}
	for _, useEntropy := range []bool{false, true} {
		mo := metablocking.Options{Scheme: metablocking.CBS, Pruning: metablocking.BlastPruning}
		name := "meta-blocking"
		if useEntropy {
			mo.Entropy = part
			name = "meta-blocking + entropy (Fig 6e)"
		}
		edges := metablocking.Run(idx, mo)
		pairs := make([]blocking.Pair, len(edges))
		for i, e := range edges {
			pairs[i] = blocking.Pair{A: e.A, B: e.B}
		}
		rows = append(rows, evalPairs(name, pairs, d))
	}
	return rows
}

func evalPairs(name string, pairs []blocking.Pair, d *Dataset) MetaRow {
	m := evaluation.EvaluatePairs(pairs, d.GT, d.Collection.MaxComparisons())
	return MetaRow{Name: name, Candidates: m.Candidates, Recall: m.Recall, Precision: m.Precision}
}

// ---------------------------------------------------------------------------
// E6 — scalability: executor sweep over the distributed blocker.

// ScaleRow is one line of the scalability table.
type ScaleRow struct {
	Executors      int
	Profiles       int
	BlockingMS     int64
	MetaBlockMS    int64
	TotalMS        int64
	Speedup        float64 // vs the 1-executor row of the same dataset
	ShuffleRecords int64
	Tasks          int64
}

// Scalability sweeps executor counts over distributed token blocking +
// broadcast meta-blocking, reporting wall time and engine counters.
func Scalability(cfg datagen.Config, executors []int) ([]ScaleRow, error) {
	d, err := LoadSynthAbtBuy(cfg)
	if err != nil {
		return nil, err
	}
	var rows []ScaleRow
	var base float64
	for _, ex := range executors {
		ctx := dataflow.NewContext(dataflow.WithParallelism(ex))
		parts := 2 * ex

		start := time.Now()
		raw, err := blocking.DistributedTokenBlocking(ctx, d.Collection, blocking.Options{}, parts)
		if err != nil {
			ctx.Close()
			return nil, err
		}
		blockingMS := time.Since(start).Milliseconds()

		filtered := blocking.Filter(blocking.PurgeBySize(raw, 0.5), blocking.DefaultFilterRatio)
		idx := blocking.BuildIndex(filtered)

		start = time.Now()
		_, err = metablocking.RunDistributed(ctx, idx, metablocking.Options{
			Scheme: metablocking.CBS, Pruning: metablocking.BlastPruning,
		}, parts)
		if err != nil {
			ctx.Close()
			return nil, err
		}
		metaMS := time.Since(start).Milliseconds()

		m := ctx.Metrics()
		ctx.Close()
		total := blockingMS + metaMS
		row := ScaleRow{
			Executors:      ex,
			Profiles:       d.Collection.Size(),
			BlockingMS:     blockingMS,
			MetaBlockMS:    metaMS,
			TotalMS:        total,
			ShuffleRecords: m.ShuffleRecords,
			Tasks:          m.TasksLaunched,
		}
		if base == 0 {
			base = float64(total)
		}
		if total > 0 {
			row.Speedup = base / float64(total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E7 — broadcast-join meta-blocking vs naive edge materialisation.

// BaselineRow compares the two distributed meta-blocking plans.
type BaselineRow struct {
	Algorithm      string
	Millis         int64
	ShuffleRecords int64
	Edges          int
}

// BroadcastVsNaive runs both plans on the same filtered blocks and
// reports time and shuffled records; the outputs are verified identical.
func BroadcastVsNaive(d *Dataset, executors int) ([]BaselineRow, error) {
	part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	opts := blocking.Options{Clustering: part}
	filtered := blocking.Filter(blocking.PurgeBySize(blocking.TokenBlocking(d.Collection, opts), 0.5), blocking.DefaultFilterRatio)
	idx := blocking.BuildIndex(filtered)
	mo := metablocking.Options{Scheme: metablocking.CBS, Pruning: metablocking.WEP}

	run := func(name string, f func(ctx *dataflow.Context) ([]metablocking.Edge, error)) (BaselineRow, []metablocking.Edge, error) {
		ctx := dataflow.NewContext(dataflow.WithParallelism(executors))
		defer ctx.Close()
		start := time.Now()
		edges, err := f(ctx)
		if err != nil {
			return BaselineRow{}, nil, err
		}
		return BaselineRow{
			Algorithm:      name,
			Millis:         time.Since(start).Milliseconds(),
			ShuffleRecords: ctx.Metrics().ShuffleRecords,
			Edges:          len(edges),
		}, edges, nil
	}

	bRow, bEdges, err := run("broadcast-join (SparkER)", func(ctx *dataflow.Context) ([]metablocking.Edge, error) {
		return metablocking.RunDistributed(ctx, idx, mo, 2*executors)
	})
	if err != nil {
		return nil, err
	}
	nRow, nEdges, err := run("naive edge materialisation", func(ctx *dataflow.Context) ([]metablocking.Edge, error) {
		return metablocking.RunNaiveDistributed(ctx, idx, mo, 2*executors)
	})
	if err != nil {
		return nil, err
	}
	if len(bEdges) != len(nEdges) {
		return nil, fmt.Errorf("experiments: plans disagree: %d vs %d edges", len(bEdges), len(nEdges))
	}
	return []BaselineRow{bRow, nRow}, nil
}

// ---------------------------------------------------------------------------
// E8 — end-to-end pipeline (Figures 3 and 5).

// EndToEnd runs the full default pipeline and evaluates every stage.
func EndToEnd(d *Dataset, distributed bool) ([]core.StepReport, error) {
	var ctx *dataflow.Context
	if distributed {
		ctx = dataflow.NewContext()
		defer ctx.Close()
	}
	res, err := core.NewPipeline(core.DefaultConfig(), ctx).Resolve(d.Collection)
	if err != nil {
		return nil, err
	}
	return res.Evaluate(d.Collection, d.GT), nil
}

// ---------------------------------------------------------------------------
// E9 — debug-sample representativeness (Section 3).

// SampleRow summarises one debug-sample configuration.
type SampleRow struct {
	K, PerSeed    int
	SampleSize    int
	MatchingPairs int // ground-truth pairs fully inside the sample
}

// SamplingExperiment sweeps the K / k parameters of the Magellan-style
// debug sampler and counts how many true matches each sample retains.
func SamplingExperiment(d *Dataset, ks []int, perSeed int) []SampleRow {
	var rows []SampleRow
	for _, k := range ks {
		s := sampling.Build(d.Collection, sampling.Options{K: k, PerSeed: perSeed, Seed: 99})
		matches := 0
		for _, p := range d.GT.Pairs() {
			if _, okA := s.SampleID[p.A]; !okA {
				continue
			}
			if _, okB := s.SampleID[p.B]; !okB {
				continue
			}
			matches++
		}
		rows = append(rows, SampleRow{
			K: k, PerSeed: perSeed,
			SampleSize:    s.Collection.Size(),
			MatchingPairs: matches,
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// E10 — progressive meta-blocking (reference [6] of the paper).

// ProgressiveRow is recall at one comparison budget for one scheduler.
type ProgressiveRow struct {
	Strategy string
	// BudgetPercent of the graph's distinct comparisons.
	BudgetPercent int
	Comparisons   int
	Recall        float64
}

// ProgressiveRecall regenerates the recall-vs-budget curves of
// progressive ER: comparisons are emitted best-first (global-top or
// profile scheduling) or at random, and recall is measured at each
// budget. Progressive schedulers must reach high recall at a small
// fraction of the comparisons; the random baseline grows linearly.
func ProgressiveRecall(d *Dataset, budgets []int) []ProgressiveRow {
	part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	opts := blocking.Options{Clustering: part}
	filtered := blocking.Filter(blocking.PurgeBySize(blocking.TokenBlocking(d.Collection, opts), 0.5), blocking.DefaultFilterRatio)
	idx := blocking.BuildIndex(filtered)
	mo := metablocking.Options{Scheme: metablocking.ARCS, Entropy: part}

	var rows []ProgressiveRow
	for _, strategy := range []metablocking.ScheduleStrategy{
		metablocking.GlobalTop, metablocking.ProfileScheduling, metablocking.RandomOrder,
	} {
		full := metablocking.Schedule(idx, mo, strategy, 0)
		for _, pct := range budgets {
			budget := len(full) * pct / 100
			found := 0
			for _, e := range full[:budget] {
				if d.GT.Contains(blocking.Pair{A: e.A, B: e.B}) {
					found++
				}
			}
			recall := 0.0
			if d.GT.Size() > 0 {
				recall = float64(found) / float64(d.GT.Size())
			}
			rows = append(rows, ProgressiveRow{
				Strategy:      strategy.String(),
				BudgetPercent: pct,
				Comparisons:   budget,
				Recall:        recall,
			})
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Ablations — weight schemes and pruning rules.

// AblationRow is one (scheme, pruning) quality/cost point.
type AblationRow struct {
	Scheme     string
	Pruning    string
	Candidates int
	Recall     float64
	Precision  float64
	F1         float64
}

// SchemePruningAblation sweeps weight schemes × pruning rules on the
// loose-schema blocks.
func SchemePruningAblation(d *Dataset, schemes []metablocking.Scheme, prunings []metablocking.Pruning) []AblationRow {
	part := looseschema.Partition(d.Collection, looseschema.Options{Threshold: 0.3})
	opts := blocking.Options{Clustering: part}
	filtered := blocking.Filter(blocking.PurgeBySize(blocking.TokenBlocking(d.Collection, opts), 0.5), blocking.DefaultFilterRatio)
	idx := blocking.BuildIndex(filtered)

	var rows []AblationRow
	for _, s := range schemes {
		for _, pr := range prunings {
			edges := metablocking.Run(idx, metablocking.Options{Scheme: s, Pruning: pr, Entropy: part})
			pairs := make([]blocking.Pair, len(edges))
			for i, e := range edges {
				pairs[i] = blocking.Pair{A: e.A, B: e.B}
			}
			m := evaluation.EvaluatePairs(pairs, d.GT, d.Collection.MaxComparisons())
			rows = append(rows, AblationRow{
				Scheme: s.String(), Pruning: pr.String(),
				Candidates: m.Candidates, Recall: m.Recall, Precision: m.Precision, F1: m.F1,
			})
		}
	}
	return rows
}

// ClustererAblation compares the three entity-clustering algorithms on
// the default pipeline's matches.
func ClustererAblation(d *Dataset) ([]MetaRow, error) {
	pipeline := core.NewPipeline(core.DefaultConfig(), nil)
	blocker, err := pipeline.RunBlocker(d.Collection)
	if err != nil {
		return nil, err
	}
	matches, err := pipeline.RunMatcher(d.Collection, blocker.Candidates)
	if err != nil {
		return nil, err
	}
	algos := []struct {
		name string
		run  func([]matching.Match) []clustering.Entity
	}{
		{"connected-components", clustering.ConnectedComponents},
		{"center", clustering.CenterClustering},
		{"merge-center", clustering.MergeCenterClustering},
		{"unique-mapping", clustering.UniqueMappingClustering},
	}
	var rows []MetaRow
	for _, algo := range algos {
		entities := algo.run(matches)
		m := evaluation.EvaluateMatches(clustering.PairsOf(entities), d.GT, d.Collection.MaxComparisons())
		rows = append(rows, MetaRow{Name: algo.name, Candidates: m.Candidates, Recall: m.Recall, Precision: m.Precision})
	}
	return rows, nil
}
