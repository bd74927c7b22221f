package experiments

import (
	"math"
	"slices"
	"testing"

	"sparker/internal/datagen"
	"sparker/internal/metablocking"
)

// smallCfg keeps experiment tests fast.
func smallCfg() datagen.Config {
	cfg := datagen.AbtBuy()
	cfg.CoreEntities = 150
	cfg.AOnly = 12
	cfg.BDup = 10
	return cfg
}

func loadSmall(t *testing.T) *Dataset {
	t.Helper()
	d, err := LoadSynthAbtBuy(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFigure1ToyMatchesPaper(t *testing.T) {
	edges := Figure1Toy()
	if len(edges) != 6 {
		t.Fatalf("edges: %d", len(edges))
	}
	want := map[string]struct {
		w        float64
		retained bool
	}{
		"p1-p2": {2, true}, "p1-p3": {3, true}, "p1-p4": {1, false},
		"p2-p3": {2, true}, "p2-p4": {2, true}, "p3-p4": {1, false},
	}
	for _, e := range edges {
		key := e.A + "-" + e.B
		w, ok := want[key]
		if !ok {
			t.Fatalf("unexpected edge %s", key)
		}
		if math.Abs(e.Weight-w.w) > 1e-9 || e.Retained != w.retained {
			t.Fatalf("edge %s: got (%f,%v) want (%f,%v)", key, e.Weight, e.Retained, w.w, w.retained)
		}
	}
}

func TestFigure2ToyMatchesPaper(t *testing.T) {
	edges := Figure2Toy()
	retained := map[string]float64{}
	for _, e := range edges {
		if e.Retained {
			retained[e.A+"-"+e.B] = e.Weight
		}
	}
	if len(retained) != 2 {
		t.Fatalf("retained: %v", retained)
	}
	if math.Abs(retained["p1-p3"]-1.6) > 1e-9 || math.Abs(retained["p2-p4"]-1.2) > 1e-9 {
		t.Fatalf("weights: %v", retained)
	}
}

func TestThresholdSweepShape(t *testing.T) {
	d := loadSmall(t)
	rows := ThresholdSweep(d, []float64{1.0, 0.3})
	if rows[0].Clusters != 0 || rows[0].BlobSize == 0 {
		t.Fatalf("threshold 1.0 must be all blob: %+v", rows[0])
	}
	if rows[1].Clusters != 2 {
		t.Fatalf("threshold 0.3 must give 2 clusters: %+v", rows[1])
	}
	if rows[1].Comparisons >= rows[0].Comparisons {
		t.Fatalf("candidates must drop from 6(a) to 6(b): %d vs %d",
			rows[1].Comparisons, rows[0].Comparisons)
	}
	if rows[1].Precision < rows[0].Precision {
		t.Fatalf("precision must not drop: %f vs %f", rows[1].Precision, rows[0].Precision)
	}
	if rows[1].Recall < rows[0].Recall-1e-9 {
		t.Fatalf("recall must hold: %f vs %f", rows[1].Recall, rows[0].Recall)
	}
}

func TestManualEditLosesPairs(t *testing.T) {
	d := loadSmall(t)
	res, err := ManualEdit(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Edited.LostPairs <= res.Auto.LostPairs {
		t.Fatalf("split must lose pairs: %d vs %d", res.Edited.LostPairs, res.Auto.LostPairs)
	}
	if len(res.NewlyLost) == 0 {
		t.Fatal("no explanations")
	}
	for _, lp := range res.NewlyLost {
		if len(lp.SharedKeysBefore) == 0 {
			t.Fatalf("pair %s-%s has no shared-key explanation", lp.AOriginal, lp.BOriginal)
		}
	}
}

func TestEntropyMetaBlockingShape(t *testing.T) {
	d := loadSmall(t)
	rows := EntropyMetaBlocking(d)
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	blockingOnly, meta, entropy := rows[0], rows[1], rows[2]
	if meta.Candidates*5 > blockingOnly.Candidates {
		t.Fatalf("meta-blocking must cut candidates by far more: %d vs %d",
			meta.Candidates, blockingOnly.Candidates)
	}
	if entropy.Candidates > meta.Candidates {
		t.Fatalf("entropy must not increase candidates: %d vs %d",
			entropy.Candidates, meta.Candidates)
	}
	if entropy.Recall < meta.Recall-0.02 {
		t.Fatalf("entropy hurt recall: %f vs %f", entropy.Recall, meta.Recall)
	}
}

func TestScalabilityRows(t *testing.T) {
	rows, err := Scalability(smallCfg(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].Speedup != 1.0 {
		t.Fatalf("base speedup: %f", rows[0].Speedup)
	}
	if rows[1].Tasks <= rows[0].Tasks {
		t.Fatalf("more executors must launch more tasks: %d vs %d", rows[1].Tasks, rows[0].Tasks)
	}
}

func TestBroadcastVsNaiveAgreeAndDiffer(t *testing.T) {
	d := loadSmall(t)
	rows, err := BroadcastVsNaive(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Edges != rows[1].Edges {
		t.Fatalf("plans disagree: %d vs %d", rows[0].Edges, rows[1].Edges)
	}
	if rows[0].ShuffleRecords >= rows[1].ShuffleRecords {
		t.Fatalf("broadcast must shuffle less: %d vs %d",
			rows[0].ShuffleRecords, rows[1].ShuffleRecords)
	}
}

func TestEndToEndReports(t *testing.T) {
	d := loadSmall(t)
	reports, err := EndToEnd(d, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports: %v", reports)
	}
	if reports[1].Metrics.Precision < reports[0].Metrics.Precision {
		t.Fatal("matching must raise precision over blocking")
	}
}

func TestEndToEndDistributed(t *testing.T) {
	d := loadSmall(t)
	seq, err := EndToEnd(d, false)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := EndToEnd(d, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Metrics.Candidates != dist[i].Metrics.Candidates {
			t.Fatalf("step %s differs: %d vs %d", seq[i].Step,
				seq[i].Metrics.Candidates, dist[i].Metrics.Candidates)
		}
	}
}

func TestSamplingExperimentGrows(t *testing.T) {
	d := loadSmall(t)
	rows := SamplingExperiment(d, []int{5, 20}, 8)
	if rows[0].SampleSize >= rows[1].SampleSize {
		t.Fatalf("K=5 sample %d >= K=20 sample %d", rows[0].SampleSize, rows[1].SampleSize)
	}
	if rows[1].MatchingPairs == 0 {
		t.Fatal("large sample holds no matches")
	}
}

func TestSchemePruningAblationComplete(t *testing.T) {
	d := loadSmall(t)
	rows := SchemePruningAblation(d,
		[]metablocking.Scheme{metablocking.CBS, metablocking.JS},
		[]metablocking.Pruning{metablocking.WEP, metablocking.BlastPruning})
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.Candidates == 0 || r.Recall == 0 {
			t.Fatalf("degenerate ablation row: %+v", r)
		}
	}
}

func TestProgressiveRecallShape(t *testing.T) {
	d := loadSmall(t)
	rows := ProgressiveRecall(d, []int{5, 100})
	byStrategy := map[string]map[int]float64{}
	for _, r := range rows {
		if byStrategy[r.Strategy] == nil {
			byStrategy[r.Strategy] = map[int]float64{}
		}
		byStrategy[r.Strategy][r.BudgetPercent] = r.Recall
	}
	// All strategies converge at 100%.
	for s, m := range byStrategy {
		if m[100] < 0.999 {
			t.Fatalf("%s: full budget recall %f", s, m[100])
		}
	}
	// Progressive schedulers crush the random baseline at a 5% budget.
	if byStrategy["profile-scheduling"][5] < 5*byStrategy["random"][5] {
		t.Fatalf("PPS@5%% = %f vs random %f: not progressive",
			byStrategy["profile-scheduling"][5], byStrategy["random"][5])
	}
	if byStrategy["global-top"][5] < 5*byStrategy["random"][5] {
		t.Fatalf("global-top@5%% = %f vs random %f",
			byStrategy["global-top"][5], byStrategy["random"][5])
	}
}

func TestClustererAblation(t *testing.T) {
	d := loadSmall(t)
	rows, err := ClustererAblation(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %v", rows)
	}
}

// TestBroadcastVsNaiveARCSWithinTolerance runs E7 under ARCS, whose
// weights the two plans sum in different orders (on this set 28 of the
// 1 024 weights differ in their last bits): the pairs must still match
// exactly, and the weights to a relative 1e-9.
func TestBroadcastVsNaiveARCSWithinTolerance(t *testing.T) {
	rows, err := broadcastVsNaive(loadSmall(t), 2, metablocking.ARCS)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Edges == 0 || rows[0].Edges != rows[1].Edges {
		t.Fatalf("edges: %d vs %d", rows[0].Edges, rows[1].Edges)
	}
}

func TestSameEdgesComparesPairsAndWeights(t *testing.T) {
	w := 0.1 + 0.2
	a := []metablocking.Edge{{A: 1, B: 2, Weight: 3}, {A: 1, B: 5, Weight: w}}
	if err := sameEdges(a, slices.Clone(a), 0); err != nil {
		t.Fatalf("identical lists: %v", err)
	}
	ulp := slices.Clone(a)
	ulp[1].Weight = math.Nextafter(w, 1)
	if sameEdges(a, ulp, 0) == nil {
		t.Fatal("exact comparison passed a weight one ulp off")
	}
	if err := sameEdges(a, ulp, 1e-9); err != nil {
		t.Fatalf("relative 1e-9 refused a weight one ulp off: %v", err)
	}
	far := slices.Clone(a)
	far[1].Weight = w * (1 + 1e-6)
	if sameEdges(a, far, 1e-9) == nil {
		t.Fatal("relative 1e-9 passed a weight 1e-6 off")
	}
	swapped := slices.Clone(a)
	swapped[1].B = 6
	if sameEdges(a, swapped, 1e-9) == nil {
		t.Fatal("a different pair passed")
	}
	if sameEdges(a, a[:1], 1e-9) == nil {
		t.Fatal("a shorter list passed")
	}
}
