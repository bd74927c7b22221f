package index

import (
	"path/filepath"
	"testing"

	"sparker/internal/profile"
)

func metricsTestIndex(t *testing.T, cfg Config) *Index {
	t.Helper()
	mk := func(src int, id, text string) profile.Profile {
		p := profile.Profile{OriginalID: id, SourceID: src}
		p.Add("name", text)
		return p
	}
	x := New(true, cfg)
	for _, p := range []profile.Profile{
		mk(0, "a1", "acme turbo blender kitchen"),
		mk(0, "a2", "zenix portable speaker"),
		mk(1, "b1", "acme turbo blender refurbished"),
		mk(1, "b2", "zenix speaker portable bluetooth"),
	} {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

// TestMetricsRecording drives one resolve through an instrumented index
// and checks every stage histogram, the operation histograms and the
// query's own StageNanos breakdown line up.
func TestMetricsRecording(t *testing.T) {
	x := metricsTestIndex(t, DefaultConfig())
	m := x.Metrics()
	if m == nil {
		t.Fatal("metrics disabled by default")
	}
	if got := m.Upsert.Snapshot().Count; got != 4 {
		t.Fatalf("upsert observations = %d, want 4", got)
	}

	q := profile.Profile{OriginalID: "probe"}
	q.Add("name", "acme turbo blender")
	r := x.Resolve(&q)

	for s := StageTokenize; s <= StageScore; s++ {
		if got := m.Stages[s].Snapshot().Count; got != 1 {
			t.Errorf("stage %s observations = %d, want 1", s, got)
		}
	}
	if got := m.Query.Snapshot().Count; got != 1 {
		t.Errorf("query observations = %d, want 1", got)
	}
	if got := m.Resolve.Snapshot().Count; got != 1 {
		t.Errorf("resolve observations = %d, want 1", got)
	}
	cs := m.Comparisons.Snapshot()
	if cs.Count != 1 || cs.Sum != int64(r.Comparisons) {
		t.Errorf("comparisons histogram count=%d sum=%d, want 1/%d", cs.Count, cs.Sum, r.Comparisons)
	}
	if got := m.Candidates.Snapshot().Sum; got != int64(len(r.Query.Candidates)) {
		t.Errorf("candidates histogram sum = %d, want %d", got, len(r.Query.Candidates))
	}

	// The per-query breakdown is contiguous: stage nanos sum to the
	// resolve total the histogram recorded.
	var total int64
	for _, n := range r.Query.StageNanos {
		total += n
	}
	if total <= 0 {
		t.Errorf("stage nanos sum = %d, want positive", total)
	}
	if got := m.Resolve.Snapshot().Sum; got != total {
		t.Errorf("resolve histogram sum = %d, stage nanos sum = %d", got, total)
	}
}

// TestMetricsDisabled pins the opt-out: no metrics object, no timings
// in the snapshot, zeroed per-query breakdown — and queries still work.
func TestMetricsDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableMetrics = true
	x := metricsTestIndex(t, cfg)
	if x.Metrics() != nil {
		t.Fatal("metrics present despite DisableMetrics")
	}
	q := profile.Profile{OriginalID: "probe"}
	q.Add("name", "acme turbo blender")
	r := x.Resolve(&q)
	if len(r.Query.Candidates) == 0 {
		t.Fatal("bare index returned no candidates")
	}
	for s, n := range r.Query.StageNanos {
		if n != 0 {
			t.Errorf("stage %s nanos = %d on a bare index, want 0", Stage(s), n)
		}
	}
	if x.Snapshot().Timings != nil {
		t.Error("snapshot carries timings on a bare index")
	}
}

// TestSnapshotTimings checks the /stats digest: a fixed row set with
// the stage rows first and consistent count/total/quantile fields.
func TestSnapshotTimings(t *testing.T) {
	x := metricsTestIndex(t, DefaultConfig())
	q := profile.Profile{OriginalID: "probe"}
	q.Add("name", "acme turbo blender")
	x.Resolve(&q)

	rows := x.Snapshot().Timings
	if len(rows) != NumStages+6 {
		t.Fatalf("timing rows = %d, want %d", len(rows), NumStages+6)
	}
	byName := map[string]TimingStats{}
	for _, r := range rows {
		byName[r.Stage] = r
	}
	for i := 0; i < NumStages; i++ {
		if rows[i].Stage != Stage(i).String() {
			t.Errorf("row %d = %q, want %q", i, rows[i].Stage, Stage(i))
		}
	}
	qt := byName["query_total"]
	if qt.Count != 1 || qt.TotalMs < 0 || qt.P99Ms < qt.P50Ms {
		t.Errorf("query_total row inconsistent: %+v", qt)
	}
	if byName["upsert"].Count != 4 {
		t.Errorf("upsert row count = %d, want 4", byName["upsert"].Count)
	}
}

// TestMetricsSaveLoad checks the snapshot persistence histograms.
func TestMetricsSaveLoad(t *testing.T) {
	x := metricsTestIndex(t, DefaultConfig())
	path := filepath.Join(t.TempDir(), "m.snap")
	st, err := x.Save(path)
	if err != nil {
		t.Fatal(err)
	}
	m := x.Metrics()
	if got := m.Save.Snapshot().Count; got != 1 {
		t.Errorf("save observations = %d, want 1", got)
	}
	if got := m.SnapshotBytes.Load(); got != st.Bytes {
		t.Errorf("snapshot bytes gauge = %d, want %d", got, st.Bytes)
	}
	y, err := Load(path, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ym := y.Metrics()
	if got := ym.Load.Snapshot().Count; got != 1 {
		t.Errorf("load observations = %d, want 1", got)
	}
	if got := ym.SnapshotBytes.Load(); got != st.Bytes {
		t.Errorf("restored snapshot bytes gauge = %d, want %d", got, st.Bytes)
	}
}
