package index

import (
	"sparker/internal/obs"
)

// Stage identifies one timed stage of the online query path. The stages
// are contiguous: a query's StageNanos slots sum to its wall time, so
// the per-stage histograms decompose the query latency histogram
// exactly — the telemetry the paper's cost analysis (candidate
// generation vs pruning vs scoring) needs per request instead of per
// batch run.
type Stage int

const (
	// StageTokenize covers blocking-key derivation from the query profile.
	StageTokenize Stage = iota
	// StagePurgeFilter covers the posting size probe, online block
	// purging and block filtering (pass 1).
	StagePurgeFilter
	// StageCandidates covers the token posting scans accumulating
	// co-occurrence statistics (pass 2, candidate generation).
	StageCandidates
	// StageWeigh covers scheme weighting and candidate ranking.
	StageWeigh
	// StagePrune covers the pruning rule.
	StagePrune
	// StageScore covers Resolve's similarity scoring of the surviving
	// candidates.
	StageScore

	// NumStages sizes per-stage arrays.
	NumStages = int(StageScore) + 1
)

// String names the stage for /stats rows, /metrics labels and ?debug=1.
func (s Stage) String() string {
	switch s {
	case StageTokenize:
		return "tokenize"
	case StagePurgeFilter:
		return "purge_filter"
	case StageCandidates:
		return "candidates"
	case StageWeigh:
		return "weigh"
	case StagePrune:
		return "prune"
	case StageScore:
		return "score"
	}
	return "unknown"
}

// StageByName maps a stage name from the wire (a shard's ?debug=1 rows,
// a partial answer's truncated_stage) back onto its pipeline position;
// false for a name this build does not know.
func StageByName(name string) (Stage, bool) {
	for s := Stage(0); int(s) < NumStages; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// Metrics is the observability core of one index: per-stage latency
// histograms plus operation-level histograms and gauges, all atomic and
// allocation-free on the hot path (see internal/obs). Enabled by
// default; Config.DisableMetrics turns it off wholesale, which is what
// the instrumented-vs-bare benchmark pair measures the overhead with.
type Metrics struct {
	// Stages holds one latency histogram (nanoseconds) per query stage.
	// Every query observes into tokenize..prune; only Resolve calls
	// observe into score.
	Stages [NumStages]obs.Histogram
	// Query is the whole candidate-generation latency (sum of the
	// tokenize..prune stages); Resolve adds scoring on top.
	Query   obs.Histogram
	Resolve obs.Histogram
	// Upsert is the write-path latency (key derivation plus posting
	// updates), successful upserts only.
	Upsert obs.Histogram
	// Save and Load time durable-snapshot encodes and restores
	// (persist.go).
	Save obs.Histogram
	Load obs.Histogram
	// WALAppend times one durable-log append (frame write plus, under
	// WALSyncAlways, its fsync) — the write-path latency the fsync
	// policy choice trades against durability (wal.go).
	WALAppend obs.Histogram
	// Comparisons counts candidates actually scored per Resolve — the
	// per-query matcher work the comparison-budget work needs to see.
	Comparisons obs.Histogram
	// Candidates counts ranked candidates returned per query (after
	// pruning).
	Candidates obs.Histogram
	// SnapshotBytes is the encoded size of the last successful Save.
	SnapshotBytes obs.Gauge
}

// Metrics returns the index's metrics core, or nil when
// Config.DisableMetrics turned instrumentation off.
func (x *Index) Metrics() *Metrics { return x.metrics }

// TimingStats is one row of Snapshot.Timings: a latency histogram
// summarised for the JSON /stats surface. Quantiles are log2-bucket
// upper bounds — at most 2x above the true value.
type TimingStats struct {
	Stage   string  `json:"stage"`
	Count   uint64  `json:"count"`
	TotalMs float64 `json:"total_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
}

// timingRows summarises every histogram for Snapshot: the six query
// stages first, then the operation-level totals. The row set is fixed
// so the JSON shape is stable from the first scrape.
func (m *Metrics) timingRows() []TimingStats {
	rows := make([]TimingStats, 0, NumStages+6)
	for s := Stage(0); int(s) < NumStages; s++ {
		rows = append(rows, timingRow(s.String(), &m.Stages[s]))
	}
	rows = append(rows,
		timingRow("query_total", &m.Query),
		timingRow("resolve_total", &m.Resolve),
		timingRow("upsert", &m.Upsert),
		timingRow("snapshot_save", &m.Save),
		timingRow("snapshot_load", &m.Load),
		timingRow("wal_append", &m.WALAppend),
	)
	return rows
}

func timingRow(name string, h *obs.Histogram) TimingStats {
	s := h.Snapshot()
	return TimingStats{
		Stage:   name,
		Count:   s.Count,
		TotalMs: float64(s.Sum) / 1e6,
		P50Ms:   s.Quantile(0.5) / 1e6,
		P99Ms:   s.Quantile(0.99) / 1e6,
	}
}
