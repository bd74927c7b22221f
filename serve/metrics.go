package serve

// The single-node Prometheus /metrics endpoint: the index's gauges and
// per-stage query histograms, then the front end's admission and
// per-route HTTP families (frontend.writeMetrics), in the text
// exposition format — one scrape answers both "is the HTTP surface
// healthy" and "where do queries spend their time".

import (
	"sparker/internal/index"
	"sparker/internal/obs"
)

// metrics renders the single node's part of GET /metrics: the index,
// replication and budget telemetry.
func (h *Handler) metrics(e *obs.Expo) {
	x := h.Index()
	snap := x.Snapshot()
	e.Gauge("sparker_index_profiles", "Indexed profiles.", float64(snap.Profiles))
	e.Gauge("sparker_index_blocks", "Live postings (distinct blocking keys).", float64(snap.Blocks))
	e.Gauge("sparker_index_assignments", "Profile-to-posting placements.", float64(snap.Assignments))
	e.Gauge("sparker_index_max_block_size", "Largest posting.", float64(snap.MaxBlockSize))
	e.Gauge("sparker_index_read_only", "1 when the index is a read-only replica.", boolGauge(snap.ReadOnly))
	e.Counter("sparker_index_queries_total", "Queries served since construction.", float64(snap.Queries))
	e.Counter("sparker_index_upserts_total", "Upserts applied since construction.", float64(snap.Upserts))
	e.Gauge("sparker_index_seq", "Highest applied op sequence number.", float64(snap.Seq))

	if snap.OpLog != nil {
		e.Gauge("sparker_oplog_ops", "Op frames retained in the in-memory op log.", float64(snap.OpLog.Ops))
		e.Gauge("sparker_oplog_bytes", "Bytes retained in the in-memory op log.", float64(snap.OpLog.Bytes))
		e.Gauge("sparker_oplog_floor_seq", "Oldest sequence number still served by /v1/deltas.", float64(snap.OpLog.FloorSeq))
		e.Counter("sparker_oplog_appended_total", "Op frames appended to the op log since construction.", float64(snap.OpLog.Appended))
	}

	if snap.WAL != nil {
		e.Gauge("sparker_wal_segments", "On-disk WAL segment files (active included).", float64(snap.WAL.Segments))
		e.Gauge("sparker_wal_bytes", "Bytes across all WAL segments.", float64(snap.WAL.Bytes))
		e.Gauge("sparker_wal_first_seq", "Oldest sequence number retained in the WAL.", float64(snap.WAL.FirstSeq))
		e.Gauge("sparker_wal_last_seq", "Newest sequence number appended to the WAL.", float64(snap.WAL.LastSeq))
		e.Counter("sparker_wal_appends_total", "Op frames appended to the WAL since open.", float64(snap.WAL.Appended))
		e.Counter("sparker_wal_syncs_total", "fsyncs issued by the WAL (policy, rotation and close).", float64(snap.WAL.Syncs))
		e.Counter("sparker_wal_rotations_total", "WAL segment rotations.", float64(snap.WAL.Rotations))
		e.Counter("sparker_wal_pruned_segments_total", "WAL segments deleted by snapshot-bounded retention.", float64(snap.WAL.PrunedSegments))
	}

	if m := x.Metrics(); m != nil {
		for s := 0; s < index.NumStages; s++ {
			e.Histogram("sparker_query_stage_seconds", "Per-stage query latency.",
				m.Stages[s].Snapshot(), 1e-9, obs.Label{Name: "stage", Value: index.Stage(s).String()})
		}
		e.Histogram("sparker_query_seconds", "Candidate-generation latency (all stages before scoring).", m.Query.Snapshot(), 1e-9)
		e.Histogram("sparker_resolve_seconds", "Full resolution latency (query plus scoring).", m.Resolve.Snapshot(), 1e-9)
		e.Histogram("sparker_upsert_seconds", "Upsert latency.", m.Upsert.Snapshot(), 1e-9)
		e.Histogram("sparker_query_candidates", "Ranked candidates returned per query.", m.Candidates.Snapshot(), 1)
		e.Histogram("sparker_resolve_comparisons", "Candidates scored per resolve.", m.Comparisons.Snapshot(), 1)
		e.Histogram("sparker_snapshot_save_seconds", "Durable snapshot save latency.", m.Save.Snapshot(), 1e-9)
		e.Histogram("sparker_snapshot_load_seconds", "Durable snapshot restore latency.", m.Load.Snapshot(), 1e-9)
		e.Histogram("sparker_wal_append_seconds", "Durable op-log append latency (including fsync under the always policy).", m.WALAppend.Snapshot(), 1e-9)
		e.Gauge("sparker_snapshot_bytes", "Encoded size of the last snapshot.", float64(m.SnapshotBytes.Load()))
	}

	// Replication telemetry, present only on a following replica: lag is
	// the first thing an operator checks before trusting this replica's
	// answers, applied/resync counters tell whether the feed is healthy
	// or thrashing through full re-bootstraps.
	if h.opts.Follower != nil {
		rs := h.opts.Follower.Stats()
		e.Gauge("sparker_replication_ready", "1 once the follower has bootstrapped from its leader.", boolGauge(rs.Ready))
		e.Gauge("sparker_replication_lag_seconds", "Seconds between the newest applied op's leader timestamp and now.", rs.LagSeconds)
		e.Gauge("sparker_replication_applied_seq", "Highest op sequence number applied locally.", float64(rs.AppliedSeq))
		e.Gauge("sparker_replication_leader_seq", "Highest op sequence number reported by the leader.", float64(rs.LeaderSeq))
		e.Counter("sparker_replication_applied_ops_total", "Op frames applied from the delta feed.", float64(rs.AppliedOps))
		e.Counter("sparker_replication_resyncs_total", "Full re-bootstraps after falling off the leader's op-log window.", float64(rs.Resyncs))
		e.Counter("sparker_replication_errors_total", "Failed delta polls (network, decode or apply errors).", float64(rs.Errors))
	}

	e.Histogram("sparker_query_budget_spent_comparisons", "Comparisons spent per budgeted query.", h.budgetSpent.Snapshot(), 1)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
