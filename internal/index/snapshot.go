package index

// Snapshot is a consistent point-in-time summary of the index, the
// online analogue of blocking.Stats plus serving counters.
type Snapshot struct {
	// Shards is the configured shard count.
	Shards int `json:"shards"`
	// Profiles is the number of indexed profiles.
	Profiles int `json:"profiles"`
	// Blocks is the number of live postings (distinct blocking keys).
	Blocks int `json:"blocks"`
	// Assignments is the total number of profile→posting placements.
	Assignments int64 `json:"assignments"`
	// MaxBlockSize is the largest posting.
	MaxBlockSize int `json:"max_block_size"`
	// AvgBlockSize is Assignments/Blocks.
	AvgBlockSize float64 `json:"avg_block_size"`
	// Queries and Upserts count operations served since construction
	// (profiles indexed at construction do not count as upserts; /bulk
	// loads do). Both survive a snapshot save/load cycle.
	Queries int64 `json:"queries"`
	Upserts int64 `json:"upserts"`
	// ReadOnly reports replica mode: the index rejects Upserts.
	ReadOnly bool `json:"read_only"`
	// Seq is the sequence number of the last applied write — the
	// replication clock followers track (oplog.go).
	Seq int64 `json:"seq"`
	// OpLog summarises the retained op window, or nil when the op log
	// is disabled.
	OpLog *OpLogStats `json:"oplog,omitempty"`
	// WAL summarises the durable op log, or nil when none is attached
	// (wal.go).
	WAL *WALStats `json:"wal,omitempty"`
	// Persist describes the durable-snapshot state (last save / restore
	// source), or nil when the index has never been saved or restored.
	Persist *PersistState `json:"persist,omitempty"`
	// Timings summarises the per-stage and per-operation latency
	// histograms (metrics.go): one row per query stage, then the
	// operation totals. Nil when Config.DisableMetrics turned
	// instrumentation off. The full histograms are exposed in Prometheus
	// form by the serving layer's /metrics endpoint; these rows are the
	// JSON digest of the same data.
	Timings []TimingStats `json:"timings,omitempty"`
}

// Snapshot summarises the index. It takes the writer lock, so the totals
// are consistent with each other (no upsert is half-applied in them).
func (x *Index) Snapshot() Snapshot {
	x.writeMu.Lock()
	defer x.writeMu.Unlock()

	s := Snapshot{
		Shards:   len(x.shards),
		Profiles: int(x.numProfiles.Load()),
		Queries:  x.queries.Load(),
		Upserts:  x.upserts.Load(),
		ReadOnly: x.readOnly.Load(),
		Seq:      x.seq.Load(),
	}
	if st, ok := x.PersistState(); ok {
		s.Persist = &st
	}
	if x.oplog != nil {
		st := x.oplog.stats()
		s.OpLog = &st
	}
	if x.wal != nil {
		st := x.wal.stats()
		s.WAL = &st
	}
	if x.metrics != nil {
		s.Timings = x.metrics.timingRows()
	}
	for _, sh := range x.shards {
		sh.mu.RLock()
		s.Blocks += len(sh.postings)
		for _, pl := range sh.postings {
			n := pl.size()
			s.Assignments += int64(n)
			if n > s.MaxBlockSize {
				s.MaxBlockSize = n
			}
		}
		sh.mu.RUnlock()
	}
	if s.Blocks > 0 {
		s.AvgBlockSize = float64(s.Assignments) / float64(s.Blocks)
	}
	return s
}
