package index

// Merge helpers for the scatter-gather serving tier: a coordinator
// fans one query out to shard processes, each of which answers with a
// ranked partial result (possibly a budget-truncated best-first
// prefix), and the partials merge here into one answer that looks like
// a single index produced it.
//
// Shard-local dense profile IDs are meaningless across processes —
// every shard numbers its own profiles from zero — so partial results
// carry each candidate's global identity (original ID + source)
// instead. A shard sends its Partial as a binary frame (AppendPartial,
// DecodePartial in partialwire.go); the JSON tags mirror the serving
// wire format exactly, so the coordinator encodes the merged Partial
// to its client without translation.

import (
	"cmp"
	"slices"
)

// PartialCandidate is one ranked blocking candidate of a shard's
// partial answer, identified globally by (OriginalID, Source).
type PartialCandidate struct {
	OriginalID string  `json:"original_id"`
	Source     int     `json:"source"`
	Weight     float64 `json:"weight"`
	SharedKeys int     `json:"shared_keys"`
}

// PartialMatch is one scored match of a shard's partial answer.
type PartialMatch struct {
	OriginalID string  `json:"original_id"`
	Source     int     `json:"source"`
	Score      float64 `json:"score"`
}

// Partial is one shard's ranked partial answer to a query — the wire
// shape of a /v1/query response with shard-local IDs dropped. A
// truncated Partial is the best-first prefix its shard's budget
// allowed; merging truncated prefixes yields a truncated prefix.
type Partial struct {
	Candidates []PartialCandidate `json:"candidates"`
	Matches    []PartialMatch     `json:"matches"`

	Keys            int `json:"keys"`
	BlocksProbed    int `json:"blocks_probed"`
	BlocksPurged    int `json:"blocks_purged"`
	BlocksFiltered  int `json:"blocks_filtered"`
	PostingsScanned int `json:"postings_scanned"`
	Pruned          int `json:"pruned"`
	Comparisons     int `json:"comparisons"`

	Truncated      bool   `json:"truncated,omitempty"`
	TruncatedStage string `json:"truncated_stage,omitempty"`
}

// MergePartials merges ranked shard answers into one, deterministically:
//
//   - Candidates re-rank by weight descending, ties broken by
//     (OriginalID, Source) ascending — the cross-process analogue of
//     the single-index tie-break on dense profile ID.
//   - Matches re-rank by score descending with the same tie-break.
//   - The work counters (postings scanned, comparisons, purge/filter
//     accounting) sum; Keys takes the maximum, since every shard
//     tokenizes the same query profile and a lagging value only means
//     that shard answered before warming its tokenizer cache.
//   - Truncated flags OR-merge; TruncatedStage is the
//     earliest tripped stage across shards, by pipeline position, so it
//     does not depend on shard arrival order. Unknown names rank last: a
//     merged answer never invents a stage.
//
// Shards own disjoint profile populations (the coordinator routes
// upserts by hash of the original ID), so no deduplication is
// performed: a candidate appearing in two partials is a routing bug,
// not a merge concern. nil entries (failed shards) are skipped — the
// merged answer is the surviving shards' union, which is exactly what
// a degraded scatter-gather serves.
func MergePartials(parts []*Partial) *Partial {
	m := &Partial{}
	truncRank := NumStages + 1
	for _, p := range parts {
		if p == nil {
			continue
		}
		m.Candidates = append(m.Candidates, p.Candidates...)
		m.Matches = append(m.Matches, p.Matches...)
		if p.Keys > m.Keys {
			m.Keys = p.Keys
		}
		m.BlocksProbed += p.BlocksProbed
		m.BlocksPurged += p.BlocksPurged
		m.BlocksFiltered += p.BlocksFiltered
		m.PostingsScanned += p.PostingsScanned
		m.Pruned += p.Pruned
		m.Comparisons += p.Comparisons
		if p.Truncated {
			m.Truncated = true
			r := NumStages
			if s, ok := StageByName(p.TruncatedStage); ok {
				r = int(s)
			}
			if r < truncRank {
				truncRank = r
				m.TruncatedStage = p.TruncatedStage
			}
		}
	}
	slices.SortFunc(m.Candidates, func(a, b PartialCandidate) int {
		if a.Weight != b.Weight {
			return cmp.Compare(b.Weight, a.Weight)
		}
		if a.OriginalID != b.OriginalID {
			return cmp.Compare(a.OriginalID, b.OriginalID)
		}
		return cmp.Compare(a.Source, b.Source)
	})
	slices.SortFunc(m.Matches, func(a, b PartialMatch) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		if a.OriginalID != b.OriginalID {
			return cmp.Compare(a.OriginalID, b.OriginalID)
		}
		return cmp.Compare(a.Source, b.Source)
	})
	return m
}
