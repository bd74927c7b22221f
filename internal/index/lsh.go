package index

// The LSH probe subsystem: a second candidate-generation modality beside
// the token postings. Token blocking finds candidates only through shared
// blocking keys, so a query whose tokens are all purged as too common (or
// filtered as too undistinctive) silently returns nothing even when a
// near-duplicate is indexed. MinHash/LSH covers exactly that regime: each
// profile gets a fixed-length MinHash signature over its whole-profile
// token bag at index/upsert time, the signature is banded into per-shard
// bucket postings that live beside the token postings (same shard locks,
// same add/remove discipline, same purge bound at query time), and a
// probe walks the query's buckets to surface candidates whose overall
// token overlap is high even when no individual token survives blocking.
//
// Probe-only candidates share no blocking key, so the co-occurrence
// weight schemes (CBS/ECBS/JS/ARCS) would score them zero; they are
// weighted by the estimated Jaccard of the two signatures instead (or by
// shared-bucket count, per LSHConfig.Weight).

import (
	"fmt"
	"sync"

	"sparker/internal/lsh"
	"sparker/internal/matching"
)

// ProbePolicy selects when a query runs the LSH probe beside the token
// postings.
type ProbePolicy int

const (
	// ProbeOff disables the probe: queries use token postings only, and
	// results are identical to an index without LSH. The default.
	ProbeOff ProbePolicy = iota
	// ProbeFallback probes LSH only when the token postings produced
	// fewer than LSHConfig.FallbackFloor candidates — the recall safety
	// net for queries whose tokens are all purged or filtered, at zero
	// extra cost for queries token blocking already serves.
	ProbeFallback
	// ProbeUnion always probes LSH and unions its candidates with the
	// token candidates — maximum recall, paying the probe on every query.
	ProbeUnion
)

// String names the policy for flags, stats and reports.
func (p ProbePolicy) String() string {
	switch p {
	case ProbeOff:
		return "off"
	case ProbeFallback:
		return "fallback"
	case ProbeUnion:
		return "union"
	}
	return "unknown"
}

// ParseProbePolicy parses the String form.
func ParseProbePolicy(s string) (ProbePolicy, error) {
	switch s {
	case "off":
		return ProbeOff, nil
	case "fallback":
		return ProbeFallback, nil
	case "union":
		return ProbeUnion, nil
	}
	return ProbeOff, fmt.Errorf("index: unknown probe policy %q (want off, fallback or union)", s)
}

// LSHWeight selects how probe-only candidates (no shared blocking key,
// hence zero under every co-occurrence scheme) are weighted.
type LSHWeight int

const (
	// LSHWeightJaccard weights a probe-only candidate by the estimated
	// Jaccard similarity of its stored MinHash signature and the query's
	// signature — directly comparable across candidates and a consistent
	// [0,1] ranking in fallback mode. The default.
	LSHWeightJaccard LSHWeight = iota
	// LSHWeightBuckets weights by the number of shared LSH buckets.
	LSHWeightBuckets
)

// String names the weighting for flags and reports.
func (w LSHWeight) String() string {
	if w == LSHWeightBuckets {
		return "buckets"
	}
	return "est-jaccard"
}

// LSHConfig configures the LSH probe subsystem. The zero value (Policy
// ProbeOff) disables it entirely: no signatures are computed, no buckets
// are maintained, and queries behave exactly as without it. Any other
// Policy enables maintenance at construction time; per-query overrides
// via ProbeOptions can then select any policy, including off.
type LSHConfig struct {
	// Policy is the default probe policy of Query/Resolve (default off).
	Policy ProbePolicy
	// SignatureLen is the MinHash signature length (default 128). Longer
	// signatures estimate Jaccard more tightly but cost proportionally
	// more per upsert and per probe.
	SignatureLen int
	// Threshold is the target Jaccard similarity of the banding layout
	// (default 0.5): bands and rows are chosen so pairs at least this
	// similar are likely to share a bucket. Lower thresholds catch less
	// similar pairs at the price of larger, noisier buckets.
	Threshold float64
	// Seed seeds the MinHash permutations deterministically (default 1).
	// Signatures from different seeds are incomparable; a snapshot
	// records its seed and restores it.
	Seed int64
	// FallbackFloor is the ProbeFallback trigger: probe LSH when the
	// token postings produced fewer than this many candidates (default 1,
	// i.e. only when token blocking found nothing).
	FallbackFloor int
	// Weight selects probe-only candidate weighting (default
	// LSHWeightJaccard).
	Weight LSHWeight
}

// withDefaults resolves zero fields to their documented defaults. A zero
// Policy keeps the whole subsystem disabled.
func (c LSHConfig) withDefaults() LSHConfig {
	if c.Policy == ProbeOff {
		return c
	}
	if c.SignatureLen <= 0 {
		c.SignatureLen = 128
	}
	// Mirror the snapshot decoder's bound so a successful Save is always
	// loadable.
	if c.SignatureLen > maxSnapshotSigLen {
		c.SignatureLen = maxSnapshotSigLen
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		c.Threshold = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FallbackFloor < 1 {
		c.FallbackFloor = 1
	}
	return c
}

// ProbeOptions overrides the probe behaviour of one query; the zero
// value means "the index's configured defaults".
type ProbeOptions struct {
	// Policy overrides LSHConfig.Policy for this query. On an index that
	// maintains no signatures (LSH disabled at construction), every
	// policy behaves as ProbeOff.
	Policy ProbePolicy
	// Floor overrides LSHConfig.FallbackFloor (0 keeps the default).
	Floor int
}

// lshState is the probe subsystem's per-index state, nil when disabled.
type lshState struct {
	hasher *lsh.MinHasher
	bands  int
	rows   int
	pool   sync.Pool // *lshScratch
}

// newLSHState builds the subsystem from a resolved LSHConfig, or returns
// nil when the policy is off.
func newLSHState(cfg LSHConfig) *lshState {
	if cfg.Policy == ProbeOff {
		return nil
	}
	st := &lshState{hasher: lsh.NewMinHasher(cfg.SignatureLen, cfg.Seed)}
	st.bands, st.rows = lsh.BandingParams(cfg.SignatureLen, cfg.Threshold)
	return st
}

// lshOn reports whether the index maintains signatures and buckets.
func (x *Index) lshOn() bool { return x.lsh != nil }

// LSHEnabled reports whether the index maintains LSH signatures — the
// precondition for any non-off probe policy, per query or configured.
func (x *Index) LSHEnabled() bool { return x.lshOn() }

// ProbePolicy returns the configured default probe policy, the one
// Query and Resolve apply when no per-query override is given.
func (x *Index) ProbePolicy() ProbePolicy { return x.cfg.LSH.Policy }

// lshScratch is the pooled per-probe workspace: the query's signature,
// reused across probes so the query hot path stays allocation-free at
// steady state. Band keys need no buffer — they are derived one at a
// time inside the probe loop.
type lshScratch struct {
	sig []uint64
}

func (st *lshState) getScratch() *lshScratch {
	s, _ := st.pool.Get().(*lshScratch)
	if s == nil {
		s = &lshScratch{}
	}
	return s
}

func (st *lshState) putScratch(s *lshScratch) {
	s.sig = s.sig[:0]
	st.pool.Put(s)
}

// signatureOf computes the retained MinHash signature of a stored
// profile from its token bag, or nil for an empty bag (an all-max
// signature would collide with every other empty profile in every
// bucket). The cached distinct bag is reused when present; duplicates
// would not change a MinHash anyway.
func (x *Index) signatureOf(sp *storedProfile) []uint64 {
	bag := sp.bag
	if bag == nil {
		bag = matching.ProfileBag(&sp.p, x.cfg.Tokenizer)
	}
	if len(bag) == 0 {
		return nil
	}
	return x.lsh.hasher.Signature(bag)
}

// addLSHLocked installs a signed profile's band buckets on their shards.
// Caller holds writeMu; the per-shard locks serialize against readers.
func (x *Index) addLSHLocked(sp *storedProfile) {
	if sp.sig == nil {
		return
	}
	for b := 0; b < x.lsh.bands; b++ {
		key := lsh.BandKey(sp.sig, b, x.lsh.rows)
		s := x.bucketShard(key)
		s.mu.Lock()
		pl := s.buckets[key]
		if pl == nil {
			pl = &posting{cluster: -1}
			s.buckets[key] = pl
			x.numBuckets.Add(1)
		}
		if x.clean && sp.p.SourceID == 1 {
			pl.b = append(pl.b, sp.p.ID)
		} else {
			pl.a = append(pl.a, sp.p.ID)
		}
		s.mu.Unlock()
	}
}

// removeLSHLocked is addLSHLocked's inverse, with the same
// empty-posting tombstone discipline as the token postings: a bucket
// emptied by removals is deleted outright, never left as a husk.
func (x *Index) removeLSHLocked(sp *storedProfile) {
	if sp.sig == nil {
		return
	}
	id := sp.p.ID
	for b := 0; b < x.lsh.bands; b++ {
		key := lsh.BandKey(sp.sig, b, x.lsh.rows)
		s := x.bucketShard(key)
		s.mu.Lock()
		if pl := s.buckets[key]; pl != nil {
			if x.clean && sp.p.SourceID == 1 {
				pl.b = removeID(pl.b, id)
			} else {
				pl.a = removeID(pl.a, id)
			}
			if pl.size() == 0 {
				delete(s.buckets, key)
				x.numBuckets.Add(-1)
			}
		}
		s.mu.Unlock()
	}
}

// bucketShard places a band key on its shard.
func (x *Index) bucketShard(key uint64) *shard {
	return x.shards[int(key%uint64(len(x.shards)))]
}

// querySignature signs the query's token bag into the pooled scratch,
// returning nil for an empty bag.
func (x *Index) querySignature(ls *lshScratch, bag []string) []uint64 {
	if len(bag) == 0 {
		return nil
	}
	ls.sig = x.lsh.hasher.AppendSignature(ls.sig, bag)
	return ls.sig
}

// LSHStats summarises the probe subsystem for Snapshot and /stats.
type LSHStats struct {
	// Policy is the configured default probe policy.
	Policy string `json:"policy"`
	// SignatureLen, Bands and Rows describe the MinHash/banding layout.
	SignatureLen int `json:"signature_len"`
	Bands        int `json:"bands"`
	Rows         int `json:"rows"`
	// Buckets is the number of live bucket postings across shards.
	Buckets int `json:"buckets"`
	// Probes counts queries that ran an LSH probe (under fallback, only
	// queries that actually fell through the floor).
	Probes int64 `json:"probes"`
	// ProbeOnlyCandidates counts candidates surfaced by the probe alone,
	// i.e. sharing no blocking key with their query.
	ProbeOnlyCandidates int64 `json:"probe_only_candidates"`
	// FallbackRate is the fraction of all queries that triggered a
	// probe: near zero under ProbeFallback when token blocking serves
	// almost everything (the healthy state), 1.0 under ProbeUnion. A
	// climbing rate under fallback means queries increasingly miss the
	// token postings — the drift signal /metrics exports.
	FallbackRate float64 `json:"fallback_rate"`
}
