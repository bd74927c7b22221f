// Package index provides an online, incrementally maintainable entity
// index: the serving-side counterpart of the batch blocker. It is built
// once from a profile collection with the same tokenize/blocking key
// machinery the pipeline uses, sharded by token hash into independent
// inverted token→posting indexes, and then answers point lookups without
// re-running the batch pipeline:
//
//	Query(p)   — rank the candidate matches of one profile by probing only
//	             the postings its blocking keys hit, weighting candidates
//	             with the meta-blocking schemes (CBS/ECBS/JS/ARCS) and
//	             pruning them WNP-style (local mean) or CNP-style (top-k).
//	Upsert(p)  — insert or replace one profile, touching only the postings
//	             of its blocking keys.
//	Resolve(p) — Query plus similarity scoring with a matching.Measure,
//	             the online analogue of the batch matcher stage.
//
// Concurrency model: queries take only per-shard read locks and scale
// across cores; writes (Upsert, bulk loading) are serialized by a single
// writer lock and take per-shard write locks one shard at a time, so a
// query never blocks for longer than one posting update. Snapshot locks
// out writers and reports consistent totals.
package index

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"sparker/internal/blocking"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/obs"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// PruneRule selects how a query's ranked candidates are pruned, mirroring
// the node-centric meta-blocking rules.
type PruneRule int

const (
	// PruneTopK keeps the MaxCandidates heaviest candidates (CNP-style),
	// bounding per-query matcher work to a constant. The default.
	PruneTopK PruneRule = iota
	// PruneMean keeps candidates at or above the mean weight of the
	// query's neighbourhood (WNP-style).
	PruneMean
	// PruneNone returns every co-occurring candidate.
	PruneNone
)

// String names the rule for reports.
func (r PruneRule) String() string {
	switch r {
	case PruneMean:
		return "mean"
	case PruneTopK:
		return "top-k"
	case PruneNone:
		return "none"
	}
	return "unknown"
}

// Config holds the tunables of an entity index. The zero value is usable;
// DefaultConfig documents the defaults it resolves to.
type Config struct {
	// Shards is the number of independent token shards (default 16).
	Shards int
	// Tokenizer derives blocking keys and matcher token bags.
	Tokenizer tokenize.Options
	// Scheme weights candidates (CBS, ECBS, JS, ARCS). EJS scales JS by
	// the blocking graph's node degrees, which an online index does not
	// maintain: withDefaults resolves it to JS.
	Scheme metablocking.Scheme
	// MaxBlockFraction is the online analogue of block purging: postings
	// holding more than this fraction of the indexed profiles are skipped
	// at query time (default 0.5; set to 1 to disable).
	MaxBlockFraction float64
	// FilterRatio is the online analogue of block filtering: of the
	// postings a query hits, only the smallest ceil(ratio·n) are scanned,
	// dropping the least distinctive (largest) ones (default 0.8, the
	// pipeline default; set to 1 to disable).
	FilterRatio float64
	// Prune selects the candidate pruning rule (default PruneTopK).
	Prune PruneRule
	// MaxCandidates is the k of PruneTopK (default 10).
	MaxCandidates int
	// Measure scores Resolve candidates (default whole-profile Jaccard
	// with Tokenizer). Leave nil for the default: Resolve then scores
	// candidates from token bags cached at upsert time instead of
	// re-tokenizing both profiles per comparison (bitwise-identical
	// scores, far fewer allocations per query).
	Measure matching.Measure
	// MatchThreshold labels a Resolve candidate a match at or above it.
	// Zero resolves to 0.3 (the unsupervised pipeline default); use a
	// negative value to keep every scored candidate.
	MatchThreshold float64
	// OpLog enables the bounded in-memory op log (oplog.go): every
	// upsert is framed and retained, enabling HTTP replication to
	// followers (OpsSince/ApplyOps) and the durable WAL (OpenWAL). The
	// zero value disables it and upserts cost nothing extra.
	OpLog OpLogConfig
	// DisableMetrics turns off the per-stage timing and histogram
	// recording of the query/upsert hot paths (metrics.go): Metrics()
	// returns nil, Snapshot carries no timings, and the ?debug=1 stage
	// breakdown reads zeros. Servers leave it off; the bare benchmark
	// variant uses it to price the instrumentation.
	DisableMetrics bool
	// ScoreHook, when non-nil, runs once per candidate comparison in
	// Resolve before the similarity measure — the fault-injection
	// surface: overload tests install a sleeping or blocking hook to
	// simulate slow scoring and drive the serving tier's admission gate
	// and degradation ladder. Nil (the default) costs one predictable
	// branch per comparison and changes nothing.
	ScoreHook func()

	// defaultJaccard records that Measure was nil and withDefaults
	// installed the whole-profile Jaccard, enabling the cached-bag scorer.
	defaultJaccard bool
}

// DefaultConfig is the unsupervised serving configuration: schema-agnostic
// keys, CBS weights, CNP-style top-10 pruning (bounding per-query matcher
// work to a constant), Jaccard matching.
func DefaultConfig() Config {
	return Config{
		Shards:           16,
		Scheme:           metablocking.CBS,
		MaxBlockFraction: 0.5,
		FilterRatio:      blocking.DefaultFilterRatio,
		Prune:            PruneTopK,
		MaxCandidates:    10,
		MatchThreshold:   0.3,
	}
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.MaxBlockFraction <= 0 {
		c.MaxBlockFraction = 0.5
	}
	if c.FilterRatio <= 0 {
		c.FilterRatio = blocking.DefaultFilterRatio
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 10
	}
	if c.Scheme == metablocking.EJS {
		c.Scheme = metablocking.JS // no node degrees online: see Scheme
	}
	if c.MatchThreshold == 0 {
		c.MatchThreshold = 0.3 // negative = keep every scored candidate
	}
	if c.Measure == nil {
		c.Measure = matching.JaccardMeasure(c.Tokenizer)
		c.defaultJaccard = true
	}
	c.OpLog = c.OpLog.withDefaults()
	return c
}

// posting is the online form of a block: the profiles one blocking key
// currently hits, split by source for clean-clean tasks.
type posting struct {
	a, b []profile.ID
}

// size returns the number of profiles in the posting.
func (pl *posting) size() int { return len(pl.a) + len(pl.b) }

// comparisons returns the comparison cardinality of the posting, the
// quantity ARCS weights by.
func (pl *posting) comparisons(clean bool) float64 {
	var c float64
	if clean {
		c = float64(len(pl.a)) * float64(len(pl.b))
	} else {
		n := float64(len(pl.a))
		c = n * (n - 1) / 2
	}
	if c < 1 {
		c = 1
	}
	return c
}

// shard is one independently locked slice of the token space.
type shard struct {
	mu       sync.RWMutex
	postings map[string]*posting
}

// storedProfile is an immutable snapshot of one indexed profile; Upsert
// replaces the whole struct, so readers holding a pointer stay safe.
type storedProfile struct {
	p    profile.Profile
	keys []blocking.KeyedToken
	// bag is the distinct whole-profile token set, cached for the default
	// Jaccard scorer (nil when a custom Measure is configured).
	bag []string
}

// Index is a concurrent, sharded, incrementally maintainable entity index.
type Index struct {
	cfg   Config
	opts  blocking.Options
	clean bool

	shards []*shard

	// writeMu serializes all structural writes (Upsert, bulk load); reads
	// never take it.
	writeMu sync.Mutex
	mu      sync.RWMutex // guards the profile maps below
	byID    map[profile.ID]*storedProfile
	byOrig  map[string]profile.ID
	nextID  profile.ID

	numProfiles atomic.Int64
	numBlocks   atomic.Int64
	queries     atomic.Int64
	upserts     atomic.Int64

	// seq numbers applied writes 1, 2, 3, … — the replication clock: a
	// snapshot records it, op frames carry it, and followers track
	// it. Advanced under writeMu; read lock-free (Seq, OpsSince).
	seq atomic.Int64
	// oplog retains recent op frames for follower streaming (nil unless
	// Config.OpLog.Enabled).
	oplog *opLog
	// wal is the durable half of the op log (wal.go): frames are
	// appended to disk segments before the in-memory structures are
	// touched. Nil until OpenWAL attaches it; guarded by writeMu.
	wal *wal

	// idBound is one past the largest internal ID ever assigned; the
	// query path sizes its flat candidate scratch to it.
	idBound     atomic.Int64
	scratchPool sync.Pool

	// metrics is the per-stage/operation histogram core (nil when
	// cfg.DisableMetrics): hot paths record into it with atomic adds
	// only, never allocating or locking.
	metrics *Metrics

	// readOnly marks a replica: Upsert returns ErrReadOnly (persist.go).
	readOnly atomic.Bool
	// restored marks an index built by Load/Decode rather than from a
	// collection; persist carries the durable-snapshot metadata.
	restored  bool
	persistMu sync.Mutex
	persist   PersistState
	// imageBytes is the size of the last snapshot encoded or decoded, the
	// buffer hint of the next Image.
	imageBytes atomic.Int64
	// saveMu serializes Save end to end (open, encode, fsync, rename):
	// concurrent saves to one path would share the fixed temp file, and
	// writeMu alone does not cover the file I/O around the encode.
	saveMu sync.Mutex
}

// New creates an empty index; clean selects clean-clean semantics (two
// duplicate-free sources, queries from one source only match the other).
func New(clean bool, cfg Config) *Index {
	cfg = cfg.withDefaults()
	x := &Index{
		cfg:    cfg,
		opts:   blocking.Options{Tokenizer: cfg.Tokenizer},
		clean:  clean,
		shards: make([]*shard, cfg.Shards),
		byID:   make(map[profile.ID]*storedProfile),
		byOrig: make(map[string]profile.ID),
	}
	if !cfg.DisableMetrics {
		x.metrics = &Metrics{}
	}
	if cfg.OpLog.Enabled {
		x.oplog = newOpLog(cfg.OpLog)
	}
	for i := range x.shards {
		x.shards[i] = &shard{postings: make(map[string]*posting)}
	}
	return x
}

// NewFromCollection builds the index from a batch collection, preserving
// its internal profile IDs so that evaluation against an existing ground
// truth keeps working.
func NewFromCollection(c *profile.Collection, cfg Config) (*Index, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	x := New(c.IsClean(), cfg)
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	for i := range c.Profiles {
		p := c.Profiles[i]
		if _, ok := x.byOrig[origKey(&p)]; ok {
			return nil, fmt.Errorf("index: duplicate profile %d:%s", p.SourceID, p.OriginalID)
		}
		x.putLocked(p)
		if p.ID >= x.nextID {
			x.nextID = p.ID + 1
		}
	}
	return x, nil
}

// Clean reports whether the index uses clean-clean semantics.
func (x *Index) Clean() bool { return x.clean }

// Size returns the number of indexed profiles.
func (x *Index) Size() int { return int(x.numProfiles.Load()) }

// origKey is the replacement identity of a profile: source + original ID.
func origKey(p *profile.Profile) string {
	return strconv.Itoa(p.SourceID) + "|" + p.OriginalID
}

// shardFor hashes a blocking key onto its shard with inline FNV-1a —
// hash.Hash32 would heap-allocate on every key of the query/upsert hot
// paths.
func (x *Index) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return x.shards[int(h%uint32(len(x.shards)))]
}

// Upsert inserts the profile, or replaces the previous profile with the
// same (source, original ID), updating only the postings of the removed
// and added blocking keys. It returns the internal ID and whether the
// profile was newly created.
func (x *Index) Upsert(p profile.Profile) (profile.ID, bool, error) {
	if x.readOnly.Load() {
		return 0, false, ErrReadOnly
	}
	m := x.metrics
	var start int64
	if m != nil {
		start = obs.Now()
	}
	if x.clean && p.SourceID != 0 && p.SourceID != 1 {
		return 0, false, fmt.Errorf("index: clean-clean upsert needs SourceID 0 or 1, got %d", p.SourceID)
	}
	if !x.clean {
		p.SourceID = 0
	}
	x.writeMu.Lock()
	defer x.writeMu.Unlock()

	oldID, replacing := x.lookupOrig(origKey(&p))
	if replacing {
		p.ID = oldID
	} else {
		p.ID = x.nextID
	}
	rec, err := x.nextOpRec(&p)
	if err == nil {
		err = x.commitLocked(p, replacing, rec)
	}
	if err != nil {
		return 0, false, err
	}
	if m != nil {
		m.Upsert.Observe(obs.Now() - start)
	}
	return p.ID, !replacing, nil
}

// Get returns a copy of the indexed profile with the given internal ID.
// The attribute slice is copied too, so callers may mutate the result
// without racing against concurrent readers of the stored profile.
func (x *Index) Get(id profile.ID) (profile.Profile, bool) {
	x.mu.RLock()
	sp, ok := x.byID[id]
	x.mu.RUnlock()
	if !ok {
		return profile.Profile{}, false
	}
	p := sp.p
	p.Attributes = append([]profile.KeyValue(nil), sp.p.Attributes...)
	return p, true
}

// Meta returns a profile's identity fields without copying its
// attributes — cheaper than Get's defensive attribute copy. A Resolution
// already carries the identities of its candidates and matches.
func (x *Index) Meta(id profile.ID) (originalID string, sourceID int, ok bool) {
	x.mu.RLock()
	sp, found := x.byID[id]
	x.mu.RUnlock()
	if !found {
		return "", 0, false
	}
	return sp.p.OriginalID, sp.p.SourceID, true
}

// lookupOrig resolves a (source, original ID) identity under the read lock.
func (x *Index) lookupOrig(key string) (profile.ID, bool) {
	x.mu.RLock()
	id, ok := x.byOrig[key]
	x.mu.RUnlock()
	return id, ok
}

// putLocked indexes one profile, replacing the stored profile of the same
// ID if unlinkLocked left one. Caller holds writeMu; p.ID is final. The
// profile maps are written before any posting names the ID, so a reader
// that finds the ID in a posting always finds a profile behind it.
func (x *Index) putLocked(p profile.Profile) {
	if b := int64(p.ID) + 1; b > x.idBound.Load() {
		x.idBound.Store(b)
	}
	sp := &storedProfile{p: p}
	sp.keys, sp.bag = x.keysAndBag(&p)
	x.mu.Lock()
	_, replaced := x.byID[p.ID]
	x.byID[p.ID] = sp
	x.byOrig[origKey(&p)] = p.ID
	x.mu.Unlock()
	if !replaced {
		x.numProfiles.Add(1)
	}
	for _, kt := range sp.keys {
		s := x.shardFor(kt.Key)
		s.mu.Lock()
		pl := s.postings[kt.Key]
		if pl == nil {
			pl = &posting{}
			s.postings[kt.Key] = pl
			x.numBlocks.Add(1)
		}
		if x.clean && p.SourceID == 1 {
			pl.b = append(pl.b, p.ID)
		} else {
			pl.a = append(pl.a, p.ID)
		}
		s.mu.Unlock()
	}
}

// unlinkLocked takes a profile that is about to be replaced out of its
// postings. Caller holds writeMu and follows up with putLocked for the
// same ID. The profile maps keep the old entry until putLocked swaps in
// the new one: a reader racing the overwrite resolves the ID to the old
// profile or the new one, never to nothing.
func (x *Index) unlinkLocked(id profile.ID) {
	x.mu.RLock()
	sp := x.byID[id]
	x.mu.RUnlock()
	if sp == nil {
		return
	}
	for _, kt := range sp.keys {
		s := x.shardFor(kt.Key)
		s.mu.Lock()
		if pl := s.postings[kt.Key]; pl != nil {
			if x.clean && sp.p.SourceID == 1 {
				pl.b = removeID(pl.b, id)
			} else {
				pl.a = removeID(pl.a, id)
			}
			if pl.size() == 0 {
				delete(s.postings, kt.Key)
				x.numBlocks.Add(-1)
			}
		}
		s.mu.Unlock()
	}
}

// keyBuf is the pooled workspace of key+bag derivation. Every write
// (putLocked), the restore fallback for a snapshot without bags, and
// every query fill one through derive — a single tokenisation of each
// attribute value yields the blocking keys and the distinct token bag.
// The index's keys are schema-agnostic: a token is its own key, so the
// bag is the key strings in the same first-occurrence order and shares
// their bytes, and keys and bag cannot disagree about what a profile's
// tokens are.
type keyBuf struct {
	keys []blocking.KeyedToken
	bag  []string
}

var keyBufPool = sync.Pool{New: func() any { return new(keyBuf) }}

// derive fills kb with p's distinct keys and its token bag.
func (kb *keyBuf) derive(opts *blocking.Options, p *profile.Profile) {
	kb.keys = opts.AppendKeysOf(kb.keys[:0], p)
	kb.bag = kb.bag[:0]
	for _, kt := range kb.keys {
		kb.bag = append(kb.bag, kt.Key)
	}
}

// keysAndBag returns p's keys and bag in exact-size slices a stored
// profile retains. Both are nil when p has no tokens (a nil bag is what
// the snapshot's bag flag byte records), and the bag is nil under a
// custom Measure, which scores from the profiles themselves.
func (x *Index) keysAndBag(p *profile.Profile) (keys []blocking.KeyedToken, bag []string) {
	kb := keyBufPool.Get().(*keyBuf)
	kb.derive(&x.opts, p)
	if len(kb.keys) > 0 {
		keys = slices.Clone(kb.keys)
	}
	if x.cfg.defaultJaccard && len(kb.bag) > 0 {
		bag = slices.Clone(kb.bag)
	}
	keyBufPool.Put(kb)
	return keys, bag
}

// removeID deletes one ID from a posting list, preserving order.
func removeID(ids []profile.ID, id profile.ID) []profile.ID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
