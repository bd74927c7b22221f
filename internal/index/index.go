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
//	             pruning them with the node rules WNP (local mean) or CNP
//	             (top-k), as the batch meta-blocker does.
//	Upsert(p)  — insert or replace one profile, touching only the postings
//	             of its blocking keys.
//	Resolve(p) — Query plus similarity scoring with the configured measure,
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
	"sync"
	"sync/atomic"

	"sparker/internal/blocking"
	"sparker/internal/core"
	"sparker/internal/metablocking"
	"sparker/internal/obs"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// Config holds the tunables of an entity index. Its resolve knobs are the
// batch pipeline's own (core.ResolveConfig), read the same way:
//
//   - PurgeFactor is block purging applied per query: postings holding
//     more than this fraction of the indexed profiles are skipped (0
//     reads as 0.5; 1 disables it).
//   - FilterRatio is block filtering applied per query: of the postings
//     a query hits, only the smallest ceil(ratio·n) are scanned (0 reads
//     as blocking.DefaultFilterRatio; 1 disables it).
//   - Scheme weighs candidates (CBS, ECBS, JS or ARCS).
//   - MetaBlocking off keeps every weighed candidate. On, Pruning is CNP,
//     which keeps exactly the TopK best (0 reads as 10; ties broken by
//     ID), or WNP, which keeps candidates at or above the mean weight of
//     the query's neighbourhood.
//   - Measure scores Resolve candidates ("" or jaccard: whole-profile
//     Jaccard from the token lists the profiles are indexed under; dice),
//     and MatchThreshold labels a match at or above it: 0 keeps every
//     scored candidate.
//
// Validate names every knob the index cannot honour; the constructors
// refuse such a config. The zero value is usable; DefaultConfig documents
// the serving defaults.
type Config struct {
	core.ResolveConfig
	// Shards is the number of independent token shards (default 16).
	Shards int
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
}

// DefaultConfig is the unsupervised serving configuration: schema-agnostic
// keys, CBS weights, CNP keeping the top 10 (bounding per-query matcher
// work to a constant), Jaccard matching at 0.3.
func DefaultConfig() Config {
	return Config{
		ResolveConfig: core.ResolveConfig{
			PurgeFactor:    0.5,
			FilterRatio:    blocking.DefaultFilterRatio,
			MetaBlocking:   true,
			Scheme:         metablocking.CBS,
			Pruning:        metablocking.CNP,
			TopK:           10,
			Measure:        core.MeasureJaccard,
			MatchThreshold: 0.3,
		},
		Shards: 16,
	}
}

// withDefaults resolves zero fields to their documented defaults, reading
// PurgeFactor and FilterRatio as blocking.PurgeBySize and blocking.Filter
// do.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.PurgeFactor <= 0 {
		c.PurgeFactor = 0.5
	}
	if c.FilterRatio <= 0 || c.FilterRatio > 1 {
		c.FilterRatio = blocking.DefaultFilterRatio
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	c.OpLog = c.OpLog.withDefaults()
	return c
}

// cnp and wnp report the pruning rule the config applies, if any.
func (c *Config) cnp() bool { return c.MetaBlocking && c.Pruning == metablocking.CNP }
func (c *Config) wnp() bool { return c.MetaBlocking && c.Pruning == metablocking.WNP }

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
	p profile.Profile
	// tokens are the profile's distinct tokens in first-occurrence order
	// (nil when it has none). The index is schema-agnostic, so a token is
	// its own blocking key: the one list names the profile's postings,
	// counts its blocks for the weighting schemes, and is the set the
	// default Jaccard scores.
	tokens []string
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
	byOrig  map[Identity]profile.ID
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
// It panics with Config.Validate's error on a config the index cannot
// honour; NewFromCollection, Load and Decode return that error instead.
func New(clean bool, cfg Config) *Index {
	if err := cfg.Validate(); err != nil {
		panic("index: " + err.Error())
	}
	cfg = cfg.withDefaults()
	x := &Index{
		cfg:    cfg,
		opts:   blocking.Options{Tokenizer: cfg.Tokenizer},
		clean:  clean,
		shards: make([]*shard, cfg.Shards),
		byID:   make(map[profile.ID]*storedProfile),
		byOrig: make(map[Identity]profile.ID),
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
// truth keeps working. Like Decode it is a constructor, not a write: both
// run build, which tokenises the profiles once (tokenize.NewCorpus),
// takes every profile's keys from the slotting the batch blockers use
// (blocking.Options.SlotKeys), then builds the postings column-wise —
// each key's A and B members are counted, carved as exact-size runs of
// one ID array, filled in ID order, and the key is inserted into its
// shard once. Stored profiles and their token lists come from slabs, and
// every run's capacity is clipped to its length, so a later Upsert
// copies a run out instead of writing into its neighbour. The index
// equals the one the write path would build by inserting the profiles
// one at a time in ID order.
func NewFromCollection(c *profile.Collection, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	x, err := build(c.IsClean(), c.Profiles, cfg)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return x, nil
}

// build is the one constructor core: the index of the profiles ps, which
// are dense (ps[i].ID == i) and each carry their own source, so the
// sources of a clean-clean task may interleave (a restored index after
// inserts into both). cfg must be valid. It fails on an identity that
// occurs twice.
func build(clean bool, ps []profile.Profile, cfg Config) (*Index, error) {
	x := New(clean, cfg)
	x.byID = make(map[profile.ID]*storedProfile, len(ps))
	x.byOrig = make(map[Identity]profile.ID, len(ps))
	for i := range ps {
		key := identityOf(&ps[i])
		if _, ok := x.byOrig[key]; ok {
			return nil, fmt.Errorf("duplicate profile %d:%s", ps[i].SourceID, ps[i].OriginalID)
		}
		x.byOrig[key] = ps[i].ID
	}
	// The corpus reads only the profiles, never the collection's
	// separator, so interleaved sources tokenise as they are.
	kt := x.opts.SlotKeys(tokenize.NewCorpus(&profile.Collection{Profiles: ps}, x.cfg.Tokenizer))
	sideB := func(i int) bool { return x.clean && ps[i].SourceID == 1 }

	// Every key's string, rendered once, and its members on each side.
	keys := make([]string, kt.NumKeys())
	for s := range keys {
		keys[s] = kt.Key(int32(s)).Key
	}
	na, nb := make([]int32, len(keys)), make([]int32, len(keys))
	total := 0
	for i := range ps {
		n := na
		if sideB(i) {
			n = nb
		}
		for _, s := range kt.Slots(i) {
			n[s]++
		}
		total += len(kt.Slots(i))
	}

	// The stored profiles and their token lists, copied out of the slots.
	var profiles slab[storedProfile]
	var tokens slab[string]
	left := total // tokens still to copy out: caps a slab chunk
	for i := range ps {
		slots := kt.Slots(i)
		sp := &profiles.take(1, len(ps)-i)[0]
		sp.p = ps[i]
		if len(slots) > 0 {
			sp.tokens = tokens.take(len(slots), left)
			for k, s := range slots {
				sp.tokens[k] = keys[s]
			}
			left -= len(slots)
		}
		x.byID[ps[i].ID] = sp
	}

	// The postings: each side an exact-size run of one ID array, filled
	// in ID order, then each key inserted into its shard map once.
	ids := make([]profile.ID, total)
	pls := make([]posting, len(keys))
	off := int32(0)
	for s := range pls {
		if na[s] > 0 {
			pls[s].a = ids[off : off : off+na[s]]
			off += na[s]
		}
		if nb[s] > 0 {
			pls[s].b = ids[off : off : off+nb[s]]
			off += nb[s]
		}
	}
	for i := range ps {
		id, b := ps[i].ID, sideB(i)
		for _, s := range kt.Slots(i) {
			if pl := &pls[s]; b {
				pl.b = append(pl.b, id)
			} else {
				pl.a = append(pl.a, id)
			}
		}
	}
	shardOf := make([]int32, len(keys))
	sizes := make([]int, len(x.shards))
	for s := range keys {
		shardOf[s] = int32(x.shardIndex(keys[s]))
		sizes[shardOf[s]]++
	}
	for j, sh := range x.shards {
		sh.postings = make(map[string]*posting, sizes[j])
	}
	for s := range keys {
		x.shards[shardOf[s]].postings[keys[s]] = &pls[s]
	}

	x.nextID = profile.ID(len(ps))
	x.idBound.Store(int64(len(ps)))
	x.numProfiles.Store(int64(len(ps)))
	x.numBlocks.Store(int64(len(keys)))
	return x, nil
}

// Clean reports whether the index uses clean-clean semantics.
func (x *Index) Clean() bool { return x.clean }

// Size returns the number of indexed profiles.
func (x *Index) Size() int { return int(x.numProfiles.Load()) }

// identityOf is the replacement identity of a profile: source + original
// ID.
func identityOf(p *profile.Profile) Identity {
	return Identity{OriginalID: p.OriginalID, SourceID: p.SourceID}
}

// shardFor returns the shard of a blocking key.
func (x *Index) shardFor(key string) *shard { return x.shards[x.shardIndex(key)] }

// shardIndex hashes a blocking key onto its shard with inline FNV-1a —
// hash.Hash32 would heap-allocate on every key of the query/upsert hot
// paths.
func (x *Index) shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(x.shards)))
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

	oldID, replacing := x.lookupOrig(identityOf(&p))
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
func (x *Index) lookupOrig(key Identity) (profile.ID, bool) {
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
	sp := &storedProfile{p: p, tokens: x.tokensOf(&p)}
	x.mu.Lock()
	_, replaced := x.byID[p.ID]
	x.byID[p.ID] = sp
	x.byOrig[identityOf(&p)] = p.ID
	x.mu.Unlock()
	if !replaced {
		x.numProfiles.Add(1)
	}
	for _, key := range sp.tokens {
		s := x.shardFor(key)
		s.mu.Lock()
		pl := s.postings[key]
		if pl == nil {
			pl = &posting{}
			s.postings[key] = pl
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
	for _, key := range sp.tokens {
		s := x.shardFor(key)
		s.mu.Lock()
		if pl := s.postings[key]; pl != nil {
			if x.clean && sp.p.SourceID == 1 {
				pl.b = removeID(pl.b, id)
			} else {
				pl.a = removeID(pl.a, id)
			}
			if pl.size() == 0 {
				delete(s.postings, key)
				x.numBlocks.Add(-1)
			}
		}
		s.mu.Unlock()
	}
}

// keyBuf is the pooled workspace of key derivation. Every write
// (putLocked) and every query fill one through derive: a single
// tokenisation of each attribute value yields the profile's distinct
// keys. The index's keys are schema-agnostic, so a key is a token and the
// key strings are the profile's distinct tokens.
type keyBuf struct {
	keys []blocking.KeyedToken
}

var keyBufPool = sync.Pool{New: func() any { return new(keyBuf) }}

// derive fills kb with p's distinct keys in first-occurrence order.
func (kb *keyBuf) derive(opts *blocking.Options, p *profile.Profile) {
	kb.keys = opts.AppendKeysOf(kb.keys[:0], p)
}

// tokensOf returns p's distinct tokens in an exact-size slice a stored
// profile retains, nil when p has none.
func (x *Index) tokensOf(p *profile.Profile) []string {
	kb := keyBufPool.Get().(*keyBuf)
	kb.derive(&x.opts, p)
	var tokens []string
	if len(kb.keys) > 0 {
		tokens = make([]string, len(kb.keys))
		for i, kt := range kb.keys {
			tokens[i] = kt.Key
		}
	}
	keyBufPool.Put(kb)
	return tokens
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
