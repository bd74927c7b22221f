package blocking

import (
	"fmt"
	"strconv"
	"sync"

	"sparker/internal/dataflow"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// AttributeClustering supplies loose-schema information to key generation:
// the cluster ID of a source-qualified attribute. Implementations come
// from the looseschema package; a nil clustering means schema-agnostic
// blocking (every token is a key, regardless of attribute).
//
// ClusterOf must be safe for concurrent use: the sharded batch blocker
// and the distributed blocker's tasks call it from multiple goroutines.
// (looseschema's Partitioning is a read-only lookup and qualifies.)
type AttributeClustering interface {
	// ClusterOf returns the cluster ID for an attribute of a source.
	// Unknown attributes fall into the blob cluster (ID 0 by convention).
	ClusterOf(sourceID int, attribute string) int
}

// Options configures token blocking.
type Options struct {
	// Tokenizer used on attribute values; zero value uses defaults.
	Tokenizer tokenize.Options
	// Clustering enables loose-schema keys "token_clusterID". Nil keys
	// blocks on raw tokens (schema-agnostic [10]).
	Clustering AttributeClustering
	// MinBlockSize drops blocks with fewer profiles (default 2: a block
	// with one profile yields no comparisons).
	MinBlockSize int
	// Workers bounds the tokenize/merge parallelism of the sharded batch
	// build (default: GOMAXPROCS). The output is identical for every
	// worker count. Any Workers value above 1 (including the default)
	// calls Clustering.ClusterOf from multiple goroutines concurrently.
	Workers int
}

// KeyFor derives the blocking key of a token appearing in an attribute.
func (o *Options) KeyFor(sourceID int, attribute, token string) (string, int) {
	if o.Clustering == nil {
		return token, NoCluster
	}
	cluster := o.Clustering.ClusterOf(sourceID, attribute)
	return token + "_" + strconv.Itoa(cluster), cluster
}

// KeyedToken is one blocking key of a profile together with the
// attribute cluster that generated it (NoCluster when schema-agnostic).
type KeyedToken struct {
	Key     string
	Cluster int
}

// keyScratch bundles the reusable state of key derivation: the per-call
// dedup sets, the tokenizer's normalise-and-intern scratch, and the token
// buffer. Key derivation runs once per profile on both the batch blocking
// and index upsert/query hot paths; pooling this state (clearing a set
// compiles to a cheap map reset) makes steady-state key derivation
// allocation-free — tokens and keys alloc only on first sight, through
// the scratch's intern table.
type keyScratch struct {
	seen map[string]struct{}
	// seenTok dedups the token bag of AppendKeysAndBag under a Clustering,
	// where one token can yield several keys (nil until first needed).
	seenTok map[string]struct{}
	tok     tokenize.Scratch
	toks    []string
}

var keyScratchPool = sync.Pool{
	New: func() any { return &keyScratch{seen: make(map[string]struct{}, 64)} },
}

// maxPooledSeen is the largest dedup set that goes back to the pool.
// Clearing a Go map costs its capacity, not its length, so a set one huge
// profile grew would tax every later derivation that drew that scratch.
const maxPooledSeen = 4096

// resetSeen empties a dedup set for reuse, swapping an oversized one for
// a fresh small one.
func resetSeen(m map[string]struct{}) map[string]struct{} {
	if len(m) > maxPooledSeen {
		return make(map[string]struct{}, 64)
	}
	clear(m)
	return m
}

// AppendKeysOf appends the distinct blocking keys of one profile to dst
// (in first-occurrence order) and returns the extended slice. Hot-path
// callers — the sharded batch blocker, the distributed blocker's tasks —
// pass a reused buffer so key derivation allocates nothing per profile in
// the steady state.
func (o *Options) AppendKeysOf(dst []KeyedToken, p *profile.Profile) []KeyedToken {
	dst, _ = o.appendKeys(dst, nil, false, p)
	return dst
}

// AppendKeysAndBag is AppendKeysOf that also appends the profile's
// distinct tokens to bag, in first-occurrence order, from the same single
// tokenisation of each attribute value: in SparkER a profile's tokens are
// at once its blocking keys and the bag the matcher compares. Without a
// Clustering the key of a token is the token, so the bag is the key
// strings themselves; with one, the same pass feeds a second dedup set.
// The online index derives both sides of every write and query here.
func (o *Options) AppendKeysAndBag(keys []KeyedToken, bag []string, p *profile.Profile) ([]KeyedToken, []string) {
	return o.appendKeys(keys, bag, true, p)
}

func (o *Options) appendKeys(dst []KeyedToken, bag []string, wantBag bool, p *profile.Profile) ([]KeyedToken, []string) {
	ks := keyScratchPool.Get().(*keyScratch)
	tokenDedup := wantBag && o.Clustering != nil
	if tokenDedup && ks.seenTok == nil {
		ks.seenTok = make(map[string]struct{}, 64)
	}
	for _, kv := range p.Attributes {
		ks.toks = o.Tokenizer.AppendTokens(ks.toks[:0], kv.Value, &ks.tok)
		for _, tok := range ks.toks {
			key, cluster := o.KeyFor(p.SourceID, kv.Key, tok)
			_, dup := ks.seen[key]
			if !dup {
				ks.seen[key] = struct{}{}
				dst = append(dst, KeyedToken{Key: key, Cluster: cluster})
			}
			if !wantBag {
				continue
			}
			if tokenDedup {
				if _, dup = ks.seenTok[tok]; !dup {
					ks.seenTok[tok] = struct{}{}
				}
			}
			if !dup {
				bag = append(bag, tok)
			}
		}
	}
	ks.seen = resetSeen(ks.seen)
	if tokenDedup {
		ks.seenTok = resetSeen(ks.seenTok)
	}
	keyScratchPool.Put(ks)
	return dst, bag
}

// KeysOf enumerates the distinct blocking keys of one profile, in first-
// occurrence order, in a freshly allocated slice the caller may retain.
// It is the unit of work of token blocking, exposed so that online
// consumers derive keys exactly as the batch blocker does. Transient
// callers should prefer AppendKeysOf with a reused buffer.
func (o *Options) KeysOf(p *profile.Profile) []KeyedToken {
	return o.AppendKeysOf(nil, p)
}

// tbAssign is one (key → profile) block assignment emitted by the
// tokenize phase of the sharded build.
type tbAssign struct {
	key     string
	id      profile.ID
	cluster int32
	sideB   bool
}

// tbWorker holds one tokenize worker's per-shard assignment buffers plus
// its reusable key-derivation buffer; workers are pooled across
// TokenBlocking calls so repeated builds (the Session debugging loop,
// sparker-serve boots) reuse the grown buffers.
type tbWorker struct {
	shards [][]tbAssign
	keyBuf []KeyedToken
}

var tbWorkerPool sync.Pool

func getTBWorker(numShards int) *tbWorker {
	w, _ := tbWorkerPool.Get().(*tbWorker)
	if w == nil {
		w = &tbWorker{}
	}
	if cap(w.shards) < numShards {
		w.shards = make([][]tbAssign, numShards)
	} else {
		w.shards = w.shards[:numShards]
	}
	for i := range w.shards {
		w.shards[i] = w.shards[i][:0]
	}
	return w
}

// TokenBlocking builds the block collection with a parallel sharded
// build: workers tokenize contiguous profile ranges and hash every key to
// a shard, then per-shard merge workers group the assignments into blocks
// through flat counting-and-carving state — no global lock, no per-key
// bucket allocation. The result is deterministic and identical to the
// historical sequential map build for every worker count (the retained
// reference in reference_test.go pins this bitwise). For clean-clean
// tasks, blocks that do not contain profiles from both sources are
// dropped, since they yield no comparisons.
func TokenBlocking(c *profile.Collection, opts Options) *Collection {
	minSize := opts.MinBlockSize
	if minSize < 2 {
		minSize = 2
	}
	clean := c.IsClean()
	n := len(c.Profiles)
	out := &Collection{CleanClean: clean, NumProfiles: c.Size()}
	if n == 0 {
		return out
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = maxWorkers(n)
	}
	if workers > n {
		workers = n
	}
	numShards := shardCount(workers)
	mask := uint32(numShards - 1)

	// Phase 1 — tokenize: each worker scans a contiguous profile range in
	// ID order, so concatenating the workers' per-shard buffers in worker
	// order visits assignments in ascending profile ID — exactly the
	// sequential scan order.
	ws := make([]*tbWorker, workers)
	for w := range ws {
		ws[w] = getTBWorker(numShards)
	}
	parallelFor(n, workers, func(w, lo, hi int) {
		tw := ws[w]
		for i := lo; i < hi; i++ {
			p := &c.Profiles[i]
			tw.keyBuf = opts.AppendKeysOf(tw.keyBuf[:0], p)
			sideB := clean && p.SourceID == 1
			for _, kt := range tw.keyBuf {
				s := shardHash(kt.Key) & mask
				tw.shards[s] = append(tw.shards[s], tbAssign{
					key: kt.Key, id: p.ID, cluster: int32(kt.Cluster), sideB: sideB,
				})
			}
		}
	})

	// Phase 2 — merge: each shard owns a disjoint key range, so shards
	// group independently in parallel.
	shardBlocks := make([][]Block, numShards)
	parallelFor(numShards, workers, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			shardBlocks[s] = mergeShard(s, ws, minSize, clean)
		}
	})
	for _, w := range ws {
		tbWorkerPool.Put(w)
	}

	total := 0
	for _, bs := range shardBlocks {
		total += len(bs)
	}
	out.Blocks = make([]Block, 0, total)
	for _, bs := range shardBlocks {
		out.Blocks = append(out.Blocks, bs...)
	}
	sortBlocks(out.Blocks)
	return out
}

// mergeShard groups one shard's assignments into blocks. A counting pass
// assigns every distinct key a slot and tallies its per-side sizes, the
// member lists are then carved out of a single flat backing array, and a
// fill pass scatters the IDs — two linear scans, one map, and exactly one
// ID allocation per shard in place of the historical per-key *bucket and
// its two growing slices.
func mergeShard(s int, ws []*tbWorker, minSize int, clean bool) []Block {
	total := 0
	for _, w := range ws {
		total += len(w.shards[s])
	}
	if total == 0 {
		return nil
	}
	type slot struct {
		key            string
		cluster        int32
		aCount, bCount int32
	}
	slotOf := make(map[string]int32, total/2+1)
	slots := make([]slot, 0, total/2+1)
	for _, w := range ws {
		for _, as := range w.shards[s] {
			si, ok := slotOf[as.key]
			if !ok {
				si = int32(len(slots))
				slotOf[as.key] = si
				slots = append(slots, slot{key: as.key, cluster: as.cluster})
			}
			if as.sideB {
				slots[si].bCount++
			} else {
				slots[si].aCount++
			}
		}
	}

	// Carve per-slot [A | B] segments out of one flat backing array.
	ids := make([]profile.ID, total)
	starts := make([]int32, len(slots))
	curA := make([]int32, len(slots))
	curB := make([]int32, len(slots))
	off := int32(0)
	for i := range slots {
		starts[i] = off
		curA[i] = off
		curB[i] = off + slots[i].aCount
		off += slots[i].aCount + slots[i].bCount
	}
	for _, w := range ws {
		for _, as := range w.shards[s] {
			si := slotOf[as.key]
			if as.sideB {
				ids[curB[si]] = as.id
				curB[si]++
			} else {
				ids[curA[si]] = as.id
				curA[si]++
			}
		}
	}

	blocks := make([]Block, 0, len(slots))
	for i := range slots {
		na, nb := slots[i].aCount, slots[i].bCount
		if int(na+nb) < minSize {
			continue
		}
		if clean && (na == 0 || nb == 0) {
			continue
		}
		var a, b []profile.ID
		if na > 0 {
			a = ids[starts[i] : starts[i]+na : starts[i]+na]
		}
		if nb > 0 {
			b = ids[starts[i]+na : starts[i]+na+nb : starts[i]+na+nb]
		}
		blocks = append(blocks, Block{
			Key:        slots[i].key,
			ClusterID:  int(slots[i].cluster),
			CleanClean: clean,
			A:          a,
			B:          b,
		})
	}
	return blocks
}

// DistributedTokenBlocking builds the same block collection on the
// dataflow engine: profiles are distributed, each task emits
// (key, profileID) pairs, and a groupByKey shuffle assembles the blocks —
// the algorithm SparkER runs on Spark. Tasks map over profile indexes
// into the shared collection (not profile values, whose attribute slices
// would be copied per element) and derive keys through one reused buffer
// per partition.
func DistributedTokenBlocking(ctx *dataflow.Context, c *profile.Collection, opts Options, numPartitions int) (*Collection, error) {
	minSize := opts.MinBlockSize
	if minSize < 2 {
		minSize = 2
	}
	clean := c.IsClean()

	indexes := make([]int32, len(c.Profiles))
	for i := range indexes {
		indexes[i] = int32(i)
	}
	profiles := dataflow.Parallelize(ctx, indexes, numPartitions)
	type assign struct {
		Cluster int
		ID      profile.ID
		Src     int
	}
	keyed := dataflow.MapPartitions(profiles, func(in []int32) ([]dataflow.KV[string, assign], error) {
		out := make([]dataflow.KV[string, assign], 0, 8*len(in))
		var keyBuf []KeyedToken
		for _, i := range in {
			p := &c.Profiles[i]
			keyBuf = opts.AppendKeysOf(keyBuf[:0], p)
			for _, kt := range keyBuf {
				out = append(out, dataflow.KV[string, assign]{
					Key:   kt.Key,
					Value: assign{Cluster: kt.Cluster, ID: p.ID, Src: p.SourceID},
				})
			}
		}
		return out, nil
	})
	grouped := dataflow.GroupByKey(keyed, numPartitions)
	blocks := dataflow.FlatMap(grouped, func(kv dataflow.KV[string, []assign]) []Block {
		var a, b []profile.ID
		cluster := NoCluster
		for _, as := range kv.Value {
			cluster = as.Cluster
			if clean && as.Src == 1 {
				b = append(b, as.ID)
			} else {
				a = append(a, as.ID)
			}
		}
		if len(a)+len(b) < minSize {
			return nil
		}
		if clean && (len(a) == 0 || len(b) == 0) {
			return nil
		}
		return []Block{{Key: kv.Key, ClusterID: cluster, CleanClean: clean, A: a, B: b}}
	})
	collected, err := blocks.Collect()
	if err != nil {
		return nil, fmt.Errorf("blocking: distributed token blocking: %w", err)
	}
	out := &Collection{Blocks: collected, CleanClean: clean, NumProfiles: c.Size()}
	sortBlocks(out.Blocks)
	return out, nil
}
