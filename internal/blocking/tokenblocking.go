package blocking

import (
	"fmt"
	"slices"
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
// ClusterOf must be safe for concurrent use: the distributed blocker's
// tasks call it from multiple goroutines.
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
}

// KeyFor derives the blocking key of a token appearing in an attribute.
func (o *Options) KeyFor(sourceID int, attribute, token string) (string, int) {
	cluster := o.clusterOf(sourceID, attribute)
	return o.key(token, cluster), cluster
}

// clusterOf resolves the attribute cluster every token of one attribute
// value is keyed under: NoCluster without a Clustering.
func (o *Options) clusterOf(sourceID int, attribute string) int {
	if o.Clustering == nil {
		return NoCluster
	}
	return o.Clustering.ClusterOf(sourceID, attribute)
}

// key renders the blocking key of a token under its resolved cluster.
func (o *Options) key(token string, cluster int) string {
	if o.Clustering == nil {
		return token
	}
	return token + "_" + strconv.Itoa(cluster)
}

// KeyedToken is one blocking key of a profile together with the
// attribute cluster that generated it (NoCluster when schema-agnostic).
type KeyedToken struct {
	Key     string
	Cluster int
}

// keyScratch bundles the reusable state of key derivation: the per-call
// dedup set, the tokenizer's normalise-and-intern scratch, and the token
// buffer. Key derivation runs once per profile on the index upsert and
// query hot paths; pooling this state (clearing a set compiles to a
// cheap map reset) makes steady-state schema-agnostic key derivation
// allocation-free — tokens alloc only on first sight, through the
// scratch's intern table.
type keyScratch struct {
	seen map[string]struct{}
	tok  tokenize.Scratch
	toks []string
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
// callers pass a reused buffer so key derivation allocates nothing per
// profile in the steady state. The batch blockers derive the same keys
// from a corpus (slotKeys), each value's cluster resolved once here as
// there.
func (o *Options) AppendKeysOf(dst []KeyedToken, p *profile.Profile) []KeyedToken {
	ks := keyScratchPool.Get().(*keyScratch)
	dst = o.appendKeys(ks, dst, p)
	keyScratchPool.Put(ks)
	return dst
}

// appendKeys is AppendKeysOf on the caller's scratch, which it leaves
// ready for the pool: its dedup set emptied, or swapped for a small one
// when p grew it past maxPooledSeen.
func (o *Options) appendKeys(ks *keyScratch, dst []KeyedToken, p *profile.Profile) []KeyedToken {
	for _, kv := range p.Attributes {
		cluster := o.clusterOf(p.SourceID, kv.Key)
		ks.toks = o.Tokenizer.AppendTokens(ks.toks[:0], kv.Value, &ks.tok)
		for _, tok := range ks.toks {
			key := o.key(tok, cluster)
			if _, dup := ks.seen[key]; !dup {
				ks.seen[key] = struct{}{}
				dst = append(dst, KeyedToken{Key: key, Cluster: cluster})
			}
		}
	}
	ks.seen = resetSeen(ks.seen)
	return dst
}

// KeysOf enumerates the distinct blocking keys of one profile, in first-
// occurrence order, in a freshly allocated slice the caller may retain:
// the keys the batch blocker assigns the profile. Transient
// callers should prefer AppendKeysOf with a reused buffer.
func (o *Options) KeysOf(p *profile.Profile) []KeyedToken {
	return o.AppendKeysOf(nil, p)
}

// keyTable is the key derivation of a corpus, the batch form of
// AppendKeysOf: every distinct (cluster, token ID) key has a dense slot,
// numbered in first-seen order, and profile i's distinct keys are the
// slots profSlots[start[i]:start[i+1]], in first-occurrence order.
type keyTable struct {
	keys      []keySlot
	start     []int
	profSlots []int32
}

// keySlot is one distinct key. The slots of one token are chained
// through next (one per cluster the token occurs under, so the chain is
// short), which maps (cluster, token ID) to a slot with no hashing.
type keySlot struct {
	tok     uint32
	cluster int
	next    int32
}

// slotKeys resolves each attribute value's cluster once and slots every
// token occurrence of the corpus.
func (o *Options) slotKeys(cp *tokenize.Corpus) *keyTable {
	head := make([]int32, len(cp.Vocab)) // first slot of each token, -1 for none
	for i := range head {
		head[i] = -1
	}
	var last []int32 // the profile that last listed each slot
	ps := cp.Collection.Profiles
	kt := &keyTable{start: make([]int, len(ps)+1)}
	for i := range ps {
		p := &ps[i]
		for k, kv := range p.Attributes {
			cluster := o.clusterOf(p.SourceID, kv.Key)
			for _, tok := range cp.Value(i, k) {
				s := head[tok]
				for s >= 0 && kt.keys[s].cluster != cluster {
					s = kt.keys[s].next
				}
				if s < 0 {
					s = int32(len(kt.keys))
					kt.keys = append(kt.keys, keySlot{tok: tok, cluster: cluster, next: head[tok]})
					head[tok] = s
					last = append(last, -1)
				}
				if last[s] != int32(i) {
					last[s] = int32(i)
					kt.profSlots = append(kt.profSlots, s)
				}
			}
		}
		kt.start[i+1] = len(kt.profSlots)
	}
	return kt
}

// TokenBlocking builds the block collection. For clean-clean tasks,
// blocks that do not contain profiles from both sources are dropped,
// since they yield no comparisons.
func TokenBlocking(c *profile.Collection, opts Options) *Collection {
	return TokenBlockingCorpus(tokenize.NewCorpus(c, opts.Tokenizer), opts)
}

// TokenBlockingCorpus is TokenBlocking over a collection already
// tokenised (opts.Tokenizer is not read: the corpus carries its own).
// Every profile's keys are slotted once (slotKeys), a counting pass
// sizes every slot's [A | B] member segment in one flat ID array, and a
// fill pass scatters the IDs in profile order — so members come out
// ascending, and the blocks equal the historical map build's exactly.
// Each surviving slot renders its key string once.
func TokenBlockingCorpus(cp *tokenize.Corpus, opts Options) *Collection {
	minSize := max(opts.MinBlockSize, 2)
	c := cp.Collection
	clean := c.IsClean()
	out := &Collection{CleanClean: clean, NumProfiles: c.Size()}
	kt := opts.slotKeys(cp)
	sideB := func(i int) bool { return clean && c.Profiles[i].SourceID == 1 }

	na, nb := make([]int32, len(kt.keys)), make([]int32, len(kt.keys))
	for i := range c.Profiles {
		n := na
		if sideB(i) {
			n = nb
		}
		for _, s := range kt.profSlots[kt.start[i]:kt.start[i+1]] {
			n[s]++
		}
	}

	// Carve the surviving slots' segments; a dropped slot keeps cursor -1.
	curA, curB := make([]int32, len(kt.keys)), make([]int32, len(kt.keys))
	total, kept := int32(0), 0
	for s := range kt.keys {
		curA[s], curB[s] = -1, -1
		if int(na[s]+nb[s]) < minSize || clean && (na[s] == 0 || nb[s] == 0) {
			continue
		}
		curA[s], curB[s] = total, total+na[s]
		total += na[s] + nb[s]
		kept++
	}
	ids := make([]profile.ID, total)
	out.Blocks = make([]Block, 0, kept)
	for s := range kt.keys {
		if curA[s] < 0 {
			continue
		}
		k := kt.keys[s]
		b := Block{Key: opts.key(cp.Vocab[k.tok], k.cluster), ClusterID: k.cluster, CleanClean: clean}
		if o := curA[s]; na[s] > 0 {
			b.A = ids[o : o+na[s] : o+na[s]]
		}
		if o := curB[s]; nb[s] > 0 {
			b.B = ids[o : o+nb[s] : o+nb[s]]
		}
		out.Blocks = append(out.Blocks, b)
	}
	for i := range c.Profiles {
		cur := curA
		if sideB(i) {
			cur = curB
		}
		for _, s := range kt.profSlots[kt.start[i]:kt.start[i+1]] {
			if cur[s] >= 0 {
				ids[cur[s]] = c.Profiles[i].ID
				cur[s]++
			}
		}
	}
	sortBlocks(out.Blocks)
	return out
}

// DistributedTokenBlocking builds the same block collection on the
// dataflow engine.
func DistributedTokenBlocking(ctx *dataflow.Context, c *profile.Collection, opts Options, numPartitions int) (*Collection, error) {
	return DistributedTokenBlockingCorpus(ctx, tokenize.NewCorpus(c, opts.Tokenizer), opts, numPartitions)
}

// DistributedTokenBlockingCorpus is DistributedTokenBlocking over a
// collection already tokenised (opts.Tokenizer is not read): profiles
// are distributed, each task emits one (key, profile) pair per distinct
// key of its profiles, and a groupByKey shuffle assembles the blocks —
// the algorithm SparkER runs on Spark. Tasks map over profile indexes
// into the shared corpus, resolve each value's cluster once, and key the
// shuffle by (cluster, token ID) packed into one integer; a block
// renders its key string once, after the shuffle.
func DistributedTokenBlockingCorpus(ctx *dataflow.Context, cp *tokenize.Corpus, opts Options, numPartitions int) (*Collection, error) {
	minSize := max(opts.MinBlockSize, 2)
	c := cp.Collection
	clean := c.IsClean()

	indexes := make([]int32, len(c.Profiles))
	for i := range indexes {
		indexes[i] = int32(i)
	}
	profiles := dataflow.Parallelize(ctx, indexes, numPartitions)
	type assign struct {
		ID    profile.ID
		SideB bool
	}
	keyed := dataflow.MapPartitions(profiles, func(in []int32) ([]dataflow.KV[int64, assign], error) {
		out := make([]dataflow.KV[int64, assign], 0, 8*len(in))
		var keys []int64
		for _, i := range in {
			p := &c.Profiles[i]
			keys = keys[:0]
			for k, kv := range p.Attributes {
				cluster := int64(opts.clusterOf(p.SourceID, kv.Key)) << 32
				for _, tok := range cp.Value(int(i), k) {
					keys = append(keys, cluster|int64(tok))
				}
			}
			slices.Sort(keys)
			for _, key := range slices.Compact(keys) {
				out = append(out, dataflow.KV[int64, assign]{Key: key, Value: assign{ID: p.ID, SideB: clean && p.SourceID == 1}})
			}
		}
		return out, nil
	})
	grouped := dataflow.GroupByKey(keyed, numPartitions)
	blocks := dataflow.FlatMap(grouped, func(kv dataflow.KV[int64, []assign]) []Block {
		var a, b []profile.ID
		for _, as := range kv.Value {
			if as.SideB {
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
		cluster := int(kv.Key >> 32)
		key := opts.key(cp.Vocab[uint32(kv.Key)], cluster)
		return []Block{{Key: key, ClusterID: cluster, CleanClean: clean, A: a, B: b}}
	})
	collected, err := blocks.Collect()
	if err != nil {
		return nil, fmt.Errorf("blocking: distributed token blocking: %w", err)
	}
	out := &Collection{Blocks: collected, CleanClean: clean, NumProfiles: c.Size()}
	sortBlocks(out.Blocks)
	return out, nil
}
