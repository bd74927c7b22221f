// Package looseschema implements the Loose Schema Generator of SparkER's
// blocker (Figure 4), taken from Blast [13]: attributes are partitioned
// into clusters of similar attributes via LSH over their value
// vocabularies, and each cluster gets a Shannon entropy describing how
// informative a key collision inside it is. Blocking keys are then
// qualified by cluster ("simonini_1" vs "simonini_2" in Figure 2), and
// meta-blocking scales edge weights by cluster entropy.
package looseschema

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"sparker/internal/lsh"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// BlobCluster is the cluster that gathers every attribute that was not
// clustered with anything; with Threshold = 1 all attributes land here and
// loose-schema blocking degenerates to schema-agnostic blocking, which is
// exactly what Figure 6(a) shows.
const BlobCluster = 0

// AttributeProfile is the value vocabulary of one source-qualified
// attribute.
type AttributeProfile struct {
	Name      string // profile.QualifiedAttribute(source, attribute)
	SourceID  int
	Attribute string
	Tokens    []string       // distinct tokens, first-seen order
	Counts    map[string]int // token -> occurrences across all values
	Total     int            // sum of Counts
}

// ExtractAttributeProfiles builds one AttributeProfile per qualified
// attribute of the collection, ordered by Name.
func ExtractAttributeProfiles(c *profile.Collection, tok tokenize.Options) []*AttributeProfile {
	return ExtractAttributeProfilesCorpus(tokenize.NewCorpus(c, tok))
}

// ExtractAttributeProfilesCorpus is ExtractAttributeProfiles over a
// collection already tokenised. Attributes are looked up by (source,
// key) once per value, and each attribute's tokens are counted by ID in
// one dense array; the strings and the Counts map are made once per
// distinct token of an attribute, not once per occurrence.
func ExtractAttributeProfilesCorpus(cp *tokenize.Corpus) []*AttributeProfile {
	type attribute struct {
		source int
		key    string
	}
	type valueRef struct{ profile, value int32 }
	byAttr := map[attribute]int{}
	var out []*AttributeProfile
	var refs [][]valueRef // the values of out[a], in collection order
	ps := cp.Collection.Profiles
	for i := range ps {
		p := &ps[i]
		for k, kv := range p.Attributes {
			a, ok := byAttr[attribute{p.SourceID, kv.Key}]
			if !ok {
				a = len(out)
				byAttr[attribute{p.SourceID, kv.Key}] = a
				out = append(out, &AttributeProfile{
					Name:      profile.QualifiedAttribute(p.SourceID, kv.Key),
					SourceID:  p.SourceID,
					Attribute: kv.Key,
				})
				refs = append(refs, nil)
			}
			refs[a] = append(refs[a], valueRef{int32(i), int32(k)})
		}
	}
	counts := make([]int, len(cp.Vocab))
	var seen []uint32 // an attribute's distinct IDs, first-seen order
	for a, ap := range out {
		seen = seen[:0]
		for _, r := range refs[a] {
			for _, id := range cp.Value(int(r.profile), int(r.value)) {
				if counts[id] == 0 {
					seen = append(seen, id)
				}
				counts[id]++
			}
		}
		ap.Counts = make(map[string]int, len(seen))
		if len(seen) > 0 {
			ap.Tokens = make([]string, len(seen))
		}
		for j, id := range seen {
			ap.Tokens[j] = cp.Vocab[id]
			ap.Counts[cp.Vocab[id]] = counts[id]
			ap.Total += counts[id]
			counts[id] = 0
		}
	}
	slices.SortFunc(out, func(a, b *AttributeProfile) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Entropy returns the Shannon entropy (bits) of the attribute's token
// distribution.
func (ap *AttributeProfile) Entropy() float64 {
	return entropyOfCounts(ap.Counts, ap.Total)
}

func entropyOfCounts(counts map[string]int, total int) float64 {
	if total == 0 {
		return 0
	}
	// Group identical counts so the float accumulation order is fixed:
	// map iteration order varies between runs, and entropy values feed
	// meta-blocking thresholds where a last-ulp difference can flip a
	// borderline edge.
	freqOfCount := map[int]int{}
	for _, n := range counts {
		freqOfCount[n]++
	}
	distinct := make([]int, 0, len(freqOfCount))
	for n := range freqOfCount {
		distinct = append(distinct, n)
	}
	sort.Ints(distinct)
	h := 0.0
	ft := float64(total)
	for _, n := range distinct {
		p := float64(n) / ft
		h -= float64(freqOfCount[n]) * p * math.Log2(p)
	}
	return h
}

// Options configures attribute partitioning.
type Options struct {
	// Threshold is the minimum estimated Jaccard similarity for two
	// attributes to be cluster candidates; this is the knob the Figure 6
	// demo sweeps (1.0 → all blob; 0.3 → name/description vs price).
	Threshold float64
	// SignatureLen is the MinHash signature length (default 128).
	SignatureLen int
	// Seed makes LSH deterministic (default 42).
	Seed int64
	// Tokenizer used on attribute values.
	Tokenizer tokenize.Options
	// CrossSourceOnly restricts candidate pairs to attributes of different
	// sources, the Blast setting for clean-clean tasks. It is ignored for
	// dirty tasks (single source).
	CrossSourceOnly bool
	// UseEstimate scores LSH candidate pairs with the MinHash estimate
	// instead of the exact Jaccard of the vocabularies. The default
	// (exact) keeps the partitioning deterministic and makes Threshold = 1
	// behave as the paper describes: nothing clusters, everything falls
	// into the blob.
	UseEstimate bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SignatureLen <= 0 {
		out.SignatureLen = 128
	}
	if out.Seed == 0 {
		out.Seed = 42
	}
	if out.Threshold <= 0 {
		out.Threshold = 0.3
	}
	return out
}

// Partitioning assigns every qualified attribute to a cluster and carries
// per-cluster entropies. Cluster 0 is the blob.
type Partitioning struct {
	// Clusters[k] lists the qualified attribute names of cluster k.
	Clusters [][]string
	// Entropy[k] is the Shannon entropy of cluster k's token distribution.
	Entropy []float64
	byAttr  map[string]int
}

// ClusterOf implements blocking.AttributeClustering. Unknown attributes
// fall into the blob.
func (p *Partitioning) ClusterOf(sourceID int, attribute string) int {
	if k, ok := p.byAttr[profile.QualifiedAttribute(sourceID, attribute)]; ok {
		return k
	}
	return BlobCluster
}

// ClusterOfName returns the cluster of a qualified attribute name.
func (p *Partitioning) ClusterOfName(name string) int {
	if k, ok := p.byAttr[name]; ok {
		return k
	}
	return BlobCluster
}

// NumClusters returns the number of clusters including the blob.
func (p *Partitioning) NumClusters() int { return len(p.Clusters) }

// EntropyOf returns the entropy of a cluster, 0 for out-of-range IDs.
func (p *Partitioning) EntropyOf(cluster int) float64 {
	if cluster < 0 || cluster >= len(p.Entropy) {
		return 0
	}
	return p.Entropy[cluster]
}

// SetEntropy overrides a cluster entropy (used by tests reproducing the
// paper's toy figures, and by supervised sessions).
func (p *Partitioning) SetEntropy(cluster int, h float64) {
	for cluster >= len(p.Entropy) {
		p.Entropy = append(p.Entropy, 0)
	}
	p.Entropy[cluster] = h
}

// rebuildIndex refreshes the attribute→cluster map after edits.
func (p *Partitioning) rebuildIndex() {
	p.byAttr = map[string]int{}
	for k, attrs := range p.Clusters {
		for _, a := range attrs {
			p.byAttr[a] = k
		}
	}
}

// MoveAttribute reassigns a qualified attribute to another cluster,
// creating the cluster if needed. This is the "supervised mode" edit the
// Figure 6(c) walkthrough performs.
func (p *Partitioning) MoveAttribute(name string, toCluster int) error {
	from, ok := p.byAttr[name]
	if !ok {
		return fmt.Errorf("looseschema: unknown attribute %q", name)
	}
	if toCluster < 0 {
		return fmt.Errorf("looseschema: invalid cluster %d", toCluster)
	}
	for toCluster >= len(p.Clusters) {
		p.Clusters = append(p.Clusters, nil)
		p.Entropy = append(p.Entropy, 0)
	}
	// Remove from old cluster.
	old := p.Clusters[from]
	for i, a := range old {
		if a == name {
			p.Clusters[from] = append(old[:i:i], old[i+1:]...)
			break
		}
	}
	p.Clusters[toCluster] = append(p.Clusters[toCluster], name)
	p.byAttr[name] = toCluster
	return nil
}

// NewCluster adds an empty cluster and returns its ID.
func (p *Partitioning) NewCluster() int {
	p.Clusters = append(p.Clusters, nil)
	p.Entropy = append(p.Entropy, 0)
	return len(p.Clusters) - 1
}

// Clone deep-copies the partitioning so a debugging session can edit a
// candidate configuration without losing the automatic one.
func (p *Partitioning) Clone() *Partitioning {
	out := &Partitioning{
		Clusters: make([][]string, len(p.Clusters)),
		Entropy:  append([]float64(nil), p.Entropy...),
	}
	for i, attrs := range p.Clusters {
		out.Clusters[i] = append([]string(nil), attrs...)
	}
	out.rebuildIndex()
	return out
}

// String renders clusters for the debug CLI.
func (p *Partitioning) String() string {
	s := ""
	for k, attrs := range p.Clusters {
		label := fmt.Sprintf("C%d", k)
		if k == BlobCluster {
			label = "blob"
		}
		s += fmt.Sprintf("%s (H=%.3f): %v\n", label, p.EntropyOf(k), attrs)
	}
	return s
}

// Partition clusters the attributes of a collection:
//
//  1. LSH over attribute vocabularies proposes candidate attribute pairs.
//  2. Pairs below Threshold (estimated Jaccard) are discarded.
//  3. Each attribute keeps only its most similar partner.
//  4. Transitive closure merges the kept pairs into clusters.
//  5. Unclustered attributes fall into the blob (cluster 0).
//
// Entropies are computed for every cluster afterwards.
func Partition(c *profile.Collection, opts Options) *Partitioning {
	aps := ExtractAttributeProfiles(c, opts.Tokenizer)
	return PartitionAttributes(aps, c.IsClean(), opts)
}

// PartitionAttributes is Partition over pre-extracted attribute profiles.
func PartitionAttributes(aps []*AttributeProfile, cleanClean bool, opts Options) *Partitioning {
	o := opts.withDefaults()

	hasher := lsh.NewMinHasher(o.SignatureLen, o.Seed)
	vocabularies := make([][]string, len(aps))
	for i, ap := range aps {
		vocabularies[i] = ap.Tokens
	}
	sigs := hasher.Signatures(vocabularies)
	bands, rows := lsh.BandingParams(o.SignatureLen, o.Threshold)

	type scoredPair struct {
		i, j int
		sim  float64
	}
	var pairs []scoredPair
	for _, cand := range lsh.Candidates(sigs, bands, rows) {
		if o.CrossSourceOnly && cleanClean && aps[cand.I].SourceID == aps[cand.J].SourceID {
			continue
		}
		var sim float64
		if o.UseEstimate {
			sim = lsh.EstimateJaccard(sigs[cand.I], sigs[cand.J])
		} else {
			sim = lsh.ExactJaccard(aps[cand.I].Tokens, aps[cand.J].Tokens)
		}
		if sim >= o.Threshold {
			pairs = append(pairs, scoredPair{i: cand.I, j: cand.J, sim: sim})
		}
	}

	// Keep each attribute's most similar partner only.
	best := make([]int, len(aps))
	bestSim := make([]float64, len(aps))
	for i := range best {
		best[i] = -1
	}
	for _, sp := range pairs {
		if sp.sim > bestSim[sp.i] || (sp.sim == bestSim[sp.i] && (best[sp.i] == -1 || sp.j < best[sp.i])) {
			bestSim[sp.i], best[sp.i] = sp.sim, sp.j
		}
		if sp.sim > bestSim[sp.j] || (sp.sim == bestSim[sp.j] && (best[sp.j] == -1 || sp.i < best[sp.j])) {
			bestSim[sp.j], best[sp.j] = sp.sim, sp.i
		}
	}

	// Transitive closure over kept pairs (union-find).
	parent := make([]int, len(aps))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	clustered := make([]bool, len(aps))
	for i, j := range best {
		if j >= 0 {
			union(i, j)
			clustered[i] = true
			clustered[j] = true
		}
	}

	// Number clusters: blob first, then roots in ascending attribute order.
	p := &Partitioning{Clusters: [][]string{nil}, Entropy: []float64{0}}
	rootCluster := map[int]int{}
	for i, ap := range aps {
		if !clustered[i] {
			p.Clusters[BlobCluster] = append(p.Clusters[BlobCluster], ap.Name)
			continue
		}
		root := find(i)
		k, ok := rootCluster[root]
		if !ok {
			p.Clusters = append(p.Clusters, nil)
			p.Entropy = append(p.Entropy, 0)
			k = len(p.Clusters) - 1
			rootCluster[root] = k
		}
		p.Clusters[k] = append(p.Clusters[k], ap.Name)
	}
	p.rebuildIndex()
	ComputeEntropies(p, aps)
	return p
}

// ComputeEntropies fills the per-cluster Shannon entropies from the token
// distributions of the attributes in each cluster (the Entropy Extractor
// module of Figure 4). Call it again after manual cluster edits.
func ComputeEntropies(p *Partitioning, aps []*AttributeProfile) {
	byName := map[string]*AttributeProfile{}
	for _, ap := range aps {
		byName[ap.Name] = ap
	}
	for k, attrs := range p.Clusters {
		counts := map[string]int{}
		total := 0
		for _, name := range attrs {
			ap := byName[name]
			if ap == nil {
				continue
			}
			for t, n := range ap.Counts {
				counts[t] += n
				total += n
			}
		}
		p.SetEntropy(k, entropyOfCounts(counts, total))
	}
}
