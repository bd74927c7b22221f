package sparker

import (
	"sparker/internal/blocking"
	"sparker/internal/clustering"
	"sparker/internal/core"
	"sparker/internal/looseschema"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/tokenize"
)

// This file exposes the individual pipeline stages so that library users
// can drive the stack step by step — which is exactly what the paper's
// process-debugging workflow does: run one stage, inspect it, change a
// parameter, and rerun from there.

// TokenizerOptions configures tokenization for the step-level API.
type TokenizerOptions = tokenize.Options

// BlockingOptions configures token blocking.
type BlockingOptions = blocking.Options

// BlockIndex is the profile-to-blocks index meta-blocking consumes.
type BlockIndex = blocking.Index

// TokenBlocking builds blocks on the local machine (schema-agnostic when
// opts.Clustering is nil, loose-schema otherwise): the collection is
// tokenised once, one range of profiles per GOMAXPROCS worker, and the
// blocks are built by counting. The output is identical for every
// worker count.
func TokenBlocking(c *Collection, opts BlockingOptions) *BlockCollection {
	return blocking.TokenBlocking(c, opts)
}

// DistributedTokenBlocking builds the same blocks on a cluster.
func DistributedTokenBlocking(cluster *Cluster, c *Collection, opts BlockingOptions, partitions int) (*BlockCollection, error) {
	return blocking.DistributedTokenBlocking(cluster, c, opts, partitions)
}

// PurgeBlocks drops blocks larger than maxFraction of the profile
// universe (the paper uses 0.5).
func PurgeBlocks(blocks *BlockCollection, maxFraction float64) *BlockCollection {
	return blocking.PurgeBySize(blocks, maxFraction)
}

// FilterBlocks removes each profile from its largest blocks, keeping the
// given ratio of its smallest ones (the paper uses 0.8).
func FilterBlocks(blocks *BlockCollection, ratio float64) *BlockCollection {
	return blocking.Filter(blocks, ratio)
}

// BuildBlockIndex prepares the meta-blocking input (a flat CSR over
// dense profile IDs, carved by a counting pass).
func BuildBlockIndex(blocks *BlockCollection) *BlockIndex {
	return blocking.BuildIndex(blocks)
}

// DistinctCandidatePairs enumerates the de-duplicated candidate pairs a
// block collection implies, in ascending (A, B) order — the candidate
// set the matcher scores when meta-blocking is disabled.
func DistinctCandidatePairs(blocks *BlockCollection) []CandidatePair {
	return blocks.DistinctPairs()
}

// BlockingKey is one blocking key of a profile with its attribute
// cluster (the unit of work shared by batch blocking and the online
// index).
type BlockingKey = blocking.KeyedToken

// ProfileBlockingKeys enumerates the distinct blocking keys one profile
// produces under the given options — the keys the online index probes
// for it.
func ProfileBlockingKeys(p *Profile, opts BlockingOptions) []BlockingKey {
	return opts.KeysOf(p)
}

// MetaBlockingOptions configures graph-based comparison pruning.
type MetaBlockingOptions = metablocking.Options

// RunMetaBlocking prunes the blocking graph in process, one range of
// nodes per GOMAXPROCS worker; the edges are the same for every worker
// count.
func RunMetaBlocking(idx *BlockIndex, opts MetaBlockingOptions) []MetaBlockingEdge {
	return metablocking.Run(idx, opts)
}

// RunMetaBlockingDistributed prunes the blocking graph with the
// broadcast-join parallel algorithm.
func RunMetaBlockingDistributed(cluster *Cluster, idx *BlockIndex, opts MetaBlockingOptions, partitions int) ([]MetaBlockingEdge, error) {
	return metablocking.RunDistributed(cluster, idx, opts, partitions)
}

// Progressive comparison scheduling (reference [6] of the paper).
const (
	// ScheduleGlobalTop emits all comparisons in decreasing weight order.
	ScheduleGlobalTop = metablocking.GlobalTop
	// ScheduleProfiles is PPS: profile-major, best-first, in rounds.
	ScheduleProfiles = metablocking.ProfileScheduling
	// ScheduleRandom is the baseline ordering.
	ScheduleRandom = metablocking.RandomOrder
)

// ScheduleStrategy selects a progressive comparison scheduler.
type ScheduleStrategy = metablocking.ScheduleStrategy

// ScheduleComparisons orders the blocking graph's comparisons for
// budget-bound (progressive) resolution. A non-positive budget returns
// the full schedule.
func ScheduleComparisons(idx *BlockIndex, opts MetaBlockingOptions, strategy ScheduleStrategy, budget int) []MetaBlockingEdge {
	return metablocking.Schedule(idx, opts, strategy, budget)
}

// EdgesToPairs converts retained meta-blocking edges into candidate pairs
// for the matcher.
func EdgesToPairs(edges []MetaBlockingEdge) []CandidatePair {
	out := make([]CandidatePair, len(edges))
	for i, e := range edges {
		out[i] = CandidatePair{A: e.A, B: e.B}
	}
	return out
}

// LooseSchemaOptions configures attribute partitioning.
type LooseSchemaOptions = looseschema.Options

// AttributeProfile is the vocabulary of one source-qualified attribute.
type AttributeProfile = looseschema.AttributeProfile

// PartitionAttributes runs Blast's LSH attribute partitioning + entropy
// extraction.
func PartitionAttributes(c *Collection, opts LooseSchemaOptions) *Partitioning {
	return looseschema.Partition(c, opts)
}

// ExtractAttributeProfiles exposes the per-attribute vocabularies (used
// to recompute entropies after manual cluster edits).
func ExtractAttributeProfiles(c *Collection, tok TokenizerOptions) []*AttributeProfile {
	return looseschema.ExtractAttributeProfiles(c, tok)
}

// RecomputeEntropies refreshes cluster entropies after MoveAttribute
// edits.
func RecomputeEntropies(p *Partitioning, aps []*AttributeProfile) {
	looseschema.ComputeEntropies(p, aps)
}

// Measure scores the similarity of two profiles in [0, 1]; the batch
// matcher prepares it once per collection and scores pairs from that.
type Measure = matching.Measure

// MeasureFunc adapts a custom comparison function to Measure.
type MeasureFunc = matching.MeasureFunc

// LabeledPair is a supervised training example.
type LabeledPair = matching.LabeledPair

// JaccardMeasure compares whole-profile token bags with Jaccard.
func JaccardMeasure(tok TokenizerOptions) Measure { return matching.JaccardMeasure(tok) }

// MatchPairs scores candidates and keeps those at or above threshold.
func MatchPairs(c *Collection, pairs []CandidatePair, m Measure, threshold float64) []Match {
	return matching.MatchPairs(c, pairs, m, threshold)
}

// TuneThreshold finds the F1-maximising match threshold on labelled
// pairs (the supervised mode).
func TuneThreshold(c *Collection, labeled []LabeledPair, m Measure) (threshold, f1 float64) {
	return matching.TuneThreshold(c, labeled, m)
}

// ConnectedComponents clusters the similarity graph under transitivity.
func ConnectedComponents(matches []Match) []Entity {
	return clustering.ConnectedComponents(matches)
}

// UniqueMappingClustering greedily builds a one-to-one mapping between
// two duplicate-free sources.
func UniqueMappingClustering(matches []Match) []Entity {
	return clustering.UniqueMappingClustering(matches)
}

// SharedBlockingKeys explains why two profiles block together: the keys
// they share under the given options (the Figure 6(d) drill-down).
func SharedBlockingKeys(c *Collection, opts BlockingOptions, a, b ProfileID) []string {
	return evaluationSharedKeys(c, opts, a, b)
}

// Interactive debugging (the paper's Section 3 loop).
type (
	// Session caches the expensive invariants of a debugging loop so
	// threshold changes and manual cluster edits recompute only what
	// changed.
	Session = core.Session
	// LostPairReport is one row of the lost-pair drill-down.
	LostPairReport = core.LostPair
)

// NewSession starts a debugging session; gt may be nil.
func NewSession(c *Collection, cfg Config, gt *GroundTruth) (*Session, error) {
	return core.NewSession(c, cfg, gt)
}

// Configuration persistence (the paper's "store the configuration, apply
// in batch mode").
var (
	// SaveConfigFile writes a pipeline configuration as JSON.
	SaveConfigFile = core.SaveConfigFile
	// LoadConfigFile reads a stored pipeline configuration.
	LoadConfigFile = core.LoadConfigFile
)
