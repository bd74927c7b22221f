// Package sparker is a Go reproduction of SparkER (EDBT 2019), an entity
// resolution tool designed for distributed execution. It covers the full
// ER stack of the paper: schema-agnostic and loose-schema (Blast)
// meta-blocking, entity matching, and entity clustering, running either
// in process or on an embedded mini-Spark dataflow engine with a
// configurable number of simulated executors.
//
// Quick start:
//
//	a, _ := sparker.ReadProfilesCSVFile("abt.csv", "id")
//	b, _ := sparker.ReadProfilesCSVFile("buy.csv", "id")
//	collection := sparker.NewCleanClean(a, b)
//
//	result, err := sparker.Resolve(collection, sparker.DefaultConfig())
//	if err != nil { ... }
//	for _, entity := range result.Entities { ... }
//
// To run distributed, attach a cluster:
//
//	cluster := sparker.NewCluster(8)
//	defer cluster.Close()
//	pipeline := sparker.NewPipeline(cfg, cluster)
//	result, err := pipeline.Resolve(collection)
//
// The package re-exports the building blocks (blocker, matcher,
// clusterer, evaluation, sampling) so each stage can also be driven
// separately, which is what the process-debugging workflow of the paper
// does.
package sparker

import (
	"time"

	"sparker/internal/blocking"
	"sparker/internal/clustering"
	"sparker/internal/core"
	"sparker/internal/dataflow"
	"sparker/internal/datagen"
	"sparker/internal/evaluation"
	"sparker/internal/index"
	"sparker/internal/loader"
	"sparker/internal/looseschema"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
	"sparker/internal/sampling"
)

// Data model.
type (
	// Profile is one record to resolve.
	Profile = profile.Profile
	// KeyValue is one attribute of a profile.
	KeyValue = profile.KeyValue
	// Collection is the input of an ER task.
	Collection = profile.Collection
	// ProfileID is the dense internal profile identifier.
	ProfileID = profile.ID
)

// NewCleanClean merges two duplicate-free sources into a collection.
func NewCleanClean(a, b []Profile) *Collection { return profile.NewCleanClean(a, b) }

// NewDirty wraps a single dataset with internal duplicates.
func NewDirty(ps []Profile) *Collection { return profile.NewDirty(ps) }

// Pipeline configuration.
type (
	// Config holds every tunable of the pipeline.
	Config = core.Config
	// Pipeline executes the configured ER stack.
	Pipeline = core.Pipeline
	// Result is the full pipeline output.
	Result = core.Result
	// BlockerResult carries the blocker's intermediate artifacts.
	BlockerResult = core.BlockerResult
	// StepReport is a per-stage quality row.
	StepReport = core.StepReport
)

// Measure kinds.
const (
	MeasureJaccard     = core.MeasureJaccard
	MeasureDice        = core.MeasureDice
	MeasureCosineTFIDF = core.MeasureCosineTFIDF
)

// Clusterer kinds.
const (
	ClusterConnectedComponents = core.ClusterConnectedComponents
	ClusterCenter              = core.ClusterCenter
	ClusterMergeCenter         = core.ClusterMergeCenter
	ClusterUniqueMapping       = core.ClusterUniqueMapping
)

// DefaultConfig is the unsupervised mode: loose-schema meta-blocking with
// entropy, Jaccard matching, connected components.
func DefaultConfig() Config { return core.DefaultConfig() }

// SchemaAgnosticConfig is the schema-agnostic baseline of Figure 1.
func SchemaAgnosticConfig() Config { return core.SchemaAgnosticConfig() }

// NewPipeline builds a pipeline; pass a nil cluster for in-process
// execution.
func NewPipeline(cfg Config, cluster *Cluster) *Pipeline { return core.NewPipeline(cfg, cluster) }

// Resolve runs the whole stack in process with the given configuration.
func Resolve(c *Collection, cfg Config) (*Result, error) {
	return core.NewPipeline(cfg, nil).Resolve(c)
}

// Cluster is the embedded dataflow engine (the Spark stand-in).
type Cluster = dataflow.Context

// ClusterMetrics is a snapshot of engine counters (tasks, shuffles, ...).
type ClusterMetrics = dataflow.MetricsSnapshot

// NewCluster starts a simulated cluster with the given executor count.
func NewCluster(executors int) *Cluster {
	return dataflow.NewContext(dataflow.WithParallelism(executors))
}

// Blocking and meta-blocking building blocks.
type (
	// Block is one blocking-key bucket.
	Block = blocking.Block
	// BlockCollection is an ordered set of blocks.
	BlockCollection = blocking.Collection
	// CandidatePair is an unordered candidate comparison.
	CandidatePair = blocking.Pair
	// MetaBlockingEdge is a retained comparison with its weight.
	MetaBlockingEdge = metablocking.Edge
	// Partitioning is the loose-schema attribute clustering.
	Partitioning = looseschema.Partitioning
)

// Weight schemes.
const (
	CBS  = metablocking.CBS
	ECBS = metablocking.ECBS
	JS   = metablocking.JS
	EJS  = metablocking.EJS
	ARCS = metablocking.ARCS
)

// Pruning strategies.
const (
	WEP           = metablocking.WEP
	CEP           = metablocking.CEP
	WNP           = metablocking.WNP
	ReciprocalWNP = metablocking.ReciprocalWNP
	CNP           = metablocking.CNP
	ReciprocalCNP = metablocking.ReciprocalCNP
	BlastPruning  = metablocking.BlastPruning
)

// Matching and clustering.
type (
	// Match is a pair labelled as matching, with its score.
	Match = matching.Match
	// Entity is one resolved real-world entity.
	Entity = clustering.Entity
)

// Evaluation.
type (
	// GroundTruth is the set of true matching pairs.
	GroundTruth = evaluation.GroundTruth
	// Metrics are recall / precision / F1 / reduction-ratio numbers.
	Metrics = evaluation.Metrics
)

// NewGroundTruth builds a ground truth from canonical internal-ID pairs.
func NewGroundTruth(pairs []CandidatePair) *GroundTruth {
	return evaluation.NewGroundTruth(pairs)
}

// NewGroundTruthFromOriginalIDs resolves (originalID, originalID) pairs
// against the collection.
func NewGroundTruthFromOriginalIDs(c *Collection, pairs [][2]string) (*GroundTruth, error) {
	return evaluation.FromOriginalIDs(c, pairs)
}

// EvaluatePairs scores a candidate-pair set against a ground truth.
func EvaluatePairs(candidates []CandidatePair, gt *GroundTruth, maxComparisons int64) Metrics {
	return evaluation.EvaluatePairs(candidates, gt, maxComparisons)
}

// LostPairs lists ground-truth pairs missing from the candidate set.
func LostPairs(candidates []CandidatePair, gt *GroundTruth) []CandidatePair {
	return evaluation.LostPairs(candidates, gt)
}

// evaluationSharedKeys adapts evaluation.SharedKeys for the step API.
func evaluationSharedKeys(c *Collection, opts blocking.Options, a, b ProfileID) []string {
	return evaluation.SharedKeys(c, opts, a, b)
}

// Sampling (Section 3 debug workflow).
type (
	// DebugSample is a representative sub-collection for fast tuning.
	DebugSample = sampling.Sample
	// SampleOptions configures debug sampling.
	SampleOptions = sampling.Options
)

// BuildDebugSample draws the Magellan-style debug sample.
func BuildDebugSample(c *Collection, opts SampleOptions) *DebugSample {
	return sampling.Build(c, opts)
}

// IO.
var (
	// ReadProfilesCSVFile parses one source dataset from a CSV file.
	ReadProfilesCSVFile = loader.ReadProfilesCSVFile
	// ReadGroundTruthCSVFile parses a two-column ground-truth CSV file.
	ReadGroundTruthCSVFile = loader.ReadGroundTruthCSVFile
)

// Online serving (the incremental entity index).
type (
	// Index is the concurrent, sharded, incrementally maintainable entity
	// index behind sparker-serve.
	Index = index.Index
	// IndexConfig holds the index tunables.
	IndexConfig = index.Config
	// IndexCandidate is one ranked blocking candidate of a query.
	IndexCandidate = index.Candidate
	// IndexQueryResult carries ranked candidates plus work accounting.
	IndexQueryResult = index.QueryResult
	// IndexResolution is the scored (matched) result of one point lookup.
	IndexResolution = index.Resolution
	// IndexSnapshot is a consistent point-in-time index summary.
	IndexSnapshot = index.Snapshot
	// IndexPersistState describes an index's durable-snapshot state.
	IndexPersistState = index.PersistState
	// IndexBudget bounds the work of one resolution (wall-clock
	// deadline and/or max scored comparisons); a tripped budget returns
	// the best-first prefix marked Truncated. The zero value is
	// unlimited and bitwise-identical to the unbudgeted path.
	IndexBudget = index.Budget
	// IndexResolveOptions carries the per-request work budget
	// (Index.ResolveWithOptions).
	IndexResolveOptions = index.ResolveOptions
)

// IndexDeadlineIn converts a wall-clock budget into the monotonic
// deadline IndexBudget.Deadline expects.
func IndexDeadlineIn(d time.Duration) int64 { return index.DeadlineIn(d) }

// Durable index snapshots.
var (
	// ErrIndexReadOnly is returned by Upsert on a read-only replica.
	ErrIndexReadOnly = index.ErrReadOnly
	// ErrIndexSnapshotVersion marks a snapshot file written by an
	// incompatible format version.
	ErrIndexSnapshotVersion = index.ErrSnapshotVersion
	// ErrIndexOpLogGap is returned by Index.OpsSince when the requested
	// position has been evicted from the op log's retention window: the
	// consumer must restart from a full snapshot.
	ErrIndexOpLogGap = index.ErrOpLogGap
	// ErrIndexOpLogDisabled is returned by the op-log surface when the
	// index was built without IndexOpLogConfig.Enabled.
	ErrIndexOpLogDisabled = index.ErrOpLogDisabled
)

type (
	// IndexOpLogConfig enables and bounds the in-memory op log
	// (IndexConfig.OpLog): the source of the replication feed
	// (Index.OpsSince / Index.ApplyOps) and the prerequisite of the
	// durable log (Index.OpenWAL).
	IndexOpLogConfig = index.OpLogConfig
	// IndexOpLogStats summarises the op log in IndexSnapshot.
	IndexOpLogStats = index.OpLogStats
	// IndexWALConfig configures the durable on-disk op log
	// (Index.OpenWAL): rotating CRC-framed segment files every op is
	// appended to before it mutates the index, replayed at boot for a
	// crash-safe restart.
	IndexWALConfig = index.WALConfig
	// IndexWALSyncPolicy picks when WAL appends reach stable storage.
	IndexWALSyncPolicy = index.WALSyncPolicy
	// IndexWALRecovery reports what Index.OpenWAL found on disk:
	// segments scanned, ops replayed or skipped, bytes truncated off a
	// torn tail, damaged segments dropped.
	IndexWALRecovery = index.WALRecovery
	// IndexWALStats summarises the attached WAL in IndexSnapshot.
	IndexWALStats = index.WALStats
)

// WAL fsync policies (IndexWALConfig.Sync).
const (
	// WALSyncInterval flushes appends from a background loop every
	// IndexWALConfig.SyncInterval (default): bounded data loss, near
	// in-memory append latency.
	WALSyncInterval = index.WALSyncInterval
	// WALSyncAlways fsyncs every append before it is applied: zero data
	// loss on power failure, one disk sync per write.
	WALSyncAlways = index.WALSyncAlways
	// WALSyncNever leaves flushing to the OS page cache (and to a clean
	// close): crash-safe against process death, not against power loss.
	WALSyncNever = index.WALSyncNever
)

// ParseWALSyncPolicy parses "always", "interval" (or "") and "never" —
// the flag/wire form of a WAL fsync policy.
func ParseWALSyncPolicy(s string) (IndexWALSyncPolicy, error) {
	return index.ParseWALSyncPolicy(s)
}

// SaveIndex writes a durable snapshot of the index to path, atomically
// (temp file + rename): a crash mid-save never corrupts a previous
// snapshot at the same path. Saving a read-only replica returns
// ErrIndexReadOnly — replicas consume snapshots, they never produce
// them.
func SaveIndex(x *Index, path string) (IndexPersistState, error) { return x.Save(path) }

// LoadIndex restores a fully queryable index from a snapshot file
// without re-tokenizing or re-indexing. The cfg must carry the same
// tokenizer/measure the snapshot was saved under (code is not
// serialized); the shard count comes from the file. An LSH section
// written by an older build is read and discarded; an image whose keys
// sit under attribute clusters (loose-schema) is refused. A missing
// file surfaces as fs.ErrNotExist and any format version but the current
// one as ErrIndexSnapshotVersion, both via errors.Is; bytes after the
// file's checksum are a plain error. Use Index.SetReadOnly to serve the
// restored index as a write-rejecting replica.
func LoadIndex(path string, cfg IndexConfig) (*Index, error) { return index.Load(path, cfg) }

// Index candidate-pruning rules.
const (
	// IndexPruneMean keeps candidates at or above the neighbourhood mean
	// weight (WNP-style).
	IndexPruneMean = index.PruneMean
	// IndexPruneTopK keeps the MaxCandidates heaviest candidates
	// (CNP-style).
	IndexPruneTopK = index.PruneTopK
	// IndexPruneNone disables candidate pruning.
	IndexPruneNone = index.PruneNone
)

// DefaultIndexConfig is the unsupervised serving configuration.
func DefaultIndexConfig() IndexConfig { return index.DefaultConfig() }

// NewIndex builds the online index from a batch collection, preserving
// internal profile IDs.
func NewIndex(c *Collection, cfg IndexConfig) (*Index, error) {
	return index.NewFromCollection(c, cfg)
}

// NewEmptyIndex starts an empty index to be filled through Upsert. To
// serve an index over HTTP, see the sparker/serve subpackage (kept out
// of this package so batch-only consumers do not link net/http).
func NewEmptyIndex(clean bool, cfg IndexConfig) *Index { return index.New(clean, cfg) }

// Synthetic benchmark.
type (
	// BenchmarkConfig sizes the generated SynthAbtBuy benchmark.
	BenchmarkConfig = datagen.Config
	// BenchmarkDataset is a generated collection plus its ground truth.
	BenchmarkDataset = datagen.Dataset
)

// AbtBuyConfig mirrors the Abt-Buy dataset sizes used in the demo.
func AbtBuyConfig() BenchmarkConfig { return datagen.AbtBuy() }

// GenerateBenchmark builds the synthetic clean-clean benchmark.
func GenerateBenchmark(cfg BenchmarkConfig) *BenchmarkDataset { return datagen.Generate(cfg) }
