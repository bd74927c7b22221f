// Package core wires SparkER's three modules into the Figure 3 pipeline:
//
//	profiles → Blocker → candidate pairs → Entity Matcher → matching pairs
//	        → Entity Clusterer → entities
//
// The Blocker (Figure 4) chains token blocking, optional loose-schema key
// generation, block purging, block filtering and meta-blocking. Every step
// runs either in process or on the dataflow engine, selected by whether
// the pipeline holds a cluster context. All intermediate artifacts are
// kept in the step results so the process-debugging workflow (Section 3 of
// the paper) can inspect and re-run any stage with different parameters.
package core

import (
	"fmt"

	"sparker/internal/blocking"
	"sparker/internal/clustering"
	"sparker/internal/dataflow"
	"sparker/internal/evaluation"
	"sparker/internal/looseschema"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// MeasureKind selects the matcher's similarity measure.
type MeasureKind string

const (
	// MeasureJaccard compares whole-profile token bags with Jaccard.
	MeasureJaccard MeasureKind = "jaccard"
	// MeasureDice compares whole-profile token bags with Dice.
	MeasureDice MeasureKind = "dice"
	// MeasureCosineTFIDF compares TF-IDF vectors (the CSA stand-in).
	MeasureCosineTFIDF MeasureKind = "cosine-tfidf"
)

// ClusterAlgorithm selects the entity clusterer.
type ClusterAlgorithm string

const (
	// ClusterConnectedComponents is the paper's default (GraphX CC).
	ClusterConnectedComponents ClusterAlgorithm = "connected-components"
	// ClusterCenter uses center clustering [8].
	ClusterCenter ClusterAlgorithm = "center"
	// ClusterMergeCenter uses merge-center clustering [8].
	ClusterMergeCenter ClusterAlgorithm = "merge-center"
	// ClusterUniqueMapping greedily builds a one-to-one mapping, valid
	// for clean-clean tasks where each source is duplicate-free [8].
	ClusterUniqueMapping ClusterAlgorithm = "unique-mapping"
)

// Config holds every tunable of the pipeline; the zero value is invalid,
// start from DefaultConfig (the unsupervised mode) and override.
type Config struct {
	// LooseSchema enables Blast attribute partitioning + entropy.
	LooseSchema bool
	// SchemaThreshold is the LSH similarity threshold of the attribute
	// partitioner (the Figure 6 slider).
	SchemaThreshold float64
	// PurgeFactor is the max block size as a fraction of all profiles.
	PurgeFactor float64
	// FilterRatio keeps each profile in this fraction of its smallest
	// blocks.
	FilterRatio float64
	// MetaBlocking enables graph-based comparison pruning.
	MetaBlocking bool
	// Scheme is the edge-weighting scheme.
	Scheme metablocking.Scheme
	// Pruning is the edge-pruning rule.
	Pruning metablocking.Pruning
	// UseEntropy scales edge weights by attribute-cluster entropy
	// (requires LooseSchema).
	UseEntropy bool
	// Measure picks the matcher similarity.
	Measure MeasureKind
	// MatchThreshold labels a scored pair a match at or above it.
	MatchThreshold float64
	// Clusterer picks the entity-clustering algorithm.
	Clusterer ClusterAlgorithm
	// Tokenizer is shared by blocking, loose schema and matching.
	Tokenizer tokenize.Options
	// Partitions used by distributed stages (0 = context default).
	Partitions int
	// Seed drives LSH.
	Seed int64
}

// DefaultConfig is the unsupervised mode: loose-schema meta-blocking with
// Blast pruning and entropy, Jaccard matching, connected components.
func DefaultConfig() Config {
	return Config{
		LooseSchema:     true,
		SchemaThreshold: 0.3,
		PurgeFactor:     0.5,
		FilterRatio:     blocking.DefaultFilterRatio,
		MetaBlocking:    true,
		Scheme:          metablocking.CBS,
		Pruning:         metablocking.BlastPruning,
		UseEntropy:      true,
		Measure:         MeasureJaccard,
		// Whole-profile Jaccard between a verbose and a terse rendering of
		// the same entity rarely exceeds ~0.5 (the verbose side's extra
		// tokens inflate the union), so the unsupervised default is
		// deliberately permissive; the supervised tuner refines it.
		MatchThreshold: 0.3,
		Clusterer:      ClusterConnectedComponents,
		Seed:           42,
	}
}

// SchemaAgnosticConfig is the baseline configuration: plain token blocking
// with schema-agnostic meta-blocking (WEP over CBS), as in Figure 1.
func SchemaAgnosticConfig() Config {
	cfg := DefaultConfig()
	cfg.LooseSchema = false
	cfg.UseEntropy = false
	cfg.Pruning = metablocking.WEP
	return cfg
}

// Pipeline executes the configured ER stack. A nil cluster context runs
// everything in process; otherwise the distributed implementations run
// on the simulated cluster.
type Pipeline struct {
	Config Config
	ctx    *dataflow.Context
}

// NewPipeline builds a pipeline; ctx may be nil for in-process execution.
func NewPipeline(cfg Config, ctx *dataflow.Context) *Pipeline {
	return &Pipeline{Config: cfg, ctx: ctx}
}

// Distributed reports whether the pipeline runs on the dataflow engine.
func (p *Pipeline) Distributed() bool { return p.ctx != nil }

// BlockerResult carries every intermediate artifact of the blocker so the
// debugger can show per-stage counts (Figure 6's panels).
type BlockerResult struct {
	// Partitioning is the loose-schema output (nil when disabled).
	Partitioning *looseschema.Partitioning
	// AttributeProfiles back the partitioning (nil when disabled).
	AttributeProfiles []*looseschema.AttributeProfile
	// Raw, Purged, Filtered are the block collections after each stage.
	Raw, Purged, Filtered *blocking.Collection
	// Edges are the meta-blocking survivors (nil when disabled).
	Edges []metablocking.Edge
	// Candidates is the final candidate-pair set handed to the matcher.
	Candidates []blocking.Pair

	// corpus is the pass's one tokenisation of the collection: the
	// loose-schema generator, token blocking and the matcher all read it.
	corpus *tokenize.Corpus
}

// BlockingOptions exposes the exact key-generation options the blocker
// used, so lost-pair explanations tokenize identically.
func (r *BlockerResult) BlockingOptions(cfg Config) blocking.Options {
	return blocking.Options{Tokenizer: cfg.Tokenizer, Clustering: clusteringOrNil(r.Partitioning)}
}

func clusteringOrNil(p *looseschema.Partitioning) blocking.AttributeClustering {
	if p == nil {
		return nil
	}
	return p
}

// RunBlocker executes the blocker (Figure 4) on the collection. It
// tokenises the collection once, into the corpus every later stage of
// the pass reads.
func (p *Pipeline) RunBlocker(c *profile.Collection) (*BlockerResult, error) {
	cfg := p.Config
	res := &BlockerResult{corpus: tokenize.NewCorpus(c, cfg.Tokenizer)}

	if cfg.LooseSchema {
		res.AttributeProfiles = looseschema.ExtractAttributeProfilesCorpus(res.corpus)
		res.Partitioning = looseschema.PartitionAttributes(res.AttributeProfiles, c.IsClean(), looseschema.Options{
			Threshold: cfg.SchemaThreshold,
			Seed:      cfg.Seed,
			Tokenizer: cfg.Tokenizer,
		})
	}
	return p.RunBlockerWithPartitioning(c, res)
}

// corpusOf returns the corpus res carries when it tokenises c as the
// configuration does, and a new one otherwise.
func (p *Pipeline) corpusOf(c *profile.Collection, res *BlockerResult) *tokenize.Corpus {
	if cp := res.corpus; cp != nil && cp.Collection == c && cp.Options.Equal(p.Config.Tokenizer) {
		return cp
	}
	return tokenize.NewCorpus(c, p.Config.Tokenizer)
}

// RunBlockerWithPartitioning runs the blocker from an existing (possibly
// hand-edited) partitioning held in res — the supervised path where the
// user adjusted clusters in the debugger and wants everything downstream
// recomputed.
func (p *Pipeline) RunBlockerWithPartitioning(c *profile.Collection, res *BlockerResult) (*BlockerResult, error) {
	cfg := p.Config
	opts := blocking.Options{Tokenizer: cfg.Tokenizer, Clustering: clusteringOrNil(res.Partitioning)}
	res.corpus = p.corpusOf(c, res)

	var err error
	if p.Distributed() {
		res.Raw, err = blocking.DistributedTokenBlockingCorpus(p.ctx, res.corpus, opts, cfg.Partitions)
		if err != nil {
			return nil, err
		}
	} else {
		res.Raw = blocking.TokenBlockingCorpus(res.corpus, opts)
	}

	res.Purged = blocking.PurgeBySize(res.Raw, cfg.PurgeFactor)
	res.Filtered = blocking.Filter(res.Purged, cfg.FilterRatio)

	if !cfg.MetaBlocking {
		res.Candidates = res.Filtered.DistinctPairs()
		return res, nil
	}

	mbOpts := metablocking.Options{Scheme: cfg.Scheme, Pruning: cfg.Pruning}
	if cfg.UseEntropy {
		if res.Partitioning == nil {
			return nil, fmt.Errorf("core: UseEntropy requires LooseSchema")
		}
		mbOpts.Entropy = res.Partitioning
	}
	idx := blocking.BuildIndex(res.Filtered)
	if p.Distributed() {
		res.Edges, err = metablocking.RunDistributed(p.ctx, idx, mbOpts, cfg.Partitions)
		if err != nil {
			return nil, err
		}
	} else {
		res.Edges = metablocking.Run(idx, mbOpts)
	}
	res.Candidates = make([]blocking.Pair, len(res.Edges))
	for i, e := range res.Edges {
		res.Candidates[i] = blocking.Pair{A: e.A, B: e.B}
	}
	return res, nil
}

// Measure materialises the configured similarity measure; TF-IDF needs
// the collection for corpus statistics.
func (p *Pipeline) Measure(c *profile.Collection) (matching.Measure, error) {
	return p.measure(func() *tokenize.Corpus { return tokenize.NewCorpus(c, p.Config.Tokenizer) })
}

// measure is Measure with the collection's corpus supplied on demand.
func (p *Pipeline) measure(corpus func() *tokenize.Corpus) (matching.Measure, error) {
	switch p.Config.Measure {
	case MeasureJaccard, "":
		return matching.JaccardMeasure(p.Config.Tokenizer), nil
	case MeasureDice:
		return matching.DiceMeasure(p.Config.Tokenizer), nil
	case MeasureCosineTFIDF:
		return matching.CosineMeasure(matching.NewTFIDFCorpus(corpus())), nil
	}
	return nil, fmt.Errorf("core: unknown measure %q", p.Config.Measure)
}

// RunMatcher scores the candidates and keeps pairs at or above the match
// threshold.
func (p *Pipeline) RunMatcher(c *profile.Collection, candidates []blocking.Pair) ([]matching.Match, error) {
	return p.runMatcher(tokenize.NewCorpus(c, p.Config.Tokenizer), candidates)
}

// runMatcher is RunMatcher over the collection's corpus, which the
// built-in measures prepare from.
func (p *Pipeline) runMatcher(cp *tokenize.Corpus, candidates []blocking.Pair) ([]matching.Match, error) {
	measure, err := p.measure(func() *tokenize.Corpus { return cp })
	if err != nil {
		return nil, err
	}
	if p.Distributed() {
		return matching.MatchPairsDistributedCorpus(p.ctx, cp, candidates, measure, p.Config.MatchThreshold, p.Config.Partitions)
	}
	return matching.MatchPairsCorpus(cp, candidates, measure, p.Config.MatchThreshold), nil
}

// RunClusterer groups the matching pairs into entities (Figure 5).
func (p *Pipeline) RunClusterer(matches []matching.Match) ([]clustering.Entity, error) {
	switch p.Config.Clusterer {
	case ClusterConnectedComponents, "":
		if p.Distributed() {
			return clustering.DistributedConnectedComponents(p.ctx, matches, p.Config.Partitions)
		}
		return clustering.ConnectedComponents(matches), nil
	case ClusterCenter:
		return clustering.CenterClustering(matches), nil
	case ClusterMergeCenter:
		return clustering.MergeCenterClustering(matches), nil
	case ClusterUniqueMapping:
		return clustering.UniqueMappingClustering(matches), nil
	}
	return nil, fmt.Errorf("core: unknown clusterer %q", p.Config.Clusterer)
}

// Result is the full pipeline output.
type Result struct {
	Blocker  *BlockerResult
	Matches  []matching.Match
	Entities []clustering.Entity
}

// Resolve runs the whole stack end to end, on one tokenisation of the
// collection.
func (p *Pipeline) Resolve(c *profile.Collection) (*Result, error) {
	blocker, err := p.RunBlocker(c)
	if err != nil {
		return nil, fmt.Errorf("core: blocker: %w", err)
	}
	matches, err := p.runMatcher(blocker.corpus, blocker.Candidates)
	if err != nil {
		return nil, fmt.Errorf("core: matcher: %w", err)
	}
	entities, err := p.RunClusterer(matches)
	if err != nil {
		return nil, fmt.Errorf("core: clusterer: %w", err)
	}
	return &Result{Blocker: blocker, Matches: matches, Entities: entities}, nil
}

// StepReport is the per-stage quality table of the debug workflow.
type StepReport struct {
	Step    string
	Metrics evaluation.Metrics
}

// Evaluate scores every stage of a result against a ground truth:
// blocking candidates, matcher output, and the pairwise co-references of
// the final entities.
func (r *Result) Evaluate(c *profile.Collection, gt *evaluation.GroundTruth) []StepReport {
	maxCmp := c.MaxComparisons()
	var out []StepReport
	out = append(out, StepReport{
		Step:    "blocking",
		Metrics: evaluation.EvaluatePairs(r.Blocker.Candidates, gt, maxCmp),
	})
	out = append(out, StepReport{
		Step:    "matching",
		Metrics: evaluation.EvaluateMatches(r.Matches, gt, maxCmp),
	})
	out = append(out, StepReport{
		Step:    "clustering",
		Metrics: evaluation.EvaluateMatches(clustering.PairsOf(r.Entities), gt, maxCmp),
	})
	return out
}
