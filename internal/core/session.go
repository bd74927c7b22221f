package core

import (
	"fmt"

	"sparker/internal/blocking"
	"sparker/internal/evaluation"
	"sparker/internal/looseschema"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// Session drives the interactive debugging loop of the paper's Section 3:
// "the user try a configuration, if it is not satisfied changes it, and
// repeat the step again". It caches the expensive invariants (the
// tokenised collection, attribute vocabularies, the ground truth) so that changing the LSH threshold,
// editing a cluster by hand, or switching the pruning rule recomputes
// only the affected stages. Typically built over a debug sample rather
// than the full collection.
type Session struct {
	collection *profile.Collection
	gt         *evaluation.GroundTruth // may be nil
	cfg        Config

	// Cached across reconfigurations.
	corpus            *tokenize.Corpus
	attributeProfiles []*looseschema.AttributeProfile

	// Current state.
	partitioning *looseschema.Partitioning
	blocker      *BlockerResult
}

// NewSession prepares a debugging session; gt may be nil when no ground
// truth is available (the paper then shows pairs to the user instead).
// The initial blocker runs with the given configuration.
func NewSession(c *profile.Collection, cfg Config, gt *evaluation.GroundTruth) (*Session, error) {
	s := &Session{collection: c, gt: gt, cfg: cfg, corpus: tokenize.NewCorpus(c, cfg.Tokenizer)}
	if cfg.LooseSchema {
		s.attributeProfiles = looseschema.ExtractAttributeProfilesCorpus(s.corpus)
		s.partitioning = looseschema.PartitionAttributes(s.attributeProfiles, c.IsClean(), looseschema.Options{
			Threshold: cfg.SchemaThreshold,
			Seed:      cfg.Seed,
			Tokenizer: cfg.Tokenizer,
		})
	}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// rebuild reruns the blocker from the current partitioning and config.
func (s *Session) rebuild() error {
	res := &BlockerResult{
		Partitioning:      s.partitioning,
		AttributeProfiles: s.attributeProfiles,
		corpus:            s.corpus,
	}
	pipeline := NewPipeline(s.cfg, nil)
	out, err := pipeline.RunBlockerWithPartitioning(s.collection, res)
	if err != nil {
		return err
	}
	s.blocker = out
	return nil
}

// Config returns the session's current configuration (save it with
// SaveConfig to apply in batch mode later).
func (s *Session) Config() Config { return s.cfg }

// Blocker exposes the current blocker artifacts.
func (s *Session) Blocker() *BlockerResult { return s.blocker }

// Partitioning exposes the current attribute clustering (nil when loose
// schema is off).
func (s *Session) Partitioning() *looseschema.Partitioning { return s.partitioning }

// SetSchemaThreshold re-partitions the attributes at a new LSH threshold
// (the Figure 6 slider) and reruns the blocker, reusing the cached
// attribute vocabularies.
func (s *Session) SetSchemaThreshold(threshold float64) error {
	if !s.cfg.LooseSchema {
		return fmt.Errorf("core: session runs schema-agnostic; enable LooseSchema first")
	}
	s.cfg.SchemaThreshold = threshold
	s.partitioning = looseschema.PartitionAttributes(s.attributeProfiles, s.collection.IsClean(), looseschema.Options{
		Threshold: threshold,
		Seed:      s.cfg.Seed,
		Tokenizer: s.cfg.Tokenizer,
	})
	return s.rebuild()
}

// EditPartitioning applies a manual cluster edit (the supervised move of
// Figure 6(c)): the callback mutates a clone, entropies are recomputed,
// and the blocker reruns. On error the previous state is kept.
func (s *Session) EditPartitioning(edit func(*looseschema.Partitioning) error) error {
	if s.partitioning == nil {
		return fmt.Errorf("core: no partitioning to edit (LooseSchema off)")
	}
	clone := s.partitioning.Clone()
	if err := edit(clone); err != nil {
		return err
	}
	looseschema.ComputeEntropies(clone, s.attributeProfiles)
	old := s.partitioning
	s.partitioning = clone
	if err := s.rebuild(); err != nil {
		s.partitioning = old
		return err
	}
	return nil
}

// SetMetaBlocking reconfigures the pruning stage and reruns the blocker
// (blocks are rebuilt too; they are cheap next to the neighbourhood
// materialisation).
func (s *Session) SetMetaBlocking(enabled bool, scheme metablocking.Scheme, pruning metablocking.Pruning, useEntropy bool) error {
	s.cfg.MetaBlocking = enabled
	s.cfg.Scheme = scheme
	s.cfg.Pruning = pruning
	s.cfg.UseEntropy = useEntropy
	return s.rebuild()
}

// SetMatchThreshold records a tuned matcher threshold in the session
// configuration (used by Run and by the saved config).
func (s *Session) SetMatchThreshold(th float64) { s.cfg.MatchThreshold = th }

// Metrics evaluates the current candidate set against the ground truth;
// it returns zero metrics when the session has none.
func (s *Session) Metrics() evaluation.Metrics {
	if s.gt == nil {
		return evaluation.Metrics{Candidates: len(s.blocker.Candidates)}
	}
	return evaluation.EvaluatePairs(s.blocker.Candidates, s.gt, s.collection.MaxComparisons())
}

// LostPair is one row of the Figure 6(d) drill-down.
type LostPair struct {
	A, B                 profile.ID
	AOriginal, BOriginal string
	// SharedKeys under the session's current blocking options; empty when
	// the profiles share no key at all.
	SharedKeys []string
}

// LostPairs lists up to limit ground-truth pairs missing from the current
// candidates, each explained with the keys the pair shares under the
// current key-generation options.
func (s *Session) LostPairs(limit int) []LostPair {
	if s.gt == nil {
		return nil
	}
	opts := s.blocker.BlockingOptions(s.cfg)
	var out []LostPair
	for _, p := range evaluation.LostPairs(s.blocker.Candidates, s.gt) {
		if limit > 0 && len(out) == limit {
			break
		}
		out = append(out, LostPair{
			A: p.A, B: p.B,
			AOriginal:  s.collection.Get(p.A).OriginalID,
			BOriginal:  s.collection.Get(p.B).OriginalID,
			SharedKeys: evaluation.SharedKeys(s.collection, opts, p.A, p.B),
		})
	}
	return out
}

// Candidates exposes the current candidate pairs.
func (s *Session) Candidates() []blocking.Pair { return s.blocker.Candidates }

// Run executes the full pipeline (matcher + clusterer included) with the
// session's current configuration.
func (s *Session) Run() (*Result, error) {
	pipeline := NewPipeline(s.cfg, nil)
	matches, err := pipeline.runMatcher(s.blocker.corpus, s.blocker.Candidates)
	if err != nil {
		return nil, err
	}
	entities, err := pipeline.RunClusterer(matches)
	if err != nil {
		return nil, err
	}
	return &Result{Blocker: s.blocker, Matches: matches, Entities: entities}, nil
}
