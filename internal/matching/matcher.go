package matching

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"sparker/internal/blocking"
	"sparker/internal/dataflow"
	"sparker/internal/kernel"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// Match is a candidate pair labelled as a match, with its similarity
// score. The set of matches forms the similarity graph the entity
// clusterer consumes.
type Match struct {
	A, B  profile.ID
	Score float64
}

// Measure scores the similarity of two profiles in [0, 1]. Every entry
// point that scores many pairs of one collection (MatchPairs,
// MatchPairsDistributed, ScorePairs, TuneThreshold) calls Prepare once
// and scores from the result, so a measure does its per-profile work —
// tokenising, weighing — once per profile, not once per pair.
type Measure interface {
	// Score compares two profiles on their own: the one-off path (the
	// online index scoring a query against a candidate).
	Score(a, b *profile.Profile) float64
	// Prepare readies the measure for the profiles of c and returns the
	// scorer of c's pairs.
	Prepare(c *profile.Collection) PairScorer
}

// PairScorer scores two profiles of the collection it was prepared for,
// by ID. It only reads its prepared state: safe for concurrent use.
type PairScorer func(a, b profile.ID) float64

// MeasureFunc adapts a plain comparison function — a user-supplied
// custom measure — to Measure; it has nothing to prepare.
type MeasureFunc func(a, b *profile.Profile) float64

// Score calls f.
func (f MeasureFunc) Score(a, b *profile.Profile) float64 { return f(a, b) }

// Prepare returns f over c's profiles.
func (f MeasureFunc) Prepare(c *profile.Collection) PairScorer {
	return func(a, b profile.ID) float64 { return f(c.Get(a), c.Get(b)) }
}

// corpusMeasure is a built-in measure, which can prepare from the corpus
// a batch pass has already built instead of tokenising the collection
// again.
type corpusMeasure interface {
	// tokenizer is how the measure tokenises: a corpus serves it only
	// when built with the same options.
	tokenizer() tokenize.Options
	prepareCorpus(cp *tokenize.Corpus) PairScorer
}

// prepare readies m for the corpus's collection: from the corpus itself
// when m is built-in and tokenises as the corpus did, else through
// m.Prepare.
func prepare(m Measure, cp *tokenize.Corpus) PairScorer {
	if cm, ok := m.(corpusMeasure); ok && cm.tokenizer().Equal(cp.Options) {
		return cm.prepareCorpus(cp)
	}
	return m.Prepare(cp.Collection)
}

// pairCorpus tokenises two profiles on their own, for one-off scoring;
// in the corpus they are profiles 0 and 1.
func pairCorpus(a, b *profile.Profile, tok tokenize.Options) *tokenize.Corpus {
	return tokenize.NewCorpus(&profile.Collection{Profiles: []profile.Profile{*a, *b}}, tok)
}

// bagMeasure is a set similarity over whole-profile token bags: sim maps
// the overlap and the two distinct-token counts to the score.
type bagMeasure struct {
	tok tokenize.Options
	sim func(inter, na, nb int) float64
}

func (m bagMeasure) Score(a, b *profile.Profile) float64 {
	return m.prepareCorpus(pairCorpus(a, b, m.tok))(0, 1)
}

func (m bagMeasure) Prepare(c *profile.Collection) PairScorer {
	return m.prepareCorpus(tokenize.NewCorpus(c, m.tok))
}

func (m bagMeasure) tokenizer() tokenize.Options { return m.tok }

func (m bagMeasure) prepareCorpus(cp *tokenize.Corpus) PairScorer {
	b := bagsOf(cp, false)
	return func(p, q profile.ID) float64 {
		x, y := b.of(p), b.of(q)
		return m.sim(intersectSorted(x, y), len(x), len(y))
	}
}

// JaccardMeasure scores profiles by the Jaccard similarity of their
// whole-profile token bags, the unsupervised default.
func JaccardMeasure(tok tokenize.Options) Measure {
	return bagMeasure{tok: tok, sim: func(inter, na, nb int) float64 {
		union := na + nb - inter
		if union == 0 {
			return 0
		}
		return float64(inter) / float64(union)
	}}
}

// DiceMeasure scores profiles with the Dice coefficient of their bags.
func DiceMeasure(tok tokenize.Options) Measure {
	return bagMeasure{tok: tok, sim: func(inter, na, nb int) float64 {
		if na+nb == 0 {
			return 0
		}
		return 2 * float64(inter) / float64(na+nb)
	}}
}

// cosineMeasure is TF-IDF cosine under a corpus model.
type cosineMeasure struct{ m *TFIDF }

func (c cosineMeasure) Score(a, b *profile.Profile) float64 { return c.m.Cosine(a, b) }

func (c cosineMeasure) Prepare(col *profile.Collection) PairScorer {
	return c.m.prepareCorpus(tokenize.NewCorpus(col, c.m.tok))
}

func (c cosineMeasure) tokenizer() tokenize.Options { return c.m.tok }

func (c cosineMeasure) prepareCorpus(cp *tokenize.Corpus) PairScorer { return c.m.prepareCorpus(cp) }

// CosineMeasure scores profiles with TF-IDF cosine similarity (the CSA
// stand-in).
func CosineMeasure(m *TFIDF) Measure { return cosineMeasure{m} }

// AttributeMeasure compares one attribute of each profile with a string
// similarity; useful for schema-aware supervised configurations.
func AttributeMeasure(attrA, attrB string, sim func(a, b string) float64) Measure {
	return MeasureFunc(func(a, b *profile.Profile) float64 {
		return sim(a.Value(attrA), b.Value(attrB))
	})
}

// ensemble is a weighted average of measures.
type ensemble struct {
	measures []Measure
	weights  []float64
	total    float64
}

// Ensemble averages several measures with weights. Weights are normalised;
// a nil weight slice averages uniformly. A non-empty weight slice must
// have one weight per measure: anything else is a programming error and
// panics here, at construction.
func Ensemble(measures []Measure, weights []float64) Measure {
	if len(weights) == 0 {
		weights = make([]float64, len(measures))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(measures) {
		panic(fmt.Sprintf("matching: Ensemble of %d measures given %d weights", len(measures), len(weights)))
	}
	e := ensemble{measures: measures, weights: weights}
	for _, w := range weights {
		e.total += w
	}
	return e
}

func (e ensemble) Score(a, b *profile.Profile) float64 {
	var s float64
	for i, m := range e.measures {
		s += e.weights[i] * m.Score(a, b)
	}
	return e.normalise(s)
}

// Prepare prepares every member once.
func (e ensemble) Prepare(c *profile.Collection) PairScorer {
	scorers := make([]PairScorer, len(e.measures))
	for i, m := range e.measures {
		scorers[i] = m.Prepare(c)
	}
	return func(a, b profile.ID) float64 {
		var s float64
		for i, score := range scorers {
			s += e.weights[i] * score(a, b)
		}
		return e.normalise(s)
	}
}

func (e ensemble) normalise(sum float64) float64 {
	if e.total == 0 {
		return 0
	}
	return sum / e.total
}

// ScorePairs scores every candidate pair without thresholding; used by the
// debug workflow and the supervised tuner.
func ScorePairs(c *profile.Collection, pairs []blocking.Pair, measure Measure) []Match {
	score := measure.Prepare(c)
	out := make([]Match, len(pairs))
	for i, p := range pairs {
		out[i] = Match{A: p.A, B: p.B, Score: score(p.A, p.B)}
	}
	return out
}

// MatchPairs scores candidate pairs and keeps those at or above the
// threshold, sorted by (A, B). The result is never nil.
func MatchPairs(c *profile.Collection, pairs []blocking.Pair, measure Measure, threshold float64) []Match {
	return matchPrepared(measure.Prepare(c), pairs, threshold)
}

// MatchPairsCorpus is MatchPairs over a collection already tokenised: a
// built-in measure that tokenises as the corpus did prepares from it.
func MatchPairsCorpus(cp *tokenize.Corpus, pairs []blocking.Pair, measure Measure, threshold float64) []Match {
	return matchPrepared(prepare(measure, cp), pairs, threshold)
}

// matchPrepared scores one contiguous range of pairs per GOMAXPROCS
// worker and concatenates the ranges' matches, sorted by (A, B).
func matchPrepared(score PairScorer, pairs []blocking.Pair, threshold float64) []Match {
	parts := make([][]Match, kernel.Ranges(len(pairs)))
	kernel.ForRanges(len(pairs), len(parts), func(r, lo, hi int) {
		parts[r] = appendMatches(nil, score, pairs[lo:hi], threshold)
	})
	out := slices.Concat(parts...)
	if out == nil {
		out = []Match{}
	}
	sortMatches(out)
	return out
}

// appendMatches is the thresholded pair-scoring loop every range of
// MatchPairs and every task of MatchPairsDistributed run: it appends the
// pairs scoring at or above the threshold to dst.
func appendMatches(dst []Match, score PairScorer, pairs []blocking.Pair, threshold float64) []Match {
	for _, p := range pairs {
		if s := score(p.A, p.B); s >= threshold {
			dst = append(dst, Match{A: p.A, B: p.B, Score: s})
		}
	}
	return dst
}

// MatchPairsDistributed is MatchPairs on the dataflow engine: the measure
// is prepared once on the driver, the prepared scorer is broadcast, and
// candidate pairs are scored partition-parallel, mirroring how SparkER
// invokes a matcher over the blocker's output.
func MatchPairsDistributed(ctx *dataflow.Context, c *profile.Collection, pairs []blocking.Pair,
	measure Measure, threshold float64, numPartitions int) ([]Match, error) {
	return matchDistributed(ctx, measure.Prepare(c), pairs, threshold, numPartitions)
}

// MatchPairsDistributedCorpus is MatchPairsDistributed over a collection
// already tokenised, prepared as MatchPairsCorpus prepares.
func MatchPairsDistributedCorpus(ctx *dataflow.Context, cp *tokenize.Corpus, pairs []blocking.Pair,
	measure Measure, threshold float64, numPartitions int) ([]Match, error) {
	return matchDistributed(ctx, prepare(measure, cp), pairs, threshold, numPartitions)
}

func matchDistributed(ctx *dataflow.Context, score PairScorer, pairs []blocking.Pair, threshold float64, numPartitions int) ([]Match, error) {
	bscore := dataflow.NewBroadcast(ctx, score)
	rdd := dataflow.Parallelize(ctx, pairs, numPartitions)
	scored := dataflow.MapPartitions(rdd, func(part []blocking.Pair) ([]Match, error) {
		return appendMatches(nil, bscore.Value(), part, threshold), nil
	})
	out, err := scored.Collect()
	if err != nil {
		return nil, fmt.Errorf("matching: distributed matching: %w", err)
	}
	sortMatches(out)
	return out, nil
}

func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(x, y Match) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
}

// LabeledPair is a training example for the supervised threshold tuner.
type LabeledPair struct {
	Pair    blocking.Pair
	IsMatch bool
}

// TuneThreshold sweeps every distinct score of the labelled candidate
// pairs and returns the threshold maximising F1 — the supervised mode of
// the paper, where the user injects ground-truth knowledge instead of
// accepting the default threshold.
func TuneThreshold(c *profile.Collection, labeled []LabeledPair, measure Measure) (threshold, f1 float64) {
	type scored struct {
		score   float64
		isMatch bool
	}
	items := make([]scored, 0, len(labeled))
	positives := 0
	score := measure.Prepare(c)
	for _, lp := range labeled {
		items = append(items, scored{score: score(lp.Pair.A, lp.Pair.B), isMatch: lp.IsMatch})
		if lp.IsMatch {
			positives++
		}
	}
	if positives == 0 || len(items) == 0 {
		return 0.5, 0
	}
	sort.Slice(items, func(i, j int) bool { return items[i].score > items[j].score })

	// Descending sweep: at threshold = items[i].score everything up to i is
	// predicted positive.
	bestF1, bestTh := 0.0, items[0].score
	tp := 0
	for i, it := range items {
		if it.isMatch {
			tp++
		}
		if i+1 < len(items) && items[i+1].score == it.score {
			continue // evaluate only at distinct score boundaries
		}
		predicted := i + 1
		precision := float64(tp) / float64(predicted)
		recall := float64(tp) / float64(positives)
		if precision+recall == 0 {
			continue
		}
		f := 2 * precision * recall / (precision + recall)
		if f > bestF1 {
			bestF1, bestTh = f, it.score
		}
	}
	return bestTh, bestF1
}
