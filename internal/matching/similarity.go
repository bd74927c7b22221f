// Package matching implements SparkER's entity matcher: it scores the
// candidate pairs that survive meta-blocking with a pluggable similarity
// measure and labels them match / non-match with a threshold (unsupervised
// mode) or a threshold tuned on labelled examples (supervised mode). The
// paper plugs Magellan in here and lists Jaccard, edit distance and CSA as
// example scores; this package provides the whole-profile measures a
// configuration can name — Jaccard, Dice and TF-IDF cosine standing in
// for CSA — over profile bags-of-words.
//
// A Measure has a prepare-once / score-many shape, and that is the only
// path: MatchPairs, MatchPairsDistributed and TuneThreshold
// call Measure.Prepare on the collection once and score every pair from
// the result. The built-in whole-profile measures prepare from a
// tokenize.Corpus — the one a batch pass has already built
// (MatchPairsCorpus, MatchPairsDistributedCorpus), or one built for the
// call — as a distinct, sorted run of token IDs per profile (bagsOf),
// and score a pair by a linear merge of two runs; for TF-IDF the IDs
// follow sorted-term order and carry the term weights, so sums keep
// their order. A custom MeasureFunc prepares to itself. Scores are
// bit-identical to the per-pair implementations retained in
// matching_test.go.
package matching

import (
	"math"
	"slices"
	"sync"

	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// JaccardTokens computes |A∩B|/|A∪B| over two token multisets (duplicates
// ignored).
func JaccardTokens(a, b []string) float64 {
	as := toSet(a)
	bs := toSet(b)
	if len(as) == 0 && len(bs) == 0 {
		return 0
	}
	inter := 0
	for t := range as {
		if bs[t] {
			inter++
		}
	}
	union := len(as) + len(bs) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// DiceTokens computes 2|A∩B|/(|A|+|B|).
func DiceTokens(a, b []string) float64 {
	as := toSet(a)
	bs := toSet(b)
	if len(as)+len(bs) == 0 {
		return 0
	}
	inter := 0
	for t := range as {
		if bs[t] {
			inter++
		}
	}
	return 2 * float64(inter) / float64(len(as)+len(bs))
}

func toSet(tokens []string) map[string]bool {
	s := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		s[t] = true
	}
	return s
}

// ProfileBag returns the concatenated token bag of every attribute value
// of a profile (nil for a profile without tokens). The slice is the
// caller's own; the tokens are derived through a pooled tokenizer
// workspace.
func ProfileBag(p *profile.Profile, tok tokenize.Options) []string {
	sc := bagScratchPool.Get().(*bagScratch)
	sc.toks = sc.toks[:0]
	for _, kv := range p.Attributes {
		sc.toks = tok.AppendTokens(sc.toks, kv.Value, &sc.tok)
	}
	var out []string
	if len(sc.toks) > 0 {
		out = slices.Clone(sc.toks)
	}
	bagScratchPool.Put(sc)
	return out
}

// bagScratch is ProfileBag's reusable tokenizer workspace.
type bagScratch struct {
	toks []string
	tok  tokenize.Scratch
}

var bagScratchPool = sync.Pool{New: func() any { return &bagScratch{} }}

// TFIDF is a corpus model for cosine similarity over profile bags; it
// stands in for the CSA document-similarity measure cited by the paper.
type TFIDF struct {
	idf  map[string]float64
	tok  tokenize.Options
	docs int
}

// NewTFIDF builds the model from every profile in the collection.
func NewTFIDF(c *profile.Collection, tok tokenize.Options) *TFIDF {
	return NewTFIDFCorpus(tokenize.NewCorpus(c, tok))
}

// NewTFIDFCorpus is NewTFIDF over a collection already tokenised: a
// token's document frequency is the number of profiles whose bag holds
// its ID.
func NewTFIDFCorpus(cp *tokenize.Corpus) *TFIDF {
	df := make([]int, len(cp.Vocab))
	last := make([]int, len(cp.Vocab)) // 1 + the last profile counted
	for i := 0; i < cp.Len(); i++ {
		for _, id := range cp.Tokens(i) {
			if last[id] != i+1 {
				last[id] = i + 1
				df[id]++
			}
		}
	}
	m := &TFIDF{idf: make(map[string]float64, len(df)), tok: cp.Options, docs: cp.Len()}
	for id, n := range df {
		m.idf[cp.Vocab[id]] = math.Log(float64(m.docs+1) / float64(n+1))
	}
	return m
}

// Cosine computes cosine similarity of two profiles' TF-IDF vectors.
func (m *TFIDF) Cosine(a, b *profile.Profile) float64 {
	return m.prepareCorpus(pairCorpus(a, b, m.tok))(0, 1)
}

// prepareCorpus weighs every profile's terms once. Terms carry IDs in
// sorted order, so the norms and every pair's dot product are
// accumulated in sorted-term order: scores are bit-identical across runs
// and between the one-off and the batch path.
func (m *TFIDF) prepareCorpus(cp *tokenize.Corpus) PairScorer {
	b := bagsOf(cp, true)
	idf := make([]float64, len(b.vocab))
	for id, t := range b.vocab {
		v, ok := m.idf[t]
		if !ok {
			v = math.Log(float64(m.docs + 1))
		}
		idf[id] = v
	}
	weights := make([]float64, len(b.ids))
	norms := make([]float64, cp.Len()) // √Σx², 0 for an empty vector
	for i := range norms {
		var sq float64
		for k := b.start[i]; k < b.start[i+1]; k++ {
			x := float64(b.tf[k]) * idf[b.ids[k]]
			weights[k] = x
			sq += x * x
		}
		norms[i] = math.Sqrt(sq)
	}
	return func(p, q profile.ID) float64 {
		np, nq := norms[p], norms[q]
		if np == 0 || nq == 0 {
			return 0
		}
		var dot float64
		i, iEnd := b.start[p], b.start[p+1]
		j, jEnd := b.start[q], b.start[q+1]
		for i < iEnd && j < jEnd {
			switch x, y := b.ids[i], b.ids[j]; {
			case x < y:
				i++
			case x > y:
				j++
			default:
				dot += weights[i] * weights[j]
				i++
				j++
			}
		}
		return dot / (np * nq)
	}
}
