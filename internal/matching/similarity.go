// Package matching implements SparkER's entity matcher: it scores the
// candidate pairs that survive meta-blocking with a pluggable similarity
// measure and labels them match / non-match with a threshold (unsupervised
// mode) or a threshold tuned on labelled examples (supervised mode). The
// paper plugs Magellan in here and lists Jaccard, edit distance and CSA as
// example scores; this package provides those measures (TF-IDF cosine
// standing in for CSA) over profile bags-of-words.
//
// A Measure has a prepare-once / score-many shape, and that is the only
// path: MatchPairs, MatchPairsDistributed, ScorePairs and TuneThreshold
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
	"strconv"
	"strings"
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

// OverlapTokens computes |A∩B|/min(|A|,|B|).
func OverlapTokens(a, b []string) float64 {
	as := toSet(a)
	bs := toSet(b)
	minLen := len(as)
	if len(bs) < minLen {
		minLen = len(bs)
	}
	if minLen == 0 {
		return 0
	}
	inter := 0
	for t := range as {
		if bs[t] {
			inter++
		}
	}
	return float64(inter) / float64(minLen)
}

func toSet(tokens []string) map[string]bool {
	s := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		s[t] = true
	}
	return s
}

// Levenshtein computes the edit distance between two strings.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LevenshteinSimilarity normalises edit distance into [0,1].
func LevenshteinSimilarity(a, b string) float64 {
	if a == "" && b == "" {
		return 0
	}
	maxLen := len([]rune(a))
	if l := len([]rune(b)); l > maxLen {
		maxLen = l
	}
	return 1 - float64(Levenshtein(a, b))/float64(maxLen)
}

// Jaro computes the Jaro similarity of two strings.
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro similarity for strings sharing a prefix (up to 4
// runes, standard scaling 0.1).
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && ra[prefix] == rb[prefix] && prefix < 4 {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// NumericSimilarity compares two numeric strings as 1-|x-y|/max(|x|,|y|),
// or 0 when either fails to parse. It is the natural measure for the price
// attributes of the demo dataset.
func NumericSimilarity(a, b string) float64 {
	x, errX := strconv.ParseFloat(strings.TrimSpace(a), 64)
	y, errY := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errX != nil || errY != nil {
		return 0
	}
	if x == y {
		return 1
	}
	den := math.Max(math.Abs(x), math.Abs(y))
	if den == 0 {
		return 1
	}
	s := 1 - math.Abs(x-y)/den
	if s < 0 {
		return 0
	}
	return s
}

// MongeElkan computes the asymmetric Monge-Elkan similarity: for every
// token of a, the best inner similarity against b's tokens, averaged.
// It tolerates token-level typos that set-based measures score as zero.
func MongeElkan(a, b []string, inner func(x, y string) float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range a {
		best := 0.0
		for _, y := range b {
			if s := inner(x, y); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(a))
}

// TrigramJaccard compares strings by the Jaccard similarity of their
// character 3-gram sets, robust to word-order changes and small typos.
func TrigramJaccard(a, b string) float64 {
	ga := tokenize.NGrams(a, 3)
	gb := tokenize.NGrams(b, 3)
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	return JaccardTokens(ga, gb)
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
