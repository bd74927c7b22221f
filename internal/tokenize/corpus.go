package tokenize

import (
	"sync"

	"sparker/internal/kernel"
	"sparker/internal/profile"
)

// Corpus is a collection tokenised once: every attribute value of every
// profile as a run of uint32 token IDs over one vocabulary, the integer
// record representation of the set-similarity-join literature. The batch
// stages that read tokens — attribute profiles for the loose-schema
// generator, token blocking, the matcher's bags — all read one Corpus,
// so a pass tokenises each value once, not once per stage.
//
// The runs are stored as CSR: profile i's values are value indices
// values[i] to values[i+1] (its Attributes, in order), and value v's
// token IDs are ids[tokens[v]:tokens[v+1]], in token order. A Corpus is
// read-only once built and safe for concurrent use.
type Corpus struct {
	// Collection is the collection the corpus tokenises.
	Collection *profile.Collection
	// Options is the tokenizer it was built with.
	Options Options
	// Vocab is the token of every ID. IDs are numbered in first-seen
	// order — profile by profile, value by value, token by token — so
	// the numbering is the same for every worker count.
	Vocab []string

	values []int
	tokens []int
	ids    []uint32
}

// minCorpusRange is the fewest profiles a build worker takes: below it a
// goroutine and a vocabulary merge cost more than tokenising the range,
// and a one-off two-profile score must not fan out at all.
const minCorpusRange = 16

// rangeBuilder is one build worker's state: the range's tokens numbered
// in first-seen order (intern, vocab) and its token IDs. Builders are
// pooled across corpora, so a rebuild over a vocabulary seen before
// allocates no string and grows no buffer: the corpus copies out only
// what it keeps.
type rangeBuilder struct {
	sc     Scratch
	intern map[string]uint32
	vocab  []string
	ids    []uint32
}

var builderPool = sync.Pool{New: func() any { return &rangeBuilder{intern: map[string]uint32{}} }}

func putBuilder(b *rangeBuilder) {
	if len(b.intern) > maxInterned { // a huge table would tax every later build
		return
	}
	clear(b.intern)
	b.vocab, b.ids = b.vocab[:0], b.ids[:0]
	builderPool.Put(b)
}

// NewCorpus tokenises every attribute value of c with o. The profiles
// are cut into one contiguous range per GOMAXPROCS worker; each range
// numbers its own tokens in first-seen order, and the range vocabularies
// are then merged in range order, which numbers every token by its first
// occurrence in the whole collection.
func NewCorpus(c *profile.Collection, o Options) *Corpus {
	ps := c.Profiles
	cp := &Corpus{Collection: c, Options: o, values: make([]int, len(ps)+1)}
	for i := range ps {
		cp.values[i+1] = cp.values[i] + len(ps[i].Attributes)
	}
	cp.tokens = make([]int, cp.values[len(ps)]+1)

	parts := make([]*rangeBuilder, kernel.Ranges(len(ps)/minCorpusRange))
	for r := range parts {
		parts[r] = builderPool.Get().(*rangeBuilder)
		defer putBuilder(parts[r])
	}
	kernel.ForRanges(len(ps), len(parts), func(r, lo, hi int) {
		b := parts[r]
		v := cp.values[lo]
		for i := lo; i < hi; i++ {
			for _, kv := range ps[i].Attributes {
				o.eachToken(kv.Value, &b.sc, func(f []byte) {
					id, ok := b.intern[string(f)] // zero-alloc lookup
					if !ok {
						id = uint32(len(b.vocab))
						tok := b.sc.internToken(f)
						b.intern[tok] = id
						b.vocab = append(b.vocab, tok)
					}
					b.ids = append(b.ids, id)
				})
				v++
				cp.tokens[v] = len(b.ids) // range-local end, rebased in the merge
			}
		}
	})

	// Merge: the first range's numbering is already global, and every
	// later range maps its IDs through the growing first-range table.
	// Then each range rebases its value ends and writes its remapped IDs
	// into its own stretch of the one ID array.
	global := parts[0].intern
	cp.Vocab = append([]string(nil), parts[0].vocab...)
	remaps := make([][]uint32, len(parts))
	bases := make([]int, len(parts)+1)
	for r, b := range parts {
		bases[r+1] = bases[r] + len(b.ids)
		if r == 0 {
			continue
		}
		remaps[r] = make([]uint32, len(b.vocab))
		for l, tok := range b.vocab {
			id, ok := global[tok]
			if !ok {
				id = uint32(len(cp.Vocab))
				global[tok] = id
				cp.Vocab = append(cp.Vocab, tok)
			}
			remaps[r][l] = id
		}
	}
	cp.ids = make([]uint32, bases[len(parts)])
	kernel.ForRanges(len(ps), len(parts), func(r, lo, hi int) {
		out := cp.ids[bases[r]:bases[r+1]]
		if r == 0 {
			copy(out, parts[0].ids)
			return
		}
		for v := cp.values[lo] + 1; v <= cp.values[hi]; v++ {
			cp.tokens[v] += bases[r]
		}
		for k, l := range parts[r].ids {
			out[k] = remaps[r][l]
		}
	})
	return cp
}

// Len is the number of profiles.
func (cp *Corpus) Len() int { return len(cp.values) - 1 }

// Value returns the token IDs of profile i's k-th attribute value, in
// token order.
func (cp *Corpus) Value(i, k int) []uint32 {
	v := cp.values[i] + k
	return cp.ids[cp.tokens[v]:cp.tokens[v+1]]
}

// Tokens returns the token IDs of every value of profile i, value by
// value, in token order: the profile's bag with its repeats.
func (cp *Corpus) Tokens(i int) []uint32 {
	return cp.ids[cp.tokens[cp.values[i]]:cp.tokens[cp.values[i+1]]]
}
