package matching

import (
	"cmp"
	"slices"
	"sync"

	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// bags is a profile slice tokenised once, the operand every built-in
// whole-profile measure scores from: profile i's distinct token IDs,
// ascending, are ids[start[i]:start[i+1]], so the overlap of two
// profiles is a linear merge of two integer runs instead of two
// tokenisations and two hash sets per pair (the set-similarity-join
// representation of the filtering literature).
type bags struct {
	start []int
	ids   []uint32
	// tf is the term frequency of each ids entry; kept only when the
	// bags were prepared by term (TF-IDF).
	tf []uint32
	// vocab is the token of every ID.
	vocab []string
}

// of returns profile i's distinct token IDs, ascending.
func (b *bags) of(i profile.ID) []uint32 { return b.ids[b.start[i]:b.start[i+1]] }

// bagScratch is the reusable workspace of whole-profile tokenisation.
type bagScratch struct {
	toks []string
	tok  tokenize.Scratch
}

var bagScratchPool = sync.Pool{New: func() any { return &bagScratch{} }}

// appendBag appends the tokens of every attribute value of p to dst.
func appendBag(dst []string, p *profile.Profile, tok tokenize.Options, sc *tokenize.Scratch) []string {
	for _, kv := range p.Attributes {
		dst = tok.AppendTokens(dst, kv.Value, sc)
	}
	return dst
}

// prepareBags tokenises every profile exactly once and interns the
// tokens to dense IDs. IDs are assigned in first-seen order unless
// byTerm is set, which ranks them by term and keeps the term
// frequencies: ascending-ID order is then the sorted-term order TF-IDF
// sums in, which keeps its scores bit-identical across runs.
func prepareBags(ps []profile.Profile, tok tokenize.Options, byTerm bool) *bags {
	sc := bagScratchPool.Get().(*bagScratch)
	b := &bags{start: make([]int, len(ps)+1)}
	intern := map[string]uint32{}
	for i := range ps {
		sc.toks = appendBag(sc.toks[:0], &ps[i], tok, &sc.tok)
		for _, t := range sc.toks {
			id, ok := intern[t]
			if !ok {
				id = uint32(len(b.vocab))
				intern[t] = id
				b.vocab = append(b.vocab, t)
			}
			b.ids = append(b.ids, id)
		}
		b.start[i+1] = len(b.ids)
	}
	bagScratchPool.Put(sc)

	if byTerm {
		order := make([]uint32, len(b.vocab)) // order[rank] = first-seen ID
		for i := range order {
			order[i] = uint32(i)
		}
		slices.SortFunc(order, func(x, y uint32) int { return cmp.Compare(b.vocab[x], b.vocab[y]) })
		rank := make([]uint32, len(order))
		vocab := make([]string, len(order))
		for r, id := range order {
			rank[id] = uint32(r)
			vocab[r] = b.vocab[id]
		}
		for i, id := range b.ids {
			b.ids[i] = rank[id]
		}
		b.vocab = vocab
		b.tf = make([]uint32, len(b.ids))
	}

	// Sort every run and squeeze its duplicates out in place: the write
	// cursor never passes the read cursor, so one backing array serves.
	w := 0
	for i := range ps {
		run := b.ids[b.start[i]:b.start[i+1]]
		slices.Sort(run)
		b.start[i] = w
		for k, id := range run {
			if k > 0 && id == run[k-1] {
				if byTerm {
					b.tf[w-1]++
				}
				continue
			}
			b.ids[w] = id
			if byTerm {
				b.tf[w] = 1
			}
			w++
		}
	}
	b.start[len(ps)] = w
	b.ids = b.ids[:w]
	if byTerm {
		b.tf = b.tf[:w]
	}
	return b
}

// intersectSorted counts the IDs two ascending distinct runs share.
func intersectSorted(a, b []uint32) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch x, y := a[i], b[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
