package matching

import (
	"cmp"
	"slices"

	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// bags is a collection's whole-profile token bags, the operand every
// built-in measure scores from: profile i's distinct token IDs,
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

// bagsOf reads every profile's bag out of the corpus. IDs are the
// corpus's own unless byTerm is set, which ranks them by term and keeps
// the term frequencies: ascending-ID order is then the sorted-term order
// TF-IDF sums in, which keeps its scores bit-identical across runs.
func bagsOf(cp *tokenize.Corpus, byTerm bool) *bags {
	n := cp.Len()
	b := &bags{start: make([]int, n+1), vocab: cp.Vocab}
	var rank []uint32 // rank[corpus ID] = ID by term
	if byTerm {
		order := make([]uint32, len(cp.Vocab)) // order[rank] = corpus ID
		for i := range order {
			order[i] = uint32(i)
		}
		slices.SortFunc(order, func(x, y uint32) int { return cmp.Compare(cp.Vocab[x], cp.Vocab[y]) })
		rank = make([]uint32, len(order))
		b.vocab = make([]string, len(order))
		for r, id := range order {
			rank[id] = uint32(r)
			b.vocab[r] = cp.Vocab[id]
		}
	}
	total := 0
	for i := 0; i < n; i++ {
		total += len(cp.Tokens(i))
	}
	b.ids = make([]uint32, 0, total)
	if byTerm {
		b.tf = make([]uint32, 0, total)
	}

	// Sort a copy of every profile's tokens and squeeze its repeats out.
	for i := 0; i < n; i++ {
		run := append(b.ids[len(b.ids):], cp.Tokens(i)...)
		if byTerm {
			for k, id := range run {
				run[k] = rank[id]
			}
		}
		slices.Sort(run)
		for k, id := range run {
			if k > 0 && id == run[k-1] {
				if byTerm {
					b.tf[len(b.tf)-1]++
				}
				continue
			}
			b.ids = append(b.ids, id)
			if byTerm {
				b.tf = append(b.tf, 1)
			}
		}
		b.start[i+1] = len(b.ids)
	}
	return b
}

// intersectSorted counts the IDs two ascending distinct runs share. Each
// step advances past the smaller head, or past both when they are equal,
// without a branch on the comparison: the merge's outcome is data-driven
// and unpredictable, so flag arithmetic beats a mispredicted jump.
func intersectSorted(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		n += b2i(x == y)
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	return n
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
